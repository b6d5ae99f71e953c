// ANN serving equivalence: probe-then-rerank through TopKServer.
//
// The acceptance bar: at full probe (nprobe == every list) the ANN miss path
// must be *bit-identical* to the brute-force ScoreItems ranking for every
// model configuration, and models with no index vectors (index_dim() == 0)
// must fall through to the exact sweep — also bit-identical — with the stats
// ledger (ann_probes + exact_fallbacks == misses) attributing each miss to the
// path that served it. Recall at the default (sub-linear) nprobe is checked as
// a floor on a larger catalog; the committed bench gates the real operating
// point.
#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ann/candidate_index.h"
#include "ann/ivf_index.h"
#include "common/facet_store.h"
#include "common/thread_pool.h"
#include "core/mar.h"
#include "core/mars.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "models/bpr.h"
#include "models/cml.h"
#include "models/lrml.h"
#include "models/metricf.h"
#include "models/recommender.h"
#include "models/sml.h"
#include "models/transcf.h"
#include "serve/top_k_server.h"
#include "serve/write_tracker.h"

namespace mars {
namespace {

/// nprobe far above any centroid count: the IVF candidate block becomes
/// the whole catalog, so the served ranking must be exact.
constexpr size_t kFullProbe = 1u << 20;

std::pair<std::vector<ItemId>, std::vector<float>> BruteForceTopK(
    const ItemScorer& scorer, UserId u, size_t num_items, size_t k,
    const ImplicitDataset* exclude = nullptr) {
  std::vector<ItemId> ids;
  for (ItemId v = 0; v < num_items; ++v) {
    if (exclude != nullptr && exclude->HasInteraction(u, v)) continue;
    ids.push_back(v);
  }
  std::vector<float> scores(ids.size());
  scorer.ScoreItems(u, ids, scores.data());
  std::vector<std::pair<float, ItemId>> ranked(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) ranked[i] = {scores[i], ids[i]};
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first > b.first || (a.first == b.first && a.second < b.second);
  });
  ranked.resize(std::min(k, ranked.size()));
  std::vector<ItemId> top;
  std::vector<float> top_scores;
  for (const auto& [s, v] : ranked) {
    top.push_back(v);
    top_scores.push_back(s);
  }
  return {top, top_scores};
}

std::shared_ptr<ImplicitDataset> SmallDataset(size_t users = 60,
                                              size_t items = 150) {
  SyntheticConfig cfg;
  cfg.num_users = users;
  cfg.num_items = items;
  cfg.target_interactions = users * 12;
  cfg.num_facets = 3;
  cfg.seed = 7;
  return GenerateSyntheticDataset(cfg);
}

TrainOptions QuickTrain() {
  TrainOptions options;
  options.epochs = 3;
  options.learning_rate = 0.1;
  options.seed = 42;
  return options;
}

/// Full-probe ANN server vs brute force, plus the miss-attribution
/// ledger: `expect_probed` says whether this model is indexable
/// (index_dim() > 0, probed misses) or falls back to the exact sweep.
void ExpectAnnServerMatchesBruteForce(Recommender* model,
                                      const ImplicitDataset& data,
                                      bool expect_probed) {
  const size_t k = 7, probe_users = 8;
  TopKServerOptions opts;
  opts.k = k;
  opts.ann.enable = true;
  opts.ann.index.nprobe = kFullProbe;
  TopKServer server(model, data.num_users(), data.num_items(), opts);
  EXPECT_EQ(model->index_dim() > 0, expect_probed) << model->name();
  for (UserId u = 0; u < probe_users; ++u) {
    const auto [want_items, want_scores] =
        BruteForceTopK(*model, u, data.num_items(), k);
    const TopKResponse got = server.TopK(u);
    ASSERT_EQ(got.items.size(), want_items.size()) << model->name();
    for (size_t i = 0; i < want_items.size(); ++i) {
      EXPECT_EQ(got.items[i], want_items[i])
          << model->name() << " user " << u << " rank " << i;
      EXPECT_EQ(got.scores[i], want_scores[i])
          << model->name() << " user " << u << " rank " << i;
    }
  }
  const TopKServerStats st = server.stats();
  EXPECT_EQ(st.misses, probe_users) << model->name();
  EXPECT_EQ(st.ann_probes + st.exact_fallbacks, st.misses) << model->name();
  if (expect_probed) {
    EXPECT_EQ(st.ann_probes, probe_users) << model->name();
    EXPECT_EQ(st.exact_fallbacks, 0u) << model->name();
  } else {
    EXPECT_EQ(st.ann_probes, 0u) << model->name();
    EXPECT_EQ(st.exact_fallbacks, probe_users) << model->name();
  }
}

// --- The ten serving configurations of the equivalence suite. -------------
// Probed: the dot models (BPR bias-MIPS, MARS concatenated facets).
// Fallback: the metric models (CML/SML/MetricF have no index vectors),
// MAR (per-candidate projections), TransCF and LRML (relation vectors
// built per pair) — they must serve through the exact sweep unchanged.

TEST(TopKServerAnnEquivalence, Mars) {
  const auto data = SmallDataset();
  MultiFacetConfig cfg;
  cfg.dim = 16;
  cfg.num_facets = 4;
  cfg.theta_init_nmf = false;
  Mars model(cfg);
  model.Fit(*data, QuickTrain());
  ExpectAnnServerMatchesBruteForce(&model, *data, /*expect_probed=*/true);
}

TEST(TopKServerAnnEquivalence, MarsSingleFacet) {
  const auto data = SmallDataset();
  MultiFacetConfig cfg;
  cfg.dim = 16;
  cfg.num_facets = 1;
  cfg.theta_init_nmf = false;
  Mars model(cfg);
  model.Fit(*data, QuickTrain());
  // K = 1 scores through the same weighted facet dot as every K, so the
  // ANN re-rank (ScoreItems) is bit-identical to the brute-force oracle.
  ExpectAnnServerMatchesBruteForce(&model, *data, /*expect_probed=*/true);
}

TEST(TopKServerAnnEquivalence, MarFree) {
  const auto data = SmallDataset();
  MultiFacetConfig cfg;
  cfg.dim = 16;
  cfg.num_facets = 3;
  cfg.theta_init_nmf = false;
  Mar model(cfg, FacetParam::kFree);
  model.Fit(*data, QuickTrain());
  ExpectAnnServerMatchesBruteForce(&model, *data, /*expect_probed=*/false);
}

TEST(TopKServerAnnEquivalence, MarProjected) {
  const auto data = SmallDataset();
  MultiFacetConfig cfg;
  cfg.dim = 16;
  cfg.num_facets = 3;
  cfg.theta_init_nmf = false;
  Mar model(cfg, FacetParam::kProjected);
  model.Fit(*data, QuickTrain());
  ExpectAnnServerMatchesBruteForce(&model, *data, /*expect_probed=*/false);
}

TEST(TopKServerAnnEquivalence, Bpr) {
  const auto data = SmallDataset();
  Bpr model(BprConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectAnnServerMatchesBruteForce(&model, *data, /*expect_probed=*/true);
}

TEST(TopKServerAnnEquivalence, Cml) {
  const auto data = SmallDataset();
  Cml model(CmlConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectAnnServerMatchesBruteForce(&model, *data, /*expect_probed=*/false);
}

TEST(TopKServerAnnEquivalence, Sml) {
  const auto data = SmallDataset();
  Sml model(SmlConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectAnnServerMatchesBruteForce(&model, *data, /*expect_probed=*/false);
}

TEST(TopKServerAnnEquivalence, MetricF) {
  const auto data = SmallDataset();
  MetricF model(MetricFConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectAnnServerMatchesBruteForce(&model, *data, /*expect_probed=*/false);
}

TEST(TopKServerAnnEquivalence, TransCf) {
  const auto data = SmallDataset();
  TransCf model(TransCfConfig{.dim = 16});
  model.Fit(*data, QuickTrain());
  ExpectAnnServerMatchesBruteForce(&model, *data, /*expect_probed=*/false);
}

TEST(TopKServerAnnEquivalence, Lrml) {
  const auto data = SmallDataset();
  Lrml model(LrmlConfig{.dim = 16, .memory_slots = 4});
  model.Fit(*data, QuickTrain());
  ExpectAnnServerMatchesBruteForce(&model, *data, /*expect_probed=*/false);
}

// --- Behavioural tests beyond per-model equivalence. ----------------------

TEST(TopKServerAnnTest, IvfFullProbeRespectsExclusions) {
  const auto data = SmallDataset(80, 300);
  Bpr model(BprConfig{.dim = 16});
  model.Fit(*data, QuickTrain());

  TopKServerOptions opts;
  opts.k = 9;
  opts.ann.enable = true;
  opts.ann.index.nprobe = kFullProbe;
  opts.exclude_interactions = data.get();
  TopKServer server(&model, data->num_users(), data->num_items(), opts);
  for (UserId u = 0; u < 16; ++u) {
    const auto [want_items, want_scores] =
        BruteForceTopK(model, u, data->num_items(), 9, data.get());
    const TopKResponse got = server.TopK(u);
    EXPECT_EQ(got.items, want_items) << "user " << u;
    EXPECT_EQ(got.scores, want_scores) << "user " << u;
  }
}

TEST(TopKServerAnnTest, DefaultNprobeRecallFloorOnLargerCatalog) {
  // The sub-linear operating point: default nprobe probes a fraction of
  // the lists. Served scores are still exact per considered item; the
  // only quality axis is recall@k against the brute-force oracle. The
  // bench gates ≥ 0.95 at its committed scale — here a coarser floor on
  // a 2000-item catalog guards against recall collapsing outright.
  // A *well-trained* model over a catalog the interactions actually
  // cover (~10 per item), unlike the equivalence suite's quick skims:
  // recall at a fractional nprobe is a property of how clustered the
  // learned embeddings are, and an under-trained (or mostly
  // never-trained, random-init) item space is near-isotropic, where no
  // candidate index can beat the scanned fraction (~3% at the auto
  // defaults). Same regime as bench_serve's ANN section, which gates
  // recall@10 >= 0.95 at this operating point; the floor here is looser
  // only to absorb the smaller catalog's quantization.
  SyntheticConfig cfg;
  cfg.num_users = 1000;
  cfg.num_items = 2000;
  cfg.target_interactions = 20000;
  cfg.num_facets = 4;
  cfg.seed = 7;
  const auto data = GenerateSyntheticDataset(cfg);
  Bpr model(BprConfig{.dim = 32});
  TrainOptions train;
  train.epochs = 5;
  train.learning_rate = 0.05;
  train.seed = 42;
  model.Fit(*data, train);

  const size_t k = 10, probe_users = 40;
  TopKServerOptions opts;
  opts.k = k;
  opts.ann.enable = true;
  TopKServer server(&model, data->num_users(), data->num_items(), opts);
  size_t hit = 0;
  for (UserId u = 0; u < probe_users; ++u) {
    const auto [want_items, want_scores] =
        BruteForceTopK(model, u, data->num_items(), k);
    const TopKResponse got = server.TopK(u);
    EXPECT_EQ(got.items.size(), k);
    for (const ItemId v : got.items) {
      if (std::find(want_items.begin(), want_items.end(), v) !=
          want_items.end()) {
        ++hit;
      }
    }
    // Whatever the block covered was scored exactly: the served scores
    // must be bit-identical to the model's own gather over the same ids.
    std::vector<float> expect(got.items.size());
    model.ScoreItems(u, got.items, expect.data());
    for (size_t i = 0; i < got.items.size(); ++i) {
      EXPECT_EQ(got.scores[i], expect[i]);
    }
  }
  const double recall =
      static_cast<double>(hit) / static_cast<double>(k * probe_users);
  EXPECT_GE(recall, 0.9) << "recall@10 collapsed at default nprobe";
  EXPECT_EQ(server.stats().ann_probes, probe_users);
}

TEST(TopKServerAnnTest, InjectedIndexImpliesAnnServing) {
  const auto data = SmallDataset();
  Bpr model(BprConfig{.dim = 16});
  model.Fit(*data, QuickTrain());

  // Build the index by hand (the bench's nprobe-sweep pattern) and
  // inject it; ann.enable is left unset on purpose — injection implies it.
  auto base = SphericalIvfIndex::Build(model, data->num_items(),
                                       AnnIndexOptions{}, nullptr);
  ASSERT_NE(base, nullptr);
  TopKServerOptions opts;
  opts.k = 7;
  opts.ann.prebuilt = base->CloneWithNprobe(base->num_centroids());
  TopKServer server(&model, data->num_users(), data->num_items(), opts);
  for (UserId u = 0; u < 8; ++u) {
    const auto [want_items, want_scores] =
        BruteForceTopK(model, u, data->num_items(), 7);
    const TopKResponse got = server.TopK(u);
    EXPECT_EQ(got.items, want_items) << "user " << u;
    EXPECT_EQ(got.scores, want_scores) << "user " << u;
  }
  EXPECT_EQ(server.stats().ann_probes, 8u);
  EXPECT_EQ(server.stats().exact_fallbacks, 0u);
}

TEST(TopKServerAnnTest, AnnMissesFillTheCache) {
  const auto data = SmallDataset();
  Bpr model(BprConfig{.dim = 16});
  model.Fit(*data, QuickTrain());

  TopKServerOptions opts;
  opts.k = 7;
  opts.ann.enable = true;
  opts.ann.index.nprobe = kFullProbe;
  TopKServer server(&model, data->num_users(), data->num_items(), opts);
  const TopKResponse miss = server.TopK(5);
  EXPECT_FALSE(miss.from_cache);
  const TopKResponse hit = server.TopK(5);
  EXPECT_TRUE(hit.from_cache);
  EXPECT_EQ(hit.items, miss.items);
  EXPECT_EQ(hit.scores, miss.scores);
  const TopKServerStats st = server.stats();
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.ann_probes, 1u);  // hits never probe
}

// Depth 0 ranks nothing on either miss path: the exact sweep and the IVF
// probe both answer empty, through TopK and through a multi-user
// TopKBatch, and every query is still attributed as a hit or a miss.
TEST(TopKServerAnnTest, ZeroDepthServesEmptyOnExactAndIvfPaths) {
  const auto data = SmallDataset();
  Bpr model(BprConfig{.dim = 16});
  model.Fit(*data, QuickTrain());

  for (const bool ann : {false, true}) {
    TopKServerOptions opts;
    opts.k = 0;
    opts.ann.enable = ann;
    opts.exclude_interactions = data.get();
    TopKServer server(&model, data->num_users(), data->num_items(), opts);
    if (ann) ASSERT_NE(server.AnnIndexSnapshot(), nullptr);
    size_t queries = 0;
    for (const UserId u : {0u, 5u, 0u}) {
      const TopKResponse r = server.TopK(u);
      ++queries;
      EXPECT_TRUE(r.items.empty()) << "ann " << ann << " user " << u;
      EXPECT_TRUE(r.scores.empty()) << "ann " << ann << " user " << u;
    }
    // Three distinct cold users (one multi-user sweep) plus a cached one.
    const std::vector<UserId> batch = {1, 2, 3, 5};
    const std::vector<TopKResponse> got = server.TopKBatch(batch);
    queries += batch.size();
    ASSERT_EQ(got.size(), batch.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(got[i].items.empty()) << "ann " << ann << " position " << i;
      EXPECT_TRUE(got[i].scores.empty()) << "ann " << ann << " position " << i;
    }
    const TopKServerStats st = server.stats();
    EXPECT_EQ(st.hits + st.misses, queries) << "ann " << ann;
    EXPECT_EQ(st.hits, 2u) << "ann " << ann;
    EXPECT_EQ(st.batch_sweeps, 1u) << "ann " << ann;
    EXPECT_EQ(ann ? st.ann_probes : st.exact_fallbacks, st.misses)
        << "ann " << ann;
    EXPECT_EQ(st.ann_probes + st.exact_fallbacks, st.misses) << "ann " << ann;
  }
}

TEST(TopKServerAnnTest, PublishEpochRebuildsIndexIncrementally) {
  // The maintenance contract end to end: publish a genuinely different
  // model with a strict-subset dirty tracker. AbsorbWrites must re-insert
  // the dirty item shards into the index (SphericalIvfIndex::Rebuilt) and
  // post-absorb misses — served at full probe — must match a cold ANN
  // server built directly over the new model.
  const auto data = SmallDataset(60, 240);
  const size_t kShards = 8;
  auto model_a = std::make_shared<Bpr>(BprConfig{.dim = 16});
  model_a->Fit(*data, QuickTrain());
  auto model_b = std::make_shared<Bpr>(BprConfig{.dim = 16});
  TrainOptions longer = QuickTrain();
  longer.epochs = 6;
  model_b->Fit(*data, longer);

  TopKServerOptions opts;
  opts.k = 7;
  opts.ann.enable = true;
  opts.ann.index.nprobe = kFullProbe;
  opts.cache.item_shards = kShards;
  opts.cache.max_users = data->num_users();
  TopKServer server(std::shared_ptr<const ItemScorer>(model_a),
                    data->num_users(), data->num_items(), opts);
  for (UserId u = 0; u < 12; ++u) server.TopK(u);  // warm the cache

  // model_b is independently trained, so *every* user row moved: mark
  // all user shards (dropping the warmed entries, whose in-place refresh
  // assumes clean item shards kept their scores) while keeping the item
  // dirt a strict subset — exactly what routes the index through the
  // incremental Rebuilt path rather than a from-scratch build.
  WriteTracker tracker(data->num_users(), data->num_items(), kShards);
  tracker.MarkAllUsers();
  for (ItemId v = 0; v < data->num_items(); ++v) {
    const size_t s = tracker.ItemShardOf(v);
    if (s == 1 || s == 2 || s == 5) tracker.MarkItem(v);
  }
  server.PublishEpoch(model_b, &tracker);

  TopKServer cold(std::shared_ptr<const ItemScorer>(model_b),
                  data->num_users(), data->num_items(), opts);
  for (UserId u = 0; u < 12; ++u) {
    const TopKResponse got = server.TopK(u);
    const TopKResponse want = cold.TopK(u);
    EXPECT_EQ(got.items, want.items) << "user " << u;
    EXPECT_EQ(got.scores, want.scores) << "user " << u;
  }
  // Every post-publish miss went through the (rebuilt) probe path.
  const TopKServerStats st = server.stats();
  EXPECT_EQ(st.exact_fallbacks, 0u);
  EXPECT_EQ(st.ann_probes, st.misses);
}

TEST(TopKServerAnnTest, ParallelAnnSweepMatchesSerial) {
  const auto data = SmallDataset(60, 400);
  Bpr model(BprConfig{.dim = 16});
  model.Fit(*data, QuickTrain());

  ThreadPool pool(3);
  TopKServerOptions par;
  par.k = 9;
  par.ann.enable = true;
  par.pool = &pool;  // parallel index build, same served answers
  TopKServer parallel_server(&model, data->num_users(), data->num_items(),
                             par);
  TopKServerOptions ser;
  ser.k = 9;
  ser.ann.enable = true;
  TopKServer serial_server(&model, data->num_users(), data->num_items(), ser);
  for (UserId u = 0; u < 10; ++u) {
    const TopKResponse a = parallel_server.TopK(u);
    const TopKResponse b = serial_server.TopK(u);
    EXPECT_EQ(a.items, b.items) << "user " << u;
    EXPECT_EQ(a.scores, b.scores) << "user " << u;
  }
  EXPECT_EQ(parallel_server.stats().ann_probes, 10u);
  EXPECT_EQ(serial_server.stats().ann_probes, 10u);
}

}  // namespace
}  // namespace mars
