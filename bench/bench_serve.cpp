// Serving-throughput bench: cold full-catalog sweeps vs cached hot-user
// queries through the TopKServer, at several catalog sizes, plus the
// measurements the serving roadmap gates on:
//
//  * ANN recall/latency — one spherical IVF build per catalog >= 10k,
//    swept over nprobe fractions via cheap clones; the committed default
//    point must keep recall@10 >= 0.95 while beating the cold exact
//    sweep >= 3x at >= 50k items (scripts/check_bench.py enforces both);
//    plus the same curve on MARS at the wire benchmark's cold-catalog
//    shape (`ann_mars`), whose default point must keep recall@10 >= 0.95;
//
//  * restart at retrieval scale — one million-item point comparing a
//    from-scratch index rebuild (k-means + assignment) against mmapping
//    the persisted MRSI index file (ann/index_io.h) to the first served
//    query; the committed bar is >= 5x warm-vs-cold restart with
//    recall@10 *equal* between built and mapped (the probes are
//    bit-identical, so any daylight is a bug);
//
//  * multi-threaded QPS — 1/2/4/8 frontend threads hammering one server
//    with a 90/10 hot/cold mix while a background maintenance thread
//    keeps publishing epochs (ReplaceModel + incremental AbsorbWrites),
//    i.e. the striped-cache read path under realistic churn;
//  * incremental re-sweep cost — with 1/8 of the item shards dirty, the
//    per-entry refresh done by AbsorbWrites must cost ≤ 1/4 of a cold
//    full-catalog sweep (the mostly-clean-epoch warm-cache bar);
//
//  * coalesced-batch serving — TopKBatch over B ∈ {2, 4, 8} cold users
//    (one multi-user block sweep: each item block streamed once and
//    scored for all B users) vs B solo cold sweeps, per-user. Measured
//    single-threaded on a dim-64 BPR, where the shared item-block loads
//    dominate the per-row cost; the committed bar is ≥ 1.5x per user at
//    B = 8 at the 50k-item gate point and never-slower at larger
//    catalogs, armed even on 1-CPU hosts because nothing here needs a
//    second core (scripts/check_bench.py:check_serve_batch).
//
// Emits machine-readable JSON (BENCH_serve.json via scripts/bench.sh or
// the ci.sh --bench stage) so serving perf regressions are diffable;
// scripts/check_bench.py enforces the invariants and skips the
// multi-thread *scaling* comparison when host_cpus == 1 (a 1-core
// container serializes the frontends, so MT numbers measure overhead).
//
// The model is BPR (DotBatch sweep — the cheapest per-item kernel, which
// makes the *server* overhead the subject rather than the model), trained
// just enough to have non-degenerate embeddings. "Cold" queries distinct
// never-cached users, so every query pays the full sweep + heap merge;
// "cached" re-queries the same users, so every query is an LRU hit. The
// acceptance bar from the serving roadmap: cached ≥ 5x cold at ≥ 10k
// items. Single-thread sections stay single-threaded on purpose: they are
// the only timings comparable on a 1-core CI container.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/stat.h>

#include "ann/index_io.h"
#include "ann/ivf_index.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/vec.h"
#include "common/snapshot_handle.h"
#include "common/timer.h"
#include "core/mars.h"
#include "data/synthetic.h"
#include "models/bpr.h"
#include "serve/top_k_server.h"
#include "serve/write_tracker.h"

namespace {

struct ServeResult {
  size_t num_items = 0;
  double cold_ms = 0.0;    // per query, full-catalog sweep
  double cached_ms = 0.0;  // per query, LRU hit
  double speedup = 0.0;
};

struct MtResult {
  size_t threads = 0;
  double qps = 0.0;
  double speedup_vs_1 = 0.0;
  unsigned long long served = 0;
};

/// One nprobe operating point of the ANN recall/latency curve.
struct AnnPoint {
  size_t nprobe = 0;
  double ms_per_query = 0.0;     // miss-path latency through the server
  double recall_at_10 = 0.0;     // vs the brute-force oracle
  double speedup_vs_cold = 0.0;  // cold exact sweep / ANN miss
};

struct AnnResult {
  size_t num_items = 0;
  size_t index_dim = 0;
  size_t num_centroids = 0;
  double build_ms = 0.0;
  AnnPoint def;                 // the committed default nprobe (the gate)
  std::vector<AnnPoint> sweep;  // fractions of num_centroids up to exact
};

/// The million-item restart point: rebuild-from-scratch vs mmap the
/// persisted index file (ann/index_io.h), to the first served query.
struct AnnRestartResult {
  size_t num_items = 0;
  size_t num_centroids = 0;
  unsigned long long index_bytes = 0;
  double build_ms = 0.0;  // k-means + assignment, the cold-restart cost
  double save_ms = 0.0;
  double load_ms = 0.0;   // mmap + header/CRC validation (best of repeats)
  double first_query_built_ms = 0.0;
  double first_query_mapped_ms = 0.0;
  double cold_restart_ms = 0.0;  // build + first query
  double warm_restart_ms = 0.0;  // load + first query
  double restart_speedup = 0.0;  // cold / warm (the >= 5x gate at 1M)
  double recall_built = 0.0;     // recall@10 at the default nprobe...
  double recall_mapped = 0.0;    // ...must be *equal* (bit-identity gate)
  size_t responses_checked = 0;
  size_t responses_identical = 0;  // built-server vs mapped-server TopK
};

/// One (catalog size, batch size) point of the coalesced-batch section.
struct BatchServeResult {
  size_t num_items = 0;
  size_t batch = 0;                // B users per TopKBatch call
  double solo_ms_per_user = 0.0;   // B separate cold TopK sweeps
  double batch_ms_per_user = 0.0;  // one TopKBatch(B) / B
  double speedup = 0.0;            // solo / batch, per user
};

struct IncrementalResult {
  size_t num_items = 0;
  size_t dirty_shards = 0;
  size_t total_shards = 0;
  size_t entries = 0;
  double refresh_ms_per_entry = 0.0;
  double cold_ms_per_query = 0.0;
  double refresh_vs_cold = 0.0;
};

/// Dot-geometry scorer with random tables for the restart-at-scale
/// section. Restart cost is a property of the index persistence path
/// (k-means + assignment vs mmap + validation), not of embedding
/// quality, and the parity gate is built-vs-mapped *equality* — so a
/// random model measures exactly what the gate needs while skipping a
/// million-item training run the timing would never see.
class RestartScorer : public mars::ItemScorer {
 public:
  RestartScorer(size_t users, size_t items, size_t dim, uint64_t seed)
      : dim_(dim), user_(users * dim), item_(items * dim) {
    mars::Rng rng(seed);
    for (auto& x : user_) x = static_cast<float>(rng.Normal());
    for (auto& x : item_) x = static_cast<float>(rng.Normal());
  }

  float Score(mars::UserId u, mars::ItemId v) const override {
    return mars::Dot(user_.data() + u * dim_, item_.data() + v * dim_, dim_);
  }
  size_t index_dim() const override { return dim_; }
  void CopyIndexVectors(mars::ItemId begin, mars::ItemId end,
                        float* out) const override {
    mars::Copy(item_.data() + begin * dim_, out, (end - begin) * dim_);
  }
  void WriteIndexQuery(mars::UserId u, float* out) const override {
    mars::Copy(user_.data() + u * dim_, out, dim_);
  }

 private:
  size_t dim_;
  std::vector<float> user_, item_;
};

/// Brute-force top-k ids of users [0, num_users), ties to the lower id —
/// the recall oracle of the ANN sections.
std::vector<std::vector<mars::ItemId>> OracleTopK(
    const mars::ItemScorer& model, size_t num_users, size_t num_items,
    size_t k) {
  std::vector<mars::ItemId> all_ids(num_items);
  for (mars::ItemId v = 0; v < num_items; ++v) all_ids[v] = v;
  std::vector<float> all_scores(num_items);
  std::vector<std::vector<mars::ItemId>> oracle(num_users);
  for (mars::UserId u = 0; u < num_users; ++u) {
    model.ScoreItems(u, all_ids, all_scores.data());
    std::vector<std::pair<float, mars::ItemId>> ranked(num_items);
    for (size_t i = 0; i < num_items; ++i) {
      ranked[i] = {all_scores[i], all_ids[i]};
    }
    std::partial_sort(ranked.begin(), ranked.begin() + k, ranked.end(),
                      [](const auto& a, const auto& b) {
                        return a.first > b.first ||
                               (a.first == b.first && a.second < b.second);
                      });
    for (size_t i = 0; i < k; ++i) oracle[u].push_back(ranked[i].second);
  }
  return oracle;
}

/// One ANN operating point served end to end (probe + exact re-rank +
/// rank) by a server on `index`: recall@k of the oracle's users, then the
/// best-of-bursts latency over never-cached users (disjoint from the
/// recall sample and across bursts, so every query is an ANN miss).
AnnPoint EvalAnnPoint(const mars::ItemScorer& model, size_t num_users,
                      size_t num_items,
                      std::shared_ptr<const mars::SphericalIvfIndex> index,
                      const std::vector<std::vector<mars::ItemId>>& oracle,
                      size_t queries, size_t bursts, double cold_ms,
                      size_t k) {
  using namespace mars;
  AnnPoint p;
  TopKServerOptions opts;
  opts.k = k;
  opts.cache.max_users = num_users;
  p.nprobe = index->nprobe();
  opts.ann.prebuilt = std::move(index);
  TopKServer server(&model, num_users, num_items, opts);
  const size_t recall_users = oracle.size();
  size_t hit = 0;
  for (UserId u = 0; u < recall_users; ++u) {
    for (const ItemId v : server.TopK(u).items) {
      hit += std::count(oracle[u].begin(), oracle[u].end(), v);
    }
  }
  p.recall_at_10 = static_cast<double>(hit) / (k * recall_users);
  for (size_t b = 0; b < bursts; ++b) {
    Timer t;
    for (size_t q = 0; q < queries; ++q) {
      server.TopK(static_cast<UserId>(
          recall_users + (b * queries + q) % (num_users - recall_users)));
    }
    const double ms = t.ElapsedMillis() / queries;
    p.ms_per_query = b == 0 ? ms : std::min(p.ms_per_query, ms);
  }
  p.speedup_vs_cold = p.ms_per_query > 0.0 ? cold_ms / p.ms_per_query : 0.0;
  return p;
}

/// Best-of-bursts exact cold sweep through a server without an index:
/// every query a distinct never-cached user.
double ColdExactMs(const mars::ItemScorer& model, size_t num_users,
                   size_t num_items, size_t queries, size_t bursts,
                   size_t k) {
  using namespace mars;
  TopKServerOptions opts;
  opts.k = k;
  opts.cache.max_users = num_users;
  TopKServer server(&model, num_users, num_items, opts);
  double cold_ms = 0.0;
  for (size_t b = 0; b < bursts; ++b) {
    Timer t;
    for (size_t q = 0; q < queries; ++q) {
      server.TopK(static_cast<UserId>((b * queries + q) % num_users));
    }
    const double ms = t.ElapsedMillis() / queries;
    cold_ms = b == 0 ? ms : std::min(cold_ms, ms);
  }
  return cold_ms;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mars;

  const std::string out_path = argc > 1 ? argv[1] : "BENCH_serve.json";
  const bool fast = BenchFastMode();

  const std::vector<size_t> catalog_sizes =
      fast ? std::vector<size_t>{1000, 10000}
           : std::vector<size_t>{2000, 10000, 50000, 200000};
  const size_t kUsers = fast ? 300 : 1000;
  const size_t kTopK = 10;

  bench::Banner(
      "bench_serve — TopKServer cold/cached, MT QPS, incremental refresh");
  const unsigned host_cpus = std::thread::hardware_concurrency();
  std::printf("host cpus: %u  k=%zu  users=%zu\n\n", host_cpus, kTopK,
              kUsers);

  std::vector<ServeResult> results;
  std::vector<AnnResult> ann_results;
  std::vector<BatchServeResult> batch_results;
  std::vector<IncrementalResult> incremental;
  std::vector<MtResult> mt_results;
  size_t mt_items = 0;

  for (const size_t num_items : catalog_sizes) {
    SyntheticConfig data_cfg;
    data_cfg.num_users = kUsers;
    data_cfg.num_items = num_items;
    // Interactions scale with the catalog so every item is trained:
    // items the training never touches keep their random init, and once
    // they are the majority (e.g. 20k interactions over a 200k catalog)
    // the measured ANN recall reflects that noise, not the index
    // (measured at 200k: recall@10 0.23 at the default nprobe with
    // kUsers*20 interactions vs 0.99 with 2 per item).
    data_cfg.target_interactions = std::max(kUsers * 20, num_items * 2);
    data_cfg.num_facets = 4;
    data_cfg.seed = 7;
    const auto dataset = GenerateSyntheticDataset(data_cfg);

    Bpr model(BprConfig{.dim = 32});
    TrainOptions train;
    // Trained to convergence on the small interaction set (tens of ms):
    // ANN recall is a property of how clustered the learned embeddings
    // are, and a near-random model makes the recall gate meaningless
    // (measured: recall@10 at the default nprobe is ~0.4 after a
    // 2000-step skim vs ~0.97 after 5 real epochs, same index).
    train.epochs = 5;
    train.learning_rate = 0.05;
    train.seed = 42;
    model.Fit(*dataset, train);

    TopKServerOptions opts;
    opts.k = kTopK;
    opts.cache.max_users = kUsers;
    TopKServer server(&model, kUsers, num_items, opts);

    // Cold: each query is a distinct user → guaranteed cache miss. Best
    // of several bursts (disjoint user ranges, so every query stays a
    // miss): on hosts with invisible neighbor contention a single burst
    // can read 2x slow, and the regression gate needs the code's cost,
    // not the host's mood. Same policy for the cached and incremental
    // sections below.
    const size_t cold_queries = fast ? 50 : 200;
    const size_t kBursts = 3;
    double cold_ms = 0.0;
    for (size_t b = 0; b < kBursts; ++b) {
      Timer cold_timer;
      for (size_t q = 0; q < cold_queries; ++q) {
        server.TopK(static_cast<UserId>((b * cold_queries + q) % kUsers));
      }
      const double ms = cold_timer.ElapsedMillis() / cold_queries;
      cold_ms = b == 0 ? ms : std::min(cold_ms, ms);
    }

    // Cached: the same users again, repeatedly → every query an LRU hit.
    const size_t hot_queries = fast ? 5000 : 20000;
    double cached_ms = 0.0;
    for (size_t b = 0; b < kBursts; ++b) {
      Timer hot_timer;
      for (size_t q = 0; q < hot_queries; ++q) {
        server.TopK(static_cast<UserId>(q % cold_queries));
      }
      const double ms = hot_timer.ElapsedMillis() / hot_queries;
      cached_ms = b == 0 ? ms : std::min(cached_ms, ms);
    }

    const auto stats = server.stats();
    ServeResult r;
    r.num_items = num_items;
    r.cold_ms = cold_ms;
    r.cached_ms = cached_ms;
    r.speedup = cached_ms > 0.0 ? cold_ms / cached_ms : 0.0;
    results.push_back(r);
    std::printf(
        "items=%-6zu cold %8.4f ms/q (%9.0f qps)   cached %8.5f ms/q "
        "(%9.0f qps)   speedup %7.1fx   [hits=%llu misses=%llu]\n",
        num_items, cold_ms, 1e3 / cold_ms, cached_ms, 1e3 / cached_ms,
        r.speedup, static_cast<unsigned long long>(stats.hits),
        static_cast<unsigned long long>(stats.misses));

    // --- ANN probe-then-rerank: recall/latency curve over nprobe. -------
    // One spherical IVF build per size; every operating point is a cheap
    // nprobe clone injected into its own server, so the sweep measures
    // the serving miss path end to end (probe + exact re-rank + rank),
    // not the index in isolation. recall@10 is measured against the
    // brute-force oracle; the committed default point is what
    // scripts/check_bench.py gates (recall >= 0.95, >= 3x over the cold
    // sweep at >= 50k items).
    if (num_items >= 10000) {
      Timer build_timer;
      const auto base = SphericalIvfIndex::Build(model, num_items,
                                                 AnnIndexOptions{}, nullptr);
      AnnResult ar;
      ar.num_items = num_items;
      ar.index_dim = model.index_dim();
      ar.num_centroids = base->num_centroids();
      ar.build_ms = build_timer.ElapsedMillis();

      const size_t recall_users = fast ? 50 : 100;
      const auto oracle = OracleTopK(model, recall_users, num_items, kTopK);
      const size_t ann_queries = fast ? 50 : 200;
      const auto eval_point = [&](size_t nprobe) {
        return EvalAnnPoint(model, kUsers, num_items,
                            base->CloneWithNprobe(nprobe), oracle,
                            ann_queries, kBursts, cold_ms, kTopK);
      };

      ar.def = eval_point(base->nprobe());
      std::printf(
          "             ann default: ncent=%zu nprobe=%zu  build %7.1f ms  "
          "%8.4f ms/q  recall@%zu %.3f  %5.2fx vs cold\n",
          ar.num_centroids, ar.def.nprobe, ar.build_ms, ar.def.ms_per_query,
          kTopK, ar.def.recall_at_10, ar.def.speedup_vs_cold);
      // Brackets the auto default (ncent/2) from the old ncent/32 up to
      // the exact full-probe point (denom 1).
      for (const size_t denom : {32ul, 8ul, 4ul, 2ul, 1ul}) {
        const size_t nprobe =
            std::max<size_t>(1, ar.num_centroids / denom);
        if (!ar.sweep.empty() && ar.sweep.back().nprobe == nprobe) continue;
        ar.sweep.push_back(eval_point(nprobe));
        const AnnPoint& p = ar.sweep.back();
        std::printf(
            "             ann nprobe=%-4zu %8.4f ms/q  recall@%zu %.3f  "
            "%5.2fx vs cold\n",
            p.nprobe, p.ms_per_query, kTopK, p.recall_at_10,
            p.speedup_vs_cold);
      }
      ann_results.push_back(std::move(ar));
    }

    // --- Coalesced-batch serving: TopKBatch over B cold users vs B solo
    // cold sweeps. Dim 64, where one row's worth of loads feeds 64 FMAs
    // per user and sharing it across the batch pays for the extra live
    // accumulators (dim 32 hovers near the 1.5x bar on a noisy host, dim
    // 64 clears it with margin). The cache is disabled so every query is
    // a miss by construction, and TopKBatch is called directly — the
    // single-threaded deterministic entry into the multi-user sweep the
    // wire front-end uses, so the timing needs no thread choreography and
    // is comparable on a 1-core container. ---------------------------------
    if (num_items >= 10000) {
      Bpr bmodel(BprConfig{.dim = 64});
      TrainOptions btrain;
      btrain.epochs = 5;
      btrain.learning_rate = 0.05;
      btrain.seed = 43;
      bmodel.Fit(*dataset, btrain);

      for (const size_t batch : {2ul, 4ul, 8ul}) {
        TopKServerOptions bopts;
        bopts.k = kTopK;
        bopts.cache.max_users = 0;  // every query a guaranteed miss
        TopKServer solo_server(&bmodel, kUsers, num_items, bopts);
        TopKServer batch_server(&bmodel, kUsers, num_items, bopts);

        // Batch ≡ solo on the measured path: the per-model equivalence is
        // pinned by the tests; this guards the bench wiring itself.
        std::vector<UserId> sample(batch);
        for (size_t j = 0; j < batch; ++j) {
          sample[j] = static_cast<UserId>(j);
        }
        const std::vector<TopKResponse> sanity = batch_server.TopKBatch(sample);
        for (size_t j = 0; j < batch; ++j) {
          const TopKResponse want = solo_server.TopK(sample[j]);
          if (sanity[j].items != want.items ||
              sanity[j].scores != want.scores) {
            std::fprintf(stderr,
                         "batch/solo mismatch at items=%zu B=%zu user=%zu\n",
                         num_items, batch, static_cast<size_t>(sample[j]));
            return 1;
          }
        }

        const size_t groups = fast ? 8 : (num_items >= 200000 ? 8 : 25);
        std::vector<UserId> group_users(batch);
        double solo_ms = 0.0;
        double batch_ms = 0.0;
        for (size_t b = 0; b < kBursts; ++b) {
          Timer solo_timer;
          for (size_t g = 0; g < groups; ++g) {
            for (size_t j = 0; j < batch; ++j) {
              solo_server.TopK(static_cast<UserId>((g * batch + j) % kUsers));
            }
          }
          double ms = solo_timer.ElapsedMillis() / (groups * batch);
          solo_ms = b == 0 ? ms : std::min(solo_ms, ms);

          Timer batch_timer;
          for (size_t g = 0; g < groups; ++g) {
            for (size_t j = 0; j < batch; ++j) {
              group_users[j] =
                  static_cast<UserId>((g * batch + j) % kUsers);
            }
            batch_server.TopKBatch(group_users);
          }
          ms = batch_timer.ElapsedMillis() / (groups * batch);
          batch_ms = b == 0 ? ms : std::min(batch_ms, ms);
        }

        BatchServeResult br;
        br.num_items = num_items;
        br.batch = batch;
        br.solo_ms_per_user = solo_ms;
        br.batch_ms_per_user = batch_ms;
        br.speedup = batch_ms > 0.0 ? solo_ms / batch_ms : 0.0;
        batch_results.push_back(br);
        std::printf(
            "             coalesced batch B=%zu (dim 64): solo %8.4f "
            "ms/user   batched %8.4f ms/user   %5.2fx per user\n",
            batch, br.solo_ms_per_user, br.batch_ms_per_user, br.speedup);
      }
    }

    // --- Incremental re-sweep: AbsorbWrites with 1/8 of the item shards
    // dirty against a warm cache, measured per refreshed entry. ----------
    {
      TopKServer warm(&model, kUsers, num_items, opts);
      const size_t entries = fast ? 100 : 200;
      for (size_t u = 0; u < entries; ++u) {
        warm.TopK(static_cast<UserId>(u));
      }
      WriteTracker tracker(kUsers, num_items);
      const size_t total_shards = warm.num_item_shards();
      const size_t dirty_shards = (total_shards + 7) / 8;  // ≈ 1/8
      // Several publish rounds, best-of — a single round is one timed
      // call and too jitter-prone for the regression gate. Each round
      // re-marks the same shards; the model is unchanged, so every round
      // refreshes every entry through the exact-merge path.
      const size_t rounds = fast ? 3 : 7;
      double refresh_best = 0.0;
      for (size_t round = 0; round < rounds; ++round) {
        size_t marked = 0;
        for (ItemId v = 0; v < num_items && marked < dirty_shards; ++v) {
          if (tracker.ItemShardOf(v) == marked) {
            tracker.MarkItem(v);
            ++marked;
          }
        }
        Timer refresh_timer;
        warm.PublishEpoch(UnownedSnapshot<ItemScorer>(&model), &tracker);
        const double ms = refresh_timer.ElapsedMillis();
        refresh_best = round == 0 ? ms : std::min(refresh_best, ms);
      }
      const auto warm_stats = warm.stats();

      IncrementalResult inc;
      inc.num_items = num_items;
      inc.dirty_shards = dirty_shards;
      inc.total_shards = total_shards;
      inc.entries = entries;
      inc.refresh_ms_per_entry = refresh_best / entries;
      inc.cold_ms_per_query = cold_ms;
      inc.refresh_vs_cold =
          cold_ms > 0.0 ? inc.refresh_ms_per_entry / cold_ms : 0.0;
      incremental.push_back(inc);
      std::printf(
          "             incremental refresh: %zu/%zu shards dirty, "
          "%8.4f ms/entry (%llu refreshed) = %.3fx of a cold sweep\n",
          dirty_shards, total_shards, inc.refresh_ms_per_entry,
          static_cast<unsigned long long>(warm_stats.refreshed),
          inc.refresh_vs_cold);
    }

    // --- Multi-threaded QPS at the 10k catalog: hot/cold mix, racing a
    // background publisher that keeps absorbing a 1/8-dirty tracker. ----
    if (num_items == 10000) {
      mt_items = num_items;
      const size_t kHotSet = 64;
      // The hot set is spread over the id space, and so over the cache
      // stripes, like the wire benchmark's; the cold tail is every other
      // user.
      std::vector<UserId> hot(kUsers), cold;
      for (UserId u = 0; u < kUsers; ++u) hot[u] = u;
      Rng hot_rng(20210419);
      hot_rng.Shuffle(&hot);
      cold.assign(hot.begin() + kHotSet, hot.end());
      hot.resize(kHotSet);
      for (const size_t threads : {1u, 2u, 4u, 8u}) {
        TopKServerOptions mt_opts;
        mt_opts.k = kTopK;
        mt_opts.cache.max_users = 256;  // cold tail evicts constantly
        TopKServer mt_server(&model, kUsers, num_items, mt_opts);
        for (const UserId u : hot) mt_server.TopK(u);  // pre-warm

        std::atomic<bool> stop{false};
        std::thread publisher([&] {
          WriteTracker tracker(kUsers, num_items);
          while (!stop.load(std::memory_order_acquire)) {
            size_t marked = 0;
            const size_t total_shards = mt_server.num_item_shards();
            const size_t dirty = (total_shards + 7) / 8;
            for (ItemId v = 0; v < num_items && marked < dirty; ++v) {
              if (tracker.ItemShardOf(v) == marked) {
                tracker.MarkItem(v);
                ++marked;
              }
            }
            mt_server.PublishEpoch(UnownedSnapshot<ItemScorer>(&model),
                                   &tracker);
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
        });

        // Full mode serves a fixed count per thread. Fast mode serves for
        // a fixed wall time instead, long enough for ~50 publishes: a
        // fixed 20 000 queries took 16-20 ms at one thread, only a few
        // 5 ms publish periods, and the speedups read 0.17-0.93x.
        constexpr auto kFastMtRun = std::chrono::milliseconds(250);
        constexpr size_t kQueriesPerThread = 50000;
        std::atomic<bool> frontends_stop{false};
        std::vector<size_t> served(threads, 0);
        std::vector<std::thread> frontends;
        Timer mt_timer;
        for (size_t t = 0; t < threads; ++t) {
          frontends.emplace_back([&, t] {
            size_t q = 0;
            for (; fast ? !frontends_stop.load(std::memory_order_relaxed)
                        : q < kQueriesPerThread;
                 ++q) {
              // 90% hot working set (hits), 10% cold tail (miss+evict).
              const UserId u = q % 10 != 0
                                   ? hot[(q * 7 + t * 13) % kHotSet]
                                   : cold[(q * 11 + t * 17) % cold.size()];
              mt_server.TopK(u);
            }
            served[t] = q;
          });
        }
        if (fast) {
          std::this_thread::sleep_for(kFastMtRun);
          frontends_stop.store(true, std::memory_order_relaxed);
        }
        for (auto& th : frontends) th.join();
        const double elapsed_ms = mt_timer.ElapsedMillis();
        stop.store(true, std::memory_order_release);
        publisher.join();

        MtResult mr;
        mr.threads = threads;
        for (const size_t n : served) mr.served += n;
        mr.qps = elapsed_ms > 0.0 ? mr.served / (elapsed_ms / 1e3) : 0.0;
        mr.speedup_vs_1 =
            mt_results.empty() ? 1.0 : mr.qps / mt_results.front().qps;
        mt_results.push_back(mr);
        std::printf(
            "             mt qps @%zu threads: %10.0f q/s (%.2fx vs 1 "
            "thread, %llu served, publisher churning)\n",
            threads, mr.qps, mr.speedup_vs_1, mr.served);
      }
    }
  }

  // --- ANN on MARS: the paper's model ranks by Σ_k θ_uk·r_k·cos(u_k,
  // v_k), a weighted sum over four facet spaces that the IVF's 4-bit first
  // pass has to follow. Trained at the wire benchmark's cold-catalog shape
  // (K 4, dim 32, 20k users x 50k items, ten interactions per user, four
  // epochs; a quarter of the users and a fifth of the items in fast
  // mode), then served at the default nprobe and a few others against
  // the exact oracle. scripts/check_bench.py gates recall@10 >= 0.95 at
  // the default nprobe. -------------------------------------------------
  AnnResult mars_ann;
  double mars_cold_ms = 0.0;
  {
    const size_t users = fast ? 5000 : 20000;
    const size_t items = fast ? 10000 : 50000;
    SyntheticConfig dc;
    dc.num_users = users;
    dc.num_items = items;
    dc.target_interactions = users * 10;
    dc.num_facets = 4;
    dc.seed = 20210419;
    const auto data = GenerateSyntheticDataset(dc);
    MultiFacetConfig mc;
    mc.dim = 32;
    mc.num_facets = 4;
    Mars model(mc);
    TrainOptions to;
    to.epochs = 4;
    to.learning_rate = 0.3;
    to.seed = 20210419;
    to.num_threads = 1;
    model.Fit(*data, to);

    const size_t kBursts = 3;
    const size_t queries = fast ? 30 : 100;
    mars_cold_ms = ColdExactMs(model, users, items, queries, kBursts, kTopK);
    Timer build_timer;
    const auto base =
        SphericalIvfIndex::Build(model, items, AnnIndexOptions{}, nullptr);
    mars_ann.num_items = items;
    mars_ann.index_dim = model.index_dim();
    mars_ann.num_centroids = base->num_centroids();
    mars_ann.build_ms = build_timer.ElapsedMillis();
    const auto oracle = OracleTopK(model, fast ? 100 : 200, items, kTopK);
    const auto eval_point = [&](size_t nprobe) {
      return EvalAnnPoint(model, users, items, base->CloneWithNprobe(nprobe),
                          oracle, queries, kBursts, mars_cold_ms, kTopK);
    };
    mars_ann.def = eval_point(base->nprobe());
    std::printf(
        "\n  ann on MARS @%zu items (K 4, dim 32): cold %8.4f ms/q\n"
        "             ann default: ncent=%zu nprobe=%zu  build %7.1f ms  "
        "%8.4f ms/q  recall@%zu %.3f  %5.2fx vs cold\n",
        items, mars_cold_ms, mars_ann.num_centroids, mars_ann.def.nprobe,
        mars_ann.build_ms, mars_ann.def.ms_per_query, kTopK,
        mars_ann.def.recall_at_10, mars_ann.def.speedup_vs_cold);
    for (const size_t denom : {32ul, 8ul, 4ul}) {
      mars_ann.sweep.push_back(
          eval_point(std::max<size_t>(1, mars_ann.num_centroids / denom)));
      const AnnPoint& p = mars_ann.sweep.back();
      std::printf(
          "             ann nprobe=%-4zu %8.4f ms/q  recall@%zu %.3f  "
          "%5.2fx vs cold\n",
          p.nprobe, p.ms_per_query, kTopK, p.recall_at_10,
          p.speedup_vs_cold);
    }
  }

  // --- Restart at retrieval scale: the persisted index file vs a
  // from-scratch rebuild, to the first served query. The cold restart
  // pays k-means + full assignment over the catalog; the warm restart
  // mmaps the MRSI file (header/CRC validation included) and serves off
  // the borrowed arrays. The committed gate (scripts/check_bench.py
  // check_serve_ann): >= 5x at the million-item point, and recall@10 at
  // the default nprobe *equal* between built and mapped — the probes are
  // bit-identical, so any daylight between the two is a bug. -----------
  AnnRestartResult restart;
  {
    restart.num_items = fast ? 100000 : 1000000;
    const size_t kRestartUsers = 128;
    const UserId kProbeUser = 127;  // outside the recall sample
    RestartScorer rmodel(kRestartUsers, restart.num_items, 32, 11);

    Timer build_timer;
    auto built = SphericalIvfIndex::Build(rmodel, restart.num_items,
                                          AnnIndexOptions{}, nullptr);
    restart.build_ms = build_timer.ElapsedMillis();
    restart.num_centroids = built->num_centroids();

    const std::string index_path = "bench_serve_restart.annidx";
    Timer save_timer;
    if (!SaveCandidateIndex(*built, index_path)) {
      std::fprintf(stderr, "restart: cannot write %s\n", index_path.c_str());
      return 1;
    }
    restart.save_ms = save_timer.ElapsedMillis();
    struct stat st {};
    if (::stat(index_path.c_str(), &st) == 0) {
      restart.index_bytes = static_cast<unsigned long long>(st.st_size);
    }

    // Load repeatedly, best-of (page-cache-warm mmap + validation is the
    // steady-state restart cost, the min-over-repeats policy of the
    // sections above); the last mapping is the one served below.
    std::shared_ptr<const SphericalIvfIndex> mapped;
    for (size_t rep = 0; rep < 3; ++rep) {
      Timer load_timer;
      mapped = LoadCandidateIndexMapped(index_path, rmodel,
                                        restart.num_items);
      const double ms = load_timer.ElapsedMillis();
      if (mapped == nullptr) {
        std::fprintf(stderr, "restart: cannot map %s\n", index_path.c_str());
        return 1;
      }
      restart.load_ms =
          rep == 0 ? ms : std::min(restart.load_ms, ms);
    }

    TopKServerOptions ropts;
    ropts.k = kTopK;
    ropts.cache.max_users = kRestartUsers;
    ropts.ann.prebuilt = std::move(built);
    TopKServerOptions mopts = ropts;
    mopts.ann.prebuilt = mapped;
    TopKServer built_server(&rmodel, kRestartUsers, restart.num_items,
                            ropts);
    TopKServer mapped_server(&rmodel, kRestartUsers, restart.num_items,
                             mopts);
    Timer fq_built;
    built_server.TopK(kProbeUser);
    restart.first_query_built_ms = fq_built.ElapsedMillis();
    Timer fq_mapped;
    mapped_server.TopK(kProbeUser);
    restart.first_query_mapped_ms = fq_mapped.ElapsedMillis();
    restart.cold_restart_ms =
        restart.build_ms + restart.first_query_built_ms;
    restart.warm_restart_ms =
        restart.load_ms + restart.first_query_mapped_ms;
    restart.restart_speedup =
        restart.warm_restart_ms > 0.0
            ? restart.cold_restart_ms / restart.warm_restart_ms
            : 0.0;

    // Recall at the default nprobe against the brute-force oracle, for
    // both servers over the same sample — plus full response identity.
    const size_t recall_users = 32;
    std::vector<ItemId> all_ids(restart.num_items);
    for (ItemId v = 0; v < restart.num_items; ++v) all_ids[v] = v;
    std::vector<float> all_scores(restart.num_items);
    size_t hit_built = 0, hit_mapped = 0;
    for (UserId u = 0; u < recall_users; ++u) {
      rmodel.ScoreItems(u, all_ids, all_scores.data());
      std::vector<std::pair<float, ItemId>> ranked(restart.num_items);
      for (size_t i = 0; i < restart.num_items; ++i) {
        ranked[i] = {all_scores[i], all_ids[i]};
      }
      std::partial_sort(ranked.begin(), ranked.begin() + kTopK, ranked.end(),
                        [](const auto& a, const auto& b) {
                          return a.first > b.first ||
                                 (a.first == b.first && a.second < b.second);
                        });
      const TopKResponse from_built = built_server.TopK(u);
      const TopKResponse from_mapped = mapped_server.TopK(u);
      for (size_t i = 0; i < kTopK; ++i) {
        const ItemId v = ranked[i].second;
        if (std::find(from_built.items.begin(), from_built.items.end(), v) !=
            from_built.items.end()) {
          ++hit_built;
        }
        if (std::find(from_mapped.items.begin(), from_mapped.items.end(),
                      v) != from_mapped.items.end()) {
          ++hit_mapped;
        }
      }
      ++restart.responses_checked;
      if (from_built.items == from_mapped.items &&
          from_built.scores == from_mapped.scores) {
        ++restart.responses_identical;
      }
    }
    restart.recall_built =
        static_cast<double>(hit_built) / (kTopK * recall_users);
    restart.recall_mapped =
        static_cast<double>(hit_mapped) / (kTopK * recall_users);
    std::remove(index_path.c_str());

    std::printf(
        "\n  ann restart @%zu items (ncent=%zu, %.1f MiB file):\n"
        "    cold  build %9.1f ms + query %7.2f ms = %9.1f ms\n"
        "    warm  mmap  %9.3f ms + query %7.2f ms = %9.3f ms   "
        "(save %.1f ms)\n"
        "    speedup %.0fx   recall@%zu built %.4f mapped %.4f   "
        "%zu/%zu responses identical\n",
        restart.num_items, restart.num_centroids,
        restart.index_bytes / (1024.0 * 1024.0), restart.build_ms,
        restart.first_query_built_ms, restart.cold_restart_ms,
        restart.load_ms, restart.first_query_mapped_ms,
        restart.warm_restart_ms, restart.save_ms, restart.restart_speedup,
        kTopK, restart.recall_built, restart.recall_mapped,
        restart.responses_identical, restart.responses_checked);
  }

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"topk_serve\",\n");
  std::fprintf(out, "  \"host_cpus\": %u,\n", host_cpus);
  std::fprintf(out, "  \"fast_mode\": %s,\n", fast ? "true" : "false");
  std::fprintf(out, "  \"model\": {\"type\": \"BPR\", \"dim\": 32},\n");
  std::fprintf(out, "  \"k\": %zu,\n", kTopK);
  std::fprintf(out, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ServeResult& r = results[i];
    std::fprintf(out,
                 "    {\"num_items\": %zu, \"cold_ms_per_query\": %.6f, "
                 "\"cached_ms_per_query\": %.6f, \"cached_speedup\": %.2f}%s\n",
                 r.num_items, r.cold_ms, r.cached_ms, r.speedup,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  const auto point = [&](const AnnPoint& p) {
    std::fprintf(out,
                 "{\"nprobe\": %zu, \"ms_per_query\": %.6f, "
                 "\"recall_at_10\": %.4f, \"speedup_vs_cold\": %.2f}",
                 p.nprobe, p.ms_per_query, p.recall_at_10, p.speedup_vs_cold);
  };
  const auto ann_result = [&](const AnnResult& r) {
    std::fprintf(out,
                 "{\"num_items\": %zu, \"index\": \"spherical_ivf\", "
                 "\"index_dim\": %zu, \"num_centroids\": %zu, "
                 "\"build_ms\": %.3f,\n     \"default\": ",
                 r.num_items, r.index_dim, r.num_centroids, r.build_ms);
    point(r.def);
    std::fprintf(out, ",\n     \"sweep\": [\n");
    for (size_t j = 0; j < r.sweep.size(); ++j) {
      std::fprintf(out, "      ");
      point(r.sweep[j]);
      std::fprintf(out, "%s\n", j + 1 < r.sweep.size() ? "," : "");
    }
    std::fprintf(out, "     ]}");
  };
  std::fprintf(out, "  \"ann\": [\n");
  for (size_t i = 0; i < ann_results.size(); ++i) {
    std::fprintf(out, "    ");
    ann_result(ann_results[i]);
    std::fprintf(out, "%s\n", i + 1 < ann_results.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"ann_mars\": {\"model\": {\"type\": \"MARS\", "
               "\"num_facets\": 4, \"dim\": 32}, "
               "\"cold_ms_per_query\": %.6f,\n    \"index\": ",
               mars_cold_ms);
  ann_result(mars_ann);
  std::fprintf(out, "},\n");
  std::fprintf(
      out,
      "  \"ann_restart\": {\"num_items\": %zu, \"num_centroids\": %zu, "
      "\"index_bytes\": %llu,\n"
      "    \"build_ms\": %.3f, \"save_ms\": %.3f, \"load_ms\": %.3f,\n"
      "    \"first_query_built_ms\": %.3f, \"first_query_mapped_ms\": %.3f,\n"
      "    \"cold_restart_ms\": %.3f, \"warm_restart_ms\": %.3f, "
      "\"restart_speedup\": %.2f,\n"
      "    \"recall_built\": %.4f, \"recall_mapped\": %.4f, "
      "\"responses_checked\": %zu, \"responses_identical\": %zu},\n",
      restart.num_items, restart.num_centroids, restart.index_bytes,
      restart.build_ms, restart.save_ms, restart.load_ms,
      restart.first_query_built_ms, restart.first_query_mapped_ms,
      restart.cold_restart_ms, restart.warm_restart_ms,
      restart.restart_speedup, restart.recall_built, restart.recall_mapped,
      restart.responses_checked, restart.responses_identical);
  // Per-section host_cpus: the batch section is single-threaded by design
  // (its gate is armed even on 1-CPU hosts), but recording the cores the
  // section actually saw keeps every section's provenance self-contained.
  std::fprintf(out,
               "  \"batch\": {\"host_cpus\": %u, \"model\": "
               "{\"type\": \"BPR\", \"dim\": 64}, \"results\": [\n",
               host_cpus);
  for (size_t i = 0; i < batch_results.size(); ++i) {
    const BatchServeResult& r = batch_results[i];
    std::fprintf(out,
                 "    {\"num_items\": %zu, \"batch_size\": %zu, "
                 "\"solo_ms_per_user\": %.6f, \"batch_ms_per_user\": %.6f, "
                 "\"speedup_per_user\": %.3f}%s\n",
                 r.num_items, r.batch, r.solo_ms_per_user,
                 r.batch_ms_per_user, r.speedup,
                 i + 1 < batch_results.size() ? "," : "");
  }
  std::fprintf(out, "  ]},\n");
  std::fprintf(out, "  \"incremental\": [\n");
  for (size_t i = 0; i < incremental.size(); ++i) {
    const IncrementalResult& r = incremental[i];
    std::fprintf(
        out,
        "    {\"num_items\": %zu, \"dirty_shards\": %zu, "
        "\"total_shards\": %zu, \"entries\": %zu, "
        "\"refresh_ms_per_entry\": %.6f, \"cold_ms_per_query\": %.6f, "
        "\"refresh_vs_cold\": %.4f}%s\n",
        r.num_items, r.dirty_shards, r.total_shards, r.entries,
        r.refresh_ms_per_entry, r.cold_ms_per_query, r.refresh_vs_cold,
        i + 1 < incremental.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"mt\": {\"num_items\": %zu, \"host_cpus\": %u, "
               "\"results\": [\n",
               mt_items, host_cpus);
  for (size_t i = 0; i < mt_results.size(); ++i) {
    const MtResult& r = mt_results[i];
    std::fprintf(out,
                 "    {\"threads\": %zu, \"qps\": %.1f, "
                 "\"speedup_vs_1\": %.3f, \"served\": %llu}%s\n",
                 r.threads, r.qps, r.speedup_vs_1, r.served,
                 i + 1 < mt_results.size() ? "," : "");
  }
  std::fprintf(out, "  ]}\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
