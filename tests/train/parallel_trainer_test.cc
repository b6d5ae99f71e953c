#include "train/parallel_trainer.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/kernels.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/vec.h"
#include "core/mars.h"
#include "core/persistence.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "models/bpr.h"
#include "models/embedding.h"
#include "models/train_loop.h"
#include "opt/schedule.h"
#include "sampling/triplet_sampler.h"

namespace mars {
namespace {

std::shared_ptr<ImplicitDataset> SmallDataset(uint64_t seed = 21) {
  SyntheticConfig cfg;
  cfg.num_users = 60;
  cfg.num_items = 130;
  cfg.target_interactions = 800;
  cfg.seed = seed;
  return GenerateSyntheticDataset(cfg);
}

TEST(ParallelTrainerTest, WorkerSeedMatchesContract) {
  const uint64_t seed = 12345;
  for (size_t w = 0; w < 8; ++w) {
    uint64_t h = static_cast<uint64_t>(w);
    EXPECT_EQ(ParallelTrainer::WorkerSeed(seed, w), seed ^ SplitMix64(&h));
  }
  // Distinct workers must get distinct stream seeds.
  EXPECT_NE(ParallelTrainer::WorkerSeed(seed, 0),
            ParallelTrainer::WorkerSeed(seed, 1));
}

TEST(ParallelTrainerTest, SingleThreadedRunsInlineOnSerialRng) {
  Rng rng(7);
  Rng reference(7);
  ParallelTrainer trainer(/*num_threads=*/1, /*seed=*/7, &rng);
  EXPECT_EQ(trainer.num_workers(), 1u);

  std::vector<uint64_t> drawn;
  const std::thread::id caller = std::this_thread::get_id();
  trainer.RunEpoch(5, [&](size_t worker, Rng& r) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);  // inline, no pool
    EXPECT_EQ(&r, &rng);  // the model's own generator, same object
    drawn.push_back(r.Next());
  });
  ASSERT_EQ(drawn.size(), 5u);
  for (uint64_t v : drawn) EXPECT_EQ(v, reference.Next());
}

TEST(ParallelTrainerTest, RunEpochCoversAllStepsAcrossWorkers) {
  Rng rng(3);
  ParallelTrainer trainer(/*num_threads=*/4, /*seed=*/3, &rng);
  EXPECT_EQ(trainer.num_workers(), 4u);

  std::atomic<size_t> total{0};
  std::atomic<size_t> on_caller{0};
  std::vector<std::atomic<size_t>> per_worker(4);
  const std::thread::id caller = std::this_thread::get_id();
  // 1003 steps split 251/251/251/250 (non-divisible on purpose).
  trainer.RunEpoch(1003, [&](size_t worker, Rng&) {
    total.fetch_add(1);
    per_worker[worker].fetch_add(1);
    if (std::this_thread::get_id() == caller) on_caller.fetch_add(1);
  });
  EXPECT_EQ(total.load(), 1003u);
  EXPECT_EQ(on_caller.load(), 0u);  // every step ran on a pool worker
  EXPECT_EQ(per_worker[0].load(), 251u);
  EXPECT_EQ(per_worker[1].load(), 251u);
  EXPECT_EQ(per_worker[2].load(), 251u);
  EXPECT_EQ(per_worker[3].load(), 250u);
}

TEST(ParallelTrainerTest, WorkerStreamsDeterministicAcrossTrainers) {
  auto collect = [](size_t steps) {
    Rng rng(11);
    ParallelTrainer trainer(/*num_threads=*/3, /*seed=*/11, &rng);
    std::vector<std::vector<uint64_t>> draws(3);
    std::mutex mu;
    // Two epochs: streams must persist across RunEpoch calls.
    for (int epoch = 0; epoch < 2; ++epoch) {
      trainer.RunEpoch(steps, [&](size_t w, Rng& r) {
        const uint64_t v = r.Next();
        std::lock_guard<std::mutex> lock(mu);
        draws[w].push_back(v);
      });
    }
    return draws;
  };
  const auto a = collect(30);
  const auto b = collect(30);
  for (size_t w = 0; w < 3; ++w) {
    EXPECT_EQ(a[w], b[w]) << "worker " << w;
    // Per-worker draws are ordered within the worker (one thread per
    // worker), so cross-trainer equality means the streams are identical.
  }
  EXPECT_NE(a[0], a[1]);
  EXPECT_NE(a[1], a[2]);
}

// The load-bearing regression test: Bpr::Fit with num_threads=1 must
// reproduce the pre-refactor single-threaded training loop bit-for-bit.
// The reference below replicates that loop (same init order, same sampler,
// same update arithmetic) outside the ParallelTrainer machinery.
TEST(ParallelTrainerTest, BprSingleThreadMatchesSerialReferenceBitForBit) {
  const auto full = SmallDataset();
  const ImplicitDataset& train = *full;

  BprConfig config;
  config.dim = 16;
  TrainOptions options;
  options.epochs = 3;
  options.learning_rate = 0.1;
  options.seed = 99;
  options.num_threads = 1;

  // --- Reference: the historical inline epoch loop ----------------------
  const size_t d = config.dim;
  Rng rng(options.seed);
  Matrix ref_user(train.num_users(), d);
  Matrix ref_item(train.num_items(), d);
  InitEmbedding(&ref_user, &rng);
  InitEmbedding(&ref_item, &rng);
  std::vector<float> ref_bias(train.num_items(), 0.0f);
  const TripletSampler sampler(train, TripletUserMode::kUniformInteraction);
  const size_t steps = ResolveStepsPerEpoch(options, train);
  const float l2 = static_cast<float>(config.l2_reg);
  const LrSchedule schedule(options.learning_rate, options.epochs);
  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    const float lr = static_cast<float>(schedule.At(epoch));
    Triplet t;
    for (size_t s = 0; s < steps; ++s) {
      if (!sampler.Sample(&rng, &t)) continue;
      float* pu = ref_user.Row(t.user);
      float* qp = ref_item.Row(t.positive);
      float* qq = ref_item.Row(t.negative);
      float x = Dot(pu, qp, d) - Dot(pu, qq, d);
      x += ref_bias[t.positive] - ref_bias[t.negative];
      const float g = static_cast<float>(Sigmoid(-x));
      for (size_t i = 0; i < d; ++i) {
        const float pu_i = pu[i];
        pu[i] += lr * (g * (qp[i] - qq[i]) - l2 * pu_i);
        qp[i] += lr * (g * pu_i - l2 * qp[i]);
        qq[i] += lr * (-g * pu_i - l2 * qq[i]);
      }
      ref_bias[t.positive] += lr * (g - l2 * ref_bias[t.positive]);
      ref_bias[t.negative] += lr * (-g - l2 * ref_bias[t.negative]);
    }
  }

  // --- Model under test --------------------------------------------------
  Bpr model(config);
  model.Fit(train, options);

  for (UserId u = 0; u < train.num_users(); ++u) {
    for (size_t i = 0; i < d; ++i) {
      ASSERT_EQ(model.user_factors().Row(u)[i], ref_user.Row(u)[i])
          << "user " << u << " dim " << i;
    }
  }
  for (ItemId v = 0; v < train.num_items(); ++v) {
    for (size_t i = 0; i < d; ++i) {
      ASSERT_EQ(model.item_factors().Row(v)[i], ref_item.Row(v)[i])
          << "item " << v << " dim " << i;
    }
  }
  // Score includes the item bias — bit-equality covers it too.
  for (ItemId v = 0; v < train.num_items(); ++v) {
    ASSERT_EQ(model.Score(0, v), Dot(model.user_factors().Row(0),
                                     ref_item.Row(v), d) +
                                     ref_bias[v]);
  }
}

TEST(ParallelTrainerTest, MarsSingleThreadIsDeterministic) {
  const auto full = SmallDataset(5);
  MultiFacetConfig cfg;
  cfg.dim = 8;
  cfg.num_facets = 2;
  cfg.theta_init_nmf = false;
  TrainOptions options;
  options.epochs = 2;
  options.seed = 17;
  options.num_threads = 1;

  Mars a(cfg), b(cfg);
  a.Fit(*full, options);
  b.Fit(*full, options);
  for (UserId u = 0; u < full->num_users(); ++u) {
    for (size_t k = 0; k < cfg.num_facets; ++k) {
      EXPECT_EQ(a.UserFacetEmbedding(u, k), b.UserFacetEmbedding(u, k));
    }
  }
  for (ItemId v = 0; v < full->num_items(); ++v) {
    EXPECT_EQ(a.Score(0, v), b.Score(0, v));
  }
}

// CRC-32 of the SaveMarsV3 bytes of one seeded single-thread fit.
uint32_t MarsFitDigest(const ImplicitDataset& data, MultiFacetConfig cfg,
                       MarsOptions mars_options, const std::string& tag) {
  TrainOptions options;
  options.epochs = 3;
  options.seed = 20210419;
  options.num_threads = 1;
  Mars model(cfg, mars_options);
  model.Fit(data, options);
  const std::string path = ::testing::TempDir() + "/mars_golden_" + tag +
                           ".bin";
  EXPECT_TRUE(SaveMarsV3(model, path));
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  EXPECT_FALSE(bytes.empty());
  return Crc32(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
}

// Pins the trained floats of serial MARS bit for bit, so a rewrite of the
// step (reduction order, fused norms, vectorized element-wise loops) that
// changes any rounding fails here. The digests were recorded on x86-64
// with glibc's exp (Softmax, Sigmoid and the NMF init call it): another
// architecture or libm may round differently, so the check runs on
// x86-64 Linux only. Three shapes: wirebench's K 4, d 32; K 3, d 30 with
// a tight clip (odd facet-pair count, scalar tails, rescaled rows); and
// uncalibrated steps with learned radii.
TEST(ParallelTrainerTest, MarsFitGoldenDigestPinsTrainedBytes) {
#if !defined(__x86_64__) || !defined(__GLIBC__)
  GTEST_SKIP() << "digests pin x86-64 with glibc exp";
#endif
  SyntheticConfig data_cfg;
  data_cfg.num_users = 300;
  data_cfg.num_items = 400;
  data_cfg.target_interactions = 4000;
  data_cfg.seed = 20210419;
  const auto data = GenerateSyntheticDataset(data_cfg);

  MultiFacetConfig wide;
  EXPECT_EQ(MarsFitDigest(*data, wide, MarsOptions{}, "k4d32"), 2572284827u);

  MultiFacetConfig tails;
  tails.num_facets = 3;
  tails.dim = 30;
  tails.grad_clip = 0.05;
  EXPECT_EQ(MarsFitDigest(*data, tails, MarsOptions{}, "k3d30"), 4009130427u);

  EXPECT_EQ(MarsFitDigest(*data, wide,
                          MarsOptions{.calibrated = false,
                                      .learn_radius = true},
                          "radius"),
            1305090203u);
}

TEST(ParallelTrainerTest, MarsParallelTrainingProducesValidModel) {
  const auto full = SmallDataset(9);
  const LeaveOneOutSplit split = MakeLeaveOneOutSplit(*full, 2);

  MultiFacetConfig cfg;
  cfg.dim = 8;
  cfg.num_facets = 2;
  cfg.theta_init_nmf = false;
  TrainOptions options;
  options.epochs = 4;
  options.seed = 23;
  options.num_threads = 4;

  Mars model(cfg);
  model.Fit(*split.train, options);

  // Each individual FusedRiemannianSgdStep retracts onto the sphere, but
  // Hogwild workers may interleave element-wise writes to the same row, so
  // a final row can be an element mix of two unit vectors: ||row||² is
  // bounded in (0, 2] per torn write, not exactly 1. Assert finiteness and
  // that bound rather than exact unit norm (which would be flaky on real
  // multi-core hardware).
  for (UserId u = 0; u < split.train->num_users(); ++u) {
    for (size_t k = 0; k < cfg.num_facets; ++k) {
      const auto e = model.UserFacetEmbedding(u, k);
      float n2 = 0.0f;
      for (float x : e) {
        ASSERT_TRUE(std::isfinite(x));
        n2 += x * x;
      }
      ASSERT_GT(n2, 0.01f) << "user " << u << " facet " << k;
      ASSERT_LT(n2, 4.0f) << "user " << u << " facet " << k;
    }
  }
  for (ItemId v = 0; v < split.train->num_items(); ++v) {
    ASSERT_TRUE(std::isfinite(model.Score(0, v)));
  }
}

TEST(ParallelTrainerTest, MarsMultiThreadFitWithDevEvalStopsWithoutDeadlock) {
  const auto full = SmallDataset(13);
  const LeaveOneOutSplit split = MakeLeaveOneOutSplit(*full, 2);
  const Evaluator dev(*split.train, split.dev_item, EvalProtocol{});

  MultiFacetConfig cfg;
  cfg.dim = 8;
  cfg.num_facets = 2;
  cfg.theta_init_nmf = false;
  TrainOptions options;
  options.epochs = 12;
  options.seed = 29;
  options.num_threads = 2;
  options.eval_every = 1;
  options.patience = 1;
  options.dev_evaluator = &dev;
  ThreadPool eval_pool(2);
  options.eval_pool = &eval_pool;

  Mars model(cfg);
  model.Fit(*split.train, options);  // must not deadlock or crash

  const RankingMetrics m = dev.Evaluate(model, &eval_pool);
  EXPECT_GT(m.users_evaluated, 0u);
  EXPECT_TRUE(std::isfinite(m.hr10));
}

}  // namespace
}  // namespace mars
