#include "models/train_loop.h"

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"

namespace mars {
namespace {

/// Scorer whose quality is controlled by a counter: improves for the first
/// `improving_epochs` epochs, then plateaus. Lets us test early stopping
/// deterministically.
class ControlledScorer : public ItemScorer {
 public:
  ControlledScorer(const std::vector<int64_t>& targets, size_t improving)
      : targets_(targets), improving_(improving) {}

  void Advance() { epoch_ = std::min(epoch_ + 1, improving_); }

  float Score(UserId u, ItemId v) const override {
    // The target item's score grows with training progress; others are
    // item-hash noise.
    if (targets_[u] == static_cast<int64_t>(v)) {
      return static_cast<float>(epoch_) / static_cast<float>(improving_);
    }
    const uint32_t h = (u * 2654435761u) ^ (v * 40503u);
    return static_cast<float>(h % 1000) / 1000.0f * 0.5f;
  }

 private:
  const std::vector<int64_t>& targets_;
  size_t improving_;
  size_t epoch_ = 0;
};

struct LoopFixture {
  std::shared_ptr<ImplicitDataset> full;
  LeaveOneOutSplit split;

  LoopFixture() {
    SyntheticConfig cfg;
    cfg.num_users = 80;
    cfg.num_items = 150;
    cfg.target_interactions = 900;
    cfg.seed = 77;
    full = GenerateSyntheticDataset(cfg);
    split = MakeLeaveOneOutSplit(*full, 3);
  }
};

TEST(TrainLoopTest, RunsAllEpochsWithoutEvaluator) {
  LoopFixture f;
  ControlledScorer scorer(f.split.dev_item, 100);
  TrainOptions opts;
  opts.epochs = 7;
  size_t count = 0;
  const size_t run = RunTrainingLoop(opts, scorer, "test",
                                     [&](size_t, double) { ++count; });
  EXPECT_EQ(run, 7u);
  EXPECT_EQ(count, 7u);
}

TEST(TrainLoopTest, EarlyStoppingTriggersOnPlateau) {
  LoopFixture f;
  Evaluator dev(*f.split.train, f.split.dev_item, EvalProtocol{});
  ControlledScorer scorer(f.split.dev_item, 4);  // improves 4 epochs
  TrainOptions opts;
  opts.epochs = 40;
  opts.eval_every = 1;
  opts.patience = 2;
  opts.dev_evaluator = &dev;
  const size_t run = RunTrainingLoop(
      opts, scorer, "test", [&](size_t, double) { scorer.Advance(); });
  // Improvement stops at epoch 4; patience 2 → stop by epoch ~7.
  EXPECT_LT(run, 10u);
  EXPECT_GE(run, 4u);
}

TEST(TrainLoopTest, LearningRatePassedFollowsSchedule) {
  LoopFixture f;
  ControlledScorer scorer(f.split.dev_item, 100);
  TrainOptions opts;
  opts.epochs = 10;
  opts.learning_rate = 1.0;
  std::vector<double> rates;
  RunTrainingLoop(opts, scorer, "test",
                  [&](size_t, double lr) { rates.push_back(lr); });
  ASSERT_EQ(rates.size(), 10u);
  EXPECT_DOUBLE_EQ(rates[0], 1.0);
  for (size_t i = 1; i < rates.size(); ++i) {
    EXPECT_LE(rates[i], rates[i - 1]);
  }
}

TEST(TrainLoopTest, ResolveStepsDefaultsToInteractions) {
  LoopFixture f;
  TrainOptions opts;
  EXPECT_EQ(ResolveStepsPerEpoch(opts, *f.split.train),
            f.split.train->num_interactions());
  opts.steps_per_epoch = 123;
  EXPECT_EQ(ResolveStepsPerEpoch(opts, *f.split.train), 123u);
}

TEST(TrainLoopTest, MultiThreadDevEvalStopsOnPlateauWithoutDeadlock) {
  // num_threads > 1 with a dev evaluator runs the one protocol: evaluate
  // between epochs, stop on the plateau, never deadlock.
  LoopFixture f;
  Evaluator dev(*f.split.train, f.split.dev_item, EvalProtocol{});
  ControlledScorer scorer(f.split.dev_item, 4);
  TrainOptions opts;
  opts.epochs = 40;
  opts.eval_every = 1;
  opts.patience = 2;
  opts.dev_evaluator = &dev;
  opts.num_threads = 4;
  const size_t run = RunTrainingLoop(
      opts, scorer, "test", [&](size_t, double) { scorer.Advance(); });
  EXPECT_LT(run, 10u);
  EXPECT_GE(run, 4u);
}

TEST(TrainLoopTest, EpochCallbackFiresOncePerEpochSynchronous) {
  LoopFixture f;
  ControlledScorer scorer(f.split.dev_item, 100);
  TrainOptions opts;
  opts.epochs = 5;
  std::vector<size_t> seen;
  opts.epoch_callback = [&](size_t epoch) { seen.push_back(epoch); };
  const size_t run =
      RunTrainingLoop(opts, scorer, "test", [&](size_t, double) {});
  EXPECT_EQ(run, 5u);
  EXPECT_EQ(seen, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(TrainLoopTest, NoEarlyStopOnFinalEpoch) {
  // Even with an evaluator, the loop runs at most `epochs` epochs and the
  // final epoch does not trigger a redundant dev evaluation crash.
  LoopFixture f;
  Evaluator dev(*f.split.train, f.split.dev_item, EvalProtocol{});
  ControlledScorer scorer(f.split.dev_item, 100);
  TrainOptions opts;
  opts.epochs = 3;
  opts.eval_every = 1;
  opts.patience = 99;
  opts.dev_evaluator = &dev;
  const size_t run = RunTrainingLoop(
      opts, scorer, "test", [&](size_t, double) { scorer.Advance(); });
  EXPECT_EQ(run, 3u);
}

}  // namespace
}  // namespace mars
