// Contract tests every model in the zoo must satisfy: trains without
// crashing, produces finite deterministic scores, batch scoring matches
// pointwise scoring, beats random ranking, and parallel evaluation agrees
// with serial evaluation (every model's scoring is reentrant).
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "data/split.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "exp/model_zoo.h"

namespace mars {
namespace {

constexpr double kChanceHr10 = 10.0 / 101.0;

class ModelContract : public ::testing::TestWithParam<ModelId> {
 protected:
  static void SetUpTestSuite() {
    SyntheticConfig cfg;
    cfg.num_users = 120;
    cfg.num_items = 150;
    cfg.target_interactions = 2200;
    cfg.num_facets = 3;
    cfg.num_categories = 9;
    cfg.seed = 55;
    full_ = GenerateSyntheticDataset(cfg);
    split_ = new LeaveOneOutSplit(MakeLeaveOneOutSplit(*full_, 5));
    evaluator_ = new Evaluator(*split_->train, split_->test_item,
                               EvalProtocol{});
  }
  static void TearDownTestSuite() {
    delete evaluator_;
    evaluator_ = nullptr;
    delete split_;
    split_ = nullptr;
    full_.reset();
  }

  static std::shared_ptr<ImplicitDataset> full_;
  static LeaveOneOutSplit* split_;
  static Evaluator* evaluator_;
};

std::shared_ptr<ImplicitDataset> ModelContract::full_;
LeaveOneOutSplit* ModelContract::split_ = nullptr;
Evaluator* ModelContract::evaluator_ = nullptr;

TEST_P(ModelContract, TrainsAndProducesFiniteScores) {
  ZooOverrides ov;
  ov.dim = 16;
  auto model = MakeModel(GetParam(), ov);
  model->Fit(*split_->train, HarnessTrainOptions(GetParam(), /*fast=*/true));
  for (UserId u = 0; u < 10; ++u) {
    for (ItemId v = 0; v < 10; ++v) {
      EXPECT_TRUE(std::isfinite(model->Score(u, v)))
          << ModelName(GetParam()) << " (" << u << "," << v << ")";
    }
  }
}

TEST_P(ModelContract, BatchScoringMatchesPointwise) {
  ZooOverrides ov;
  ov.dim = 16;
  auto model = MakeModel(GetParam(), ov);
  model->Fit(*split_->train, HarnessTrainOptions(GetParam(), true));
  const std::vector<ItemId> items = {0, 3, 7, 31, 64, 149};
  std::vector<float> batch(items.size());
  model->ScoreItems(4, items, batch.data());
  for (size_t i = 0; i < items.size(); ++i) {
    EXPECT_NEAR(batch[i], model->Score(4, items[i]), 1e-5f)
        << ModelName(GetParam());
  }
}

TEST_P(ModelContract, DeterministicAcrossRefits) {
  ZooOverrides ov;
  ov.dim = 16;
  TrainOptions opts = HarnessTrainOptions(GetParam(), true);
  opts.epochs = 2;
  auto a = MakeModel(GetParam(), ov);
  auto b = MakeModel(GetParam(), ov);
  a->Fit(*split_->train, opts);
  b->Fit(*split_->train, opts);
  for (UserId u = 0; u < 5; ++u) {
    for (ItemId v = 0; v < 5; ++v) {
      EXPECT_FLOAT_EQ(a->Score(u, v), b->Score(u, v))
          << ModelName(GetParam());
    }
  }
}

TEST_P(ModelContract, BeatsRandomRanking) {
  ZooOverrides ov;
  ov.dim = 16;
  auto model = MakeModel(GetParam(), ov);
  // Full (non-fast) budget so even the slow learners converge.
  TrainOptions opts = HarnessTrainOptions(GetParam(), false);
  opts.epochs = std::min<size_t>(opts.epochs, 15);
  model->Fit(*split_->train, opts);
  EXPECT_GT(evaluator_->Evaluate(*model).hr10, kChanceHr10 * 1.2)
      << ModelName(GetParam());
}

TEST_P(ModelContract, ParallelEvaluationMatchesSerial) {
  ZooOverrides ov;
  ov.dim = 16;
  auto model = MakeModel(GetParam(), ov);
  model->Fit(*split_->train, HarnessTrainOptions(GetParam(), true));
  ThreadPool pool(3);
  const RankingMetrics serial = evaluator_->Evaluate(*model);
  const RankingMetrics parallel = evaluator_->Evaluate(*model, &pool);
  EXPECT_DOUBLE_EQ(serial.hr10, parallel.hr10) << ModelName(GetParam());
  EXPECT_DOUBLE_EQ(serial.ndcg20, parallel.ndcg20) << ModelName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ModelContract, ::testing::ValuesIn(AllModels()),
    [](const ::testing::TestParamInfo<ModelId>& info) {
      return ModelName(info.param);
    });

TEST(TunedSettingsTest, OverridesRespectDatasets) {
  // Ciao is tuned to K=2 for the multi-facet models; baselines untouched.
  EXPECT_EQ(TunedOverrides(ModelId::kMars, BenchmarkId::kCiao).num_facets,
            2u);
  EXPECT_EQ(TunedOverrides(ModelId::kMars, BenchmarkId::kMl1m).num_facets,
            4u);
  EXPECT_EQ(TunedOverrides(ModelId::kCml, BenchmarkId::kCiao).num_facets, 0u);
}

TEST(TunedSettingsTest, TunedEpochsExtendOnSparseSets) {
  EXPECT_GT(
      TunedTrainOptions(ModelId::kMars, BenchmarkId::kCiao, false).epochs,
      TunedTrainOptions(ModelId::kMars, BenchmarkId::kMl1m, false).epochs);
  // Fast mode stays fast regardless of dataset.
  EXPECT_LE(TunedTrainOptions(ModelId::kMars, BenchmarkId::kCiao, true).epochs,
            12u);
}

}  // namespace
}  // namespace mars
