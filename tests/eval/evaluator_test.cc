#include "eval/evaluator.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "data/split.h"

namespace mars {
namespace {

/// Scores items by a fixed per-item value.
class FixedScorer : public ItemScorer {
 public:
  explicit FixedScorer(std::vector<float> values)
      : values_(std::move(values)) {}
  float Score(UserId, ItemId v) const override { return values_[v]; }

 private:
  std::vector<float> values_;
};

/// An oracle that knows each user's held-out item.
class OracleScorer : public ItemScorer {
 public:
  explicit OracleScorer(const std::vector<int64_t>& targets)
      : targets_(targets) {}
  float Score(UserId u, ItemId v) const override {
    return targets_[u] == static_cast<int64_t>(v) ? 1.0f : 0.0f;
  }

 private:
  const std::vector<int64_t>& targets_;
};

struct EvalFixture {
  std::shared_ptr<ImplicitDataset> full;
  LeaveOneOutSplit split;

  EvalFixture() {
    SyntheticConfig cfg;
    cfg.num_users = 120;
    cfg.num_items = 300;
    cfg.target_interactions = 1500;
    cfg.seed = 21;
    full = GenerateSyntheticDataset(cfg);
    split = MakeLeaveOneOutSplit(*full, 3);
  }
};

TEST(EvaluatorTest, OracleGetsPerfectScores) {
  EvalFixture f;
  Evaluator eval(*f.split.train, f.split.test_item, EvalProtocol{});
  OracleScorer oracle(f.split.test_item);
  const RankingMetrics m = eval.Evaluate(oracle);
  EXPECT_DOUBLE_EQ(m.hr10, 1.0);
  EXPECT_DOUBLE_EQ(m.hr20, 1.0);
  EXPECT_DOUBLE_EQ(m.ndcg10, 1.0);
  EXPECT_GT(m.users_evaluated, 100u);
}

TEST(EvaluatorTest, AntiOracleGetsZero) {
  EvalFixture f;
  Evaluator eval(*f.split.train, f.split.test_item, EvalProtocol{});
  // Scores the target at the bottom.
  class AntiOracle : public ItemScorer {
   public:
    explicit AntiOracle(const std::vector<int64_t>& t) : targets_(t) {}
    float Score(UserId u, ItemId v) const override {
      return targets_[u] == static_cast<int64_t>(v) ? -1.0f : 1.0f;
    }
    const std::vector<int64_t>& targets_;
  } anti(f.split.test_item);
  const RankingMetrics m = eval.Evaluate(anti);
  EXPECT_DOUBLE_EQ(m.hr20, 0.0);
  EXPECT_DOUBLE_EQ(m.ndcg20, 0.0);
}

TEST(EvaluatorTest, RandomScorerNearChance) {
  EvalFixture f;
  EvalProtocol protocol;
  protocol.num_negatives = 100;
  Evaluator eval(*f.split.train, f.split.test_item, protocol);
  // Item-id hash as pseudo-random score: target lands uniformly among 101.
  class HashScorer : public ItemScorer {
   public:
    float Score(UserId u, ItemId v) const override {
      uint64_t h = (static_cast<uint64_t>(u) << 32) | v;
      h ^= h >> 33;
      h *= 0xFF51AFD7ED558CCDULL;
      h ^= h >> 33;
      return static_cast<float>(h % 100003) / 100003.0f;
    }
  } hash_scorer;
  const RankingMetrics m = eval.Evaluate(hash_scorer);
  // Chance HR@10 = 10/101 ≈ 0.099. Allow generous tolerance for 100+ users.
  EXPECT_NEAR(m.hr10, 10.0 / 101.0, 0.08);
  EXPECT_NEAR(m.hr20, 20.0 / 101.0, 0.10);
}

TEST(EvaluatorTest, DeterministicAcrossCalls) {
  EvalFixture f;
  Evaluator eval(*f.split.train, f.split.test_item, EvalProtocol{});
  FixedScorer scorer([] {
    std::vector<float> v(300);
    for (size_t i = 0; i < v.size(); ++i)
      v[i] = static_cast<float>((i * 2654435761u) % 1000);
    return v;
  }());
  const RankingMetrics a = eval.Evaluate(scorer);
  const RankingMetrics b = eval.Evaluate(scorer);
  EXPECT_DOUBLE_EQ(a.hr10, b.hr10);
  EXPECT_DOUBLE_EQ(a.ndcg20, b.ndcg20);
}

TEST(EvaluatorTest, ParallelMatchesSerial) {
  EvalFixture f;
  Evaluator eval(*f.split.train, f.split.test_item, EvalProtocol{});
  FixedScorer scorer([] {
    std::vector<float> v(300);
    for (size_t i = 0; i < v.size(); ++i)
      v[i] = static_cast<float>((i * 40503u) % 997);
    return v;
  }());
  ThreadPool pool(4);
  const RankingMetrics serial = eval.Evaluate(scorer);
  const RankingMetrics parallel = eval.Evaluate(scorer, &pool);
  EXPECT_DOUBLE_EQ(serial.hr10, parallel.hr10);
  EXPECT_DOUBLE_EQ(serial.ndcg10, parallel.ndcg10);
  EXPECT_DOUBLE_EQ(serial.hr20, parallel.hr20);
}

TEST(EvaluatorTest, SkipsUsersWithoutHeldout) {
  EvalFixture f;
  std::vector<int64_t> sparse_targets(f.split.test_item);
  for (size_t u = 0; u < sparse_targets.size(); u += 2) {
    sparse_targets[u] = LeaveOneOutSplit::kNoItem;
  }
  Evaluator eval(*f.split.train, sparse_targets, EvalProtocol{});
  size_t expected = 0;
  for (int64_t t : sparse_targets) {
    if (t >= 0) ++expected;
  }
  EXPECT_EQ(eval.NumEvalUsers(), expected);
}

TEST(EvaluatorTest, RankOfOracleIsZero) {
  EvalFixture f;
  Evaluator eval(*f.split.train, f.split.test_item, EvalProtocol{});
  OracleScorer oracle(f.split.test_item);
  for (UserId u = 0; u < f.full->num_users(); ++u) {
    if (f.split.test_item[u] < 0) continue;
    EXPECT_EQ(eval.RankOf(oracle, u), 0u);
  }
}

TEST(EvaluatorTest, TiesCountAsHalf) {
  // All scores identical → rank = num_negatives / 2.
  EvalFixture f;
  EvalProtocol protocol;
  protocol.num_negatives = 100;
  Evaluator eval(*f.split.train, f.split.test_item, protocol);
  FixedScorer constant(std::vector<float>(300, 1.0f));
  for (UserId u = 0; u < f.full->num_users(); ++u) {
    if (f.split.test_item[u] < 0) continue;
    EXPECT_EQ(eval.RankOf(constant, u), 50u);
    break;  // one user suffices
  }
}

TEST(EvaluatorTest, GroupedEvaluationPartitionsUsers) {
  EvalFixture f;
  Evaluator eval(*f.split.train, f.split.test_item, EvalProtocol{});
  OracleScorer oracle(f.split.test_item);
  // Split users into 3 groups round-robin.
  std::vector<int> group(f.full->num_users());
  for (size_t u = 0; u < group.size(); ++u) group[u] = static_cast<int>(u % 3);
  const auto grouped = eval.EvaluateGrouped(oracle, group, 3);
  ASSERT_EQ(grouped.size(), 3u);
  size_t total = 0;
  for (const auto& g : grouped) {
    total += g.users_evaluated;
    if (g.users_evaluated > 0) {
      EXPECT_DOUBLE_EQ(g.hr10, 1.0);  // oracle is perfect in every group
    }
  }
  EXPECT_EQ(total, eval.NumEvalUsers());
}

TEST(EvaluatorTest, GroupedEvaluationSkipsNegativeGroups) {
  EvalFixture f;
  Evaluator eval(*f.split.train, f.split.test_item, EvalProtocol{});
  OracleScorer oracle(f.split.test_item);
  std::vector<int> group(f.full->num_users(), -1);
  group[0] = 0;  // only user 0 participates (if evaluated)
  const auto grouped = eval.EvaluateGrouped(oracle, group, 1);
  EXPECT_LE(grouped[0].users_evaluated, 1u);
}

TEST(EvaluatorTest, GroupedMatchesUngroupedWhenSingleGroup) {
  EvalFixture f;
  Evaluator eval(*f.split.train, f.split.test_item, EvalProtocol{});
  FixedScorer scorer([] {
    std::vector<float> v(300);
    for (size_t i = 0; i < v.size(); ++i)
      v[i] = static_cast<float>((i * 2654435761u) % 1000);
    return v;
  }());
  const std::vector<int> all_zero(f.full->num_users(), 0);
  const auto grouped = eval.EvaluateGrouped(scorer, all_zero, 1);
  const RankingMetrics whole = eval.Evaluate(scorer);
  EXPECT_DOUBLE_EQ(grouped[0].hr10, whole.hr10);
  EXPECT_DOUBLE_EQ(grouped[0].ndcg20, whole.ndcg20);
  EXPECT_EQ(grouped[0].users_evaluated, whole.users_evaluated);
}

}  // namespace
}  // namespace mars
