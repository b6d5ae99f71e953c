#include "eval/evaluator.h"

#include <algorithm>
#include <atomic>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace mars {

Evaluator::Evaluator(
    const ImplicitDataset& train, const std::vector<int64_t>& heldout,
    EvalProtocol protocol,
    const std::vector<const std::vector<int64_t>*>& also_exclude)
    : num_negatives_(protocol.num_negatives) {
  MARS_CHECK(heldout.size() == train.num_users());
  MARS_CHECK(num_negatives_ > 0);
  const size_t n_items = train.num_items();
  MARS_CHECK(n_items > num_negatives_);

  Rng rng(protocol.seed);
  case_of_user_.assign(train.num_users(), -1);

  for (UserId u = 0; u < train.num_users(); ++u) {
    if (heldout[u] < 0) continue;
    const ItemId target = static_cast<ItemId>(heldout[u]);

    auto excluded = [&](ItemId v) {
      if (v == target) return true;
      if (train.HasInteraction(u, v)) return true;
      for (const auto* extra : also_exclude) {
        if (extra != nullptr && (*extra)[u] >= 0 &&
            static_cast<ItemId>((*extra)[u]) == v)
          return true;
      }
      return false;
    };

    UserCase c;
    c.user = u;
    c.target = target;
    c.candidate_offset = candidates_.size();
    size_t drawn = 0;
    size_t attempts = 0;
    const size_t max_attempts = num_negatives_ * 64 + 1024;
    while (drawn < num_negatives_ && attempts < max_attempts) {
      ++attempts;
      const ItemId v = static_cast<ItemId>(rng.UniformInt(n_items));
      if (excluded(v)) continue;
      candidates_.push_back(v);
      ++drawn;
    }
    // Candidates may repeat (sampling with replacement), matching the
    // standard protocol; a failure to fill the quota can only happen on
    // degenerate toy data, in which case the user is skipped.
    if (drawn < num_negatives_) {
      candidates_.resize(c.candidate_offset);
      continue;
    }
    case_of_user_[u] = static_cast<int64_t>(eval_users_.size());
    eval_users_.push_back(c);
  }
}

size_t Evaluator::RankCase(const ItemScorer& scorer,
                           const UserCase& c) const {
  // Score target + candidates in one batch call. RankCase runs inside
  // ParallelFor and once per eval user, so the scratch is thread_local to
  // keep the ranking loop allocation-free after warm-up.
  thread_local std::vector<ItemId> items;
  thread_local std::vector<float> scores;
  items.resize(num_negatives_ + 1);
  scores.resize(num_negatives_ + 1);
  items[0] = c.target;
  std::copy(candidates_.begin() + c.candidate_offset,
            candidates_.begin() + c.candidate_offset + num_negatives_,
            items.begin() + 1);
  scorer.ScoreItems(c.user, items, scores.data());

  const float target_score = scores[0];
  size_t higher = 0;
  size_t ties = 0;
  for (size_t i = 1; i < scores.size(); ++i) {
    if (scores[i] > target_score) {
      ++higher;
    } else if (scores[i] == target_score) {
      ++ties;
    }
  }
  return higher + ties / 2;
}

RankingMetrics Evaluator::Evaluate(const ItemScorer& scorer,
                                   ThreadPool* pool) const {
  RankingMetrics m;
  if (eval_users_.empty()) return m;

  std::vector<size_t> ranks(eval_users_.size());
  if (pool != nullptr) {
    pool->ParallelFor(eval_users_.size(), [&](size_t i) {
      ranks[i] = RankCase(scorer, eval_users_[i]);
    });
  } else {
    for (size_t i = 0; i < eval_users_.size(); ++i) {
      ranks[i] = RankCase(scorer, eval_users_[i]);
    }
  }

  for (size_t rank : ranks) {
    m.hr10 += HitAt(rank, 10);
    m.hr20 += HitAt(rank, 20);
    m.ndcg10 += NdcgAt(rank, 10);
    m.ndcg20 += NdcgAt(rank, 20);
  }
  const double n = static_cast<double>(eval_users_.size());
  m.hr10 /= n;
  m.hr20 /= n;
  m.ndcg10 /= n;
  m.ndcg20 /= n;
  m.users_evaluated = eval_users_.size();
  return m;
}

std::vector<RankingMetrics> Evaluator::EvaluateGrouped(
    const ItemScorer& scorer, const std::vector<int>& group_of_user,
    size_t num_groups, ThreadPool* pool) const {
  MARS_CHECK(group_of_user.size() == case_of_user_.size());
  std::vector<RankingMetrics> groups(num_groups);
  if (eval_users_.empty()) return groups;

  std::vector<size_t> ranks(eval_users_.size());
  if (pool != nullptr) {
    pool->ParallelFor(eval_users_.size(), [&](size_t i) {
      ranks[i] = RankCase(scorer, eval_users_[i]);
    });
  } else {
    for (size_t i = 0; i < eval_users_.size(); ++i) {
      ranks[i] = RankCase(scorer, eval_users_[i]);
    }
  }

  for (size_t i = 0; i < eval_users_.size(); ++i) {
    const int g = group_of_user[eval_users_[i].user];
    if (g < 0) continue;
    MARS_CHECK(static_cast<size_t>(g) < num_groups);
    RankingMetrics& m = groups[g];
    m.hr10 += HitAt(ranks[i], 10);
    m.hr20 += HitAt(ranks[i], 20);
    m.ndcg10 += NdcgAt(ranks[i], 10);
    m.ndcg20 += NdcgAt(ranks[i], 20);
    ++m.users_evaluated;
  }
  for (RankingMetrics& m : groups) {
    if (m.users_evaluated == 0) continue;
    const double n = static_cast<double>(m.users_evaluated);
    m.hr10 /= n;
    m.hr20 /= n;
    m.ndcg10 /= n;
    m.ndcg20 /= n;
  }
  return groups;
}

size_t Evaluator::RankOf(const ItemScorer& scorer, UserId u) const {
  MARS_CHECK(u < case_of_user_.size());
  MARS_CHECK_MSG(case_of_user_[u] >= 0, "user has no held-out item");
  return RankCase(scorer,
                  eval_users_[static_cast<size_t>(case_of_user_[u])]);
}

}  // namespace mars
