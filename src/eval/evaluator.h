// Leave-one-out ranking evaluator (paper Sec. V-A2).
//
// For every evaluated user the held-out item is ranked against a fixed set
// of `num_negatives` (default 100) items the user never interacted with —
// the standard sampled-candidate protocol of [13], [33], [40]. Candidate
// sets are sampled once at construction with a fixed seed so that *all*
// models rank against identical candidates, making cross-model comparisons
// noise-free.
//
// Tie handling: candidates scoring strictly higher than the held-out item
// always outrank it; exact ties are counted as half a position (rounded
// down), which is deterministic and model-agnostic.
//
// The scorer's parameters need not live in model-owned tables: in serving
// it may be an immutable mmap'd format-v3 snapshot (core/persistence.h
// LoadMarsMapped) — the evaluator only ever reads through the const
// ItemScorer surface, so owned and mapped models rank identically.
#ifndef MARS_EVAL_EVALUATOR_H_
#define MARS_EVAL_EVALUATOR_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "eval/metrics.h"
#include "eval/scorer.h"

namespace mars {

class ThreadPool;

/// Protocol knobs.
struct EvalProtocol {
  /// Number of sampled non-interacted candidate items per user.
  size_t num_negatives = 100;
  /// Seed of the candidate sampler.
  uint64_t seed = 99;
};

/// Pre-sampled leave-one-out evaluator.
class Evaluator {
 public:
  /// `train` supplies the positive sets used to exclude candidates;
  /// `heldout` maps each user to their held-out item (kNoItem = skipped);
  /// `also_exclude` lists additional per-user items to exclude from the
  /// candidates (e.g. the dev item when building the test evaluator).
  Evaluator(const ImplicitDataset& train,
            const std::vector<int64_t>& heldout, EvalProtocol protocol,
            const std::vector<const std::vector<int64_t>*>& also_exclude = {});

  /// Ranks every evaluated user's held-out item and aggregates metrics.
  /// When `pool` is non-null users are ranked in parallel.
  RankingMetrics Evaluate(const ItemScorer& scorer,
                          ThreadPool* pool = nullptr) const;

  /// Like Evaluate, but aggregates per user group: `group_of_user[u]` maps
  /// each user to a group id in [0, num_groups); users mapped to a
  /// negative id are skipped. Used by the controlled difficult-user study
  /// (paper Sec. VI future work): group users by interaction count and
  /// compare models per group.
  std::vector<RankingMetrics> EvaluateGrouped(
      const ItemScorer& scorer, const std::vector<int>& group_of_user,
      size_t num_groups, ThreadPool* pool = nullptr) const;

  /// Number of users with a held-out item.
  size_t NumEvalUsers() const { return eval_users_.size(); }

  /// 0-based rank of user `u`'s held-out item under `scorer` (for tests and
  /// case studies). Requires the user to have a held-out item.
  size_t RankOf(const ItemScorer& scorer, UserId u) const;

 private:
  struct UserCase {
    UserId user;
    ItemId target;
    size_t candidate_offset;  // into candidates_
  };

  size_t RankCase(const ItemScorer& scorer, const UserCase& c) const;

  size_t num_negatives_;
  std::vector<UserCase> eval_users_;
  std::vector<ItemId> candidates_;  // flattened, num_negatives_ per case
  std::vector<int64_t> case_of_user_;  // -1 when not evaluated
};

}  // namespace mars

#endif  // MARS_EVAL_EVALUATOR_H_
