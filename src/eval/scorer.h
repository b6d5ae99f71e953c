// Minimal scoring interface the evaluator ranks against.
//
// Every recommender implements this; keeping it separate from the model
// base class lets the evaluation substrate stay independent of the model
// library (and lets tests plug in synthetic oracles).
#ifndef MARS_EVAL_SCORER_H_
#define MARS_EVAL_SCORER_H_

#include <cstddef>
#include <span>

#include "data/interaction.h"

namespace mars {

/// Scores user-item pairs; higher means "more recommended". Every scoring
/// method is const and reentrant: the evaluator and the top-k server call
/// them from any number of threads at once.
class ItemScorer {
 public:
  virtual ~ItemScorer() = default;

  /// Preference score of user `u` for item `v`.
  virtual float Score(UserId u, ItemId v) const = 0;

  /// Batch scoring; the default loops over Score. Models override this when
  /// per-user work (projections, attention) can be hoisted out of the loop.
  virtual void ScoreItems(UserId u, std::span<const ItemId> items,
                          float* out) const {
    for (size_t i = 0; i < items.size(); ++i) out[i] = Score(u, items[i]);
  }

  /// Serving adapter: scores the contiguous catalog slice [begin, end) into
  /// out[0 .. end-begin). The top-k server (serve/top_k_server.h) partitions
  /// the catalog into contiguous shard ranges and calls this per shard;
  /// models override it with the contiguous-block kernels of
  /// common/kernels.h so a full-catalog sweep streams sequentially through
  /// the item table. The default loops over Score.
  virtual void ScoreItemRange(UserId u, ItemId begin, ItemId end,
                              float* out) const {
    for (ItemId v = begin; v < end; ++v) out[v - begin] = Score(u, v);
  }

  /// Multi-user serving adapter: scores the slice [begin, end) for every
  /// user in `users` — out[b][0 .. end-begin) receives users[b]'s scores.
  /// The top-k server sweeps the misses of one TopKBatch call through this
  /// so each item row is streamed from memory once per batch instead of
  /// once per user. Contract: out[b] must be bit-identical to
  /// ScoreItemRange(users[b], begin, end) — models override with the
  /// multi-user block kernels of common/kernels.h, which pin exactly that;
  /// the default is the literal per-user loop.
  virtual void ScoreItemRangeMulti(std::span<const UserId> users, ItemId begin,
                                   ItemId end, float* const* out) const {
    for (size_t b = 0; b < users.size(); ++b) {
      ScoreItemRange(users[b], begin, end, out[b]);
    }
  }

  // --- ANN index capability (ann/candidate_index.h). ---------------------
  // A model opts in by returning index_dim() > 0 and implementing
  // CopyIndexVectors() and WriteIndexQuery() so that
  // dot(query(u), item(v)) equals Score(u, v) up to floating-point
  // reassociation; descending dot order is then the score order. Models
  // fold affine terms into extra dimensions (BPR's item bias rides as one
  // appended component against a constant-1 query component; MARS
  // concatenates its K facet rows against theta-and-radius-scaled user
  // facets). The vectors must describe the *current* weights — the
  // serving layer snapshots the model before building, exactly like its
  // score sweeps. Models without such a vectorization (metric models,
  // per-candidate projections, neural towers, ...) keep the default 0 and
  // serve through the exact full-catalog sweep.

  /// Dimensionality of the index/query vectors; 0 (the default) means the
  /// model is not indexable.
  virtual size_t index_dim() const { return 0; }

  /// Writes the index vectors of items [begin, end) tightly packed into
  /// `out` (index_dim() floats per item, no padding).
  virtual void CopyIndexVectors(ItemId begin, ItemId end, float* out) const {
    (void)begin;
    (void)end;
    (void)out;
  }

  /// Writes user `u`'s query vector (index_dim() floats) into `out`.
  virtual void WriteIndexQuery(UserId u, float* out) const {
    (void)u;
    (void)out;
  }
};

}  // namespace mars

#endif  // MARS_EVAL_SCORER_H_
