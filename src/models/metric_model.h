// Shared scoring of the single-space metric models (CML, SML, MetricF).
//
//   score(u, v) = -||u - v||²
//
// over one user table and one item table of equal width. Each model
// derives from MetricModel, fills the two tables in its Fit and inherits
// this one scoring path: the gather, batch and multi-user forms run the
// negated-squared-distance kernels of common/kernels.h, which share one row
// primitive, so ScoreItems, ScoreItemRange and ScoreItemRangeMulti rank
// bit-identically.
#ifndef MARS_MODELS_METRIC_MODEL_H_
#define MARS_MODELS_METRIC_MODEL_H_

#include <span>

#include "common/matrix.h"
#include "models/recommender.h"

namespace mars {

/// Base of the metric recommenders: owns the embedding tables and scores
/// by negated squared distance. Subclasses implement Fit and name.
class MetricModel : public Recommender {
 public:
  float Score(UserId u, ItemId v) const override;
  void ScoreItems(UserId u, std::span<const ItemId> items,
                  float* out) const override;
  void ScoreItemRange(UserId u, ItemId begin, ItemId end,
                      float* out) const override;
  void ScoreItemRangeMulti(std::span<const UserId> users, ItemId begin,
                           ItemId end, float* const* out) const override;

  const Matrix& user_embeddings() const { return user_; }
  const Matrix& item_embeddings() const { return item_; }

 protected:
  Matrix user_;
  Matrix item_;
};

}  // namespace mars

#endif  // MARS_MODELS_METRIC_MODEL_H_
