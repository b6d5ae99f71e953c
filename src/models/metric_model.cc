#include "models/metric_model.h"

#include <vector>

#include "common/kernels.h"
#include "common/vec.h"

namespace mars {

float MetricModel::Score(UserId u, ItemId v) const {
  return -SquaredDistance(user_.Row(u), item_.Row(v), user_.cols());
}

void MetricModel::ScoreItems(UserId u, std::span<const ItemId> items,
                             float* out) const {
  NegatedSquaredDistanceGather(user_.Row(u), item_.data(), item_.cols(),
                               items.data(), items.size(), item_.cols(),
                               out);
}

void MetricModel::ScoreItemRange(UserId u, ItemId begin, ItemId end,
                                 float* out) const {
  if (begin >= end) return;
  NegatedSquaredDistanceBatch(user_.Row(u), item_.Row(begin), end - begin,
                              item_.cols(), item_.cols(), out);
}

void MetricModel::ScoreItemRangeMulti(std::span<const UserId> users,
                                      ItemId begin, ItemId end,
                                      float* const* out) const {
  if (begin >= end || users.empty()) return;
  std::vector<const float*> urows(users.size());
  for (size_t b = 0; b < users.size(); ++b) urows[b] = user_.Row(users[b]);
  NegatedSquaredDistanceBatchMulti(urows.data(), users.size(),
                                   item_.Row(begin), end - begin,
                                   item_.cols(), item_.cols(), out);
}

}  // namespace mars
