#include "opt/schedule.h"

#include <algorithm>

#include "common/check.h"

namespace mars {

namespace {

/// The decay never drops the rate below this fraction of the base rate.
constexpr double kMinFactor = 0.1;

}  // namespace

LrSchedule::LrSchedule(double base_lr, size_t total_epochs)
    : base_lr_(base_lr), total_epochs_(std::max<size_t>(1, total_epochs)) {
  MARS_CHECK(base_lr > 0.0);
}

double LrSchedule::At(size_t epoch) const {
  const double t =
      static_cast<double>(epoch) / static_cast<double>(total_epochs_);
  return base_lr_ * std::max(kMinFactor, 1.0 - t);
}

}  // namespace mars
