// Learning-rate schedule for the training loops.
#ifndef MARS_OPT_SCHEDULE_H_
#define MARS_OPT_SCHEDULE_H_

#include <cstddef>

namespace mars {

/// Stateless linear decay: lr0 * (1 - epoch/T), floored at lr0 * 0.1.
class LrSchedule {
 public:
  LrSchedule(double base_lr, size_t total_epochs);

  /// Learning rate to use during `epoch` (0-based).
  double At(size_t epoch) const;

  double base_lr() const { return base_lr_; }

 private:
  double base_lr_;
  size_t total_epochs_;
};

}  // namespace mars

#endif  // MARS_OPT_SCHEDULE_H_
