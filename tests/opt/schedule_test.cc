#include "opt/schedule.h"

#include <gtest/gtest.h>

namespace mars {
namespace {

TEST(ScheduleTest, LinearDecays) {
  LrSchedule sched(1.0, 10);
  EXPECT_DOUBLE_EQ(sched.At(0), 1.0);
  EXPECT_DOUBLE_EQ(sched.At(5), 0.5);
  // Floored at 0.1 of the base rate.
  EXPECT_DOUBLE_EQ(sched.At(10), 0.1);
  EXPECT_DOUBLE_EQ(sched.At(1000), 0.1);
}

TEST(ScheduleTest, LinearIsMonotoneNonIncreasing) {
  LrSchedule sched(0.5, 30);
  for (size_t e = 1; e < 60; ++e) {
    EXPECT_LE(sched.At(e), sched.At(e - 1));
  }
}

TEST(ScheduleTest, BaseLrAccessor) {
  LrSchedule sched(0.01, 10);
  EXPECT_DOUBLE_EQ(sched.base_lr(), 0.01);
}

}  // namespace
}  // namespace mars
