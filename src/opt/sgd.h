// Euclidean SGD helpers with optional norm constraints.
//
// Metric-learning baselines (CML, MetricF, TransCF, LRML, SML, MAR) take
// plain SGD steps followed by a projection onto the unit ball (the relaxed
// constraint ||x|| <= 1 of Eq. 11); MARS replaces this with the strict
// spherical optimizer in sphere.h.
#ifndef MARS_OPT_SGD_H_
#define MARS_OPT_SGD_H_

#include <cstddef>

namespace mars {

/// x -= lr * grad.
void SgdStep(float* x, const float* grad, float lr, size_t n);

/// SGD step followed by projection onto the unit ball (CML constraint).
void SgdStepBallProjected(float* x, const float* grad, float lr, size_t n);

/// Clips gradient to max norm `max_norm` in place (guards hinge losses from
/// occasional huge triplet gradients). Returns the pre-clip norm.
float ClipGradient(float* grad, size_t n, float max_norm);

}  // namespace mars

#endif  // MARS_OPT_SGD_H_
