// Per-user adaptive margins from two-hop neighborhoods (paper Eq. 7).
//
//   γ_u = 1 − |∪_{v ∈ V_u} U_v| / N
//
// The more *distinct* two-hop neighbors a user has, the more diverse their
// taste, the higher their adoption level — and the smaller the margin the
// push loss demands for them. The distinct-union reading guarantees the
// γ_u ∈ [0, 1] range the paper asserts (a multiset count does not).
#ifndef MARS_CORE_ADAPTIVE_MARGIN_H_
#define MARS_CORE_ADAPTIVE_MARGIN_H_

#include <vector>

#include "data/dataset.h"

namespace mars {

/// Computes γ_u for every user of `train`.
std::vector<float> ComputeAdaptiveMargins(const ImplicitDataset& train);

/// Single-user variant (used by tests and case studies).
float ComputeAdaptiveMargin(const ImplicitDataset& train, UserId u);

}  // namespace mars

#endif  // MARS_CORE_ADAPTIVE_MARGIN_H_
