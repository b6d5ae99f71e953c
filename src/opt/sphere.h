// Unit-sphere geometry and the paper's calibrated Riemannian SGD (Sec. IV-B).
//
// The unit hypersphere S^{D-1} = {x : ||x|| = 1} is a Riemannian manifold;
// gradient steps must stay on it. Building blocks:
//
//  * tangent projection:  P_x(g) = (I - x xᵀ) g          (Eq. 20 context)
//  * retraction:          R_x(z) = (x + z) / ||x + z||   ([37])
//  * calibration factor:  1 + xᵀ∇f / ||∇f||              (Eq. 21, from [30])
//
// The calibrated step (Eq. 21) is
//    x ← R_x( -η · (1 + xᵀ∇f/||∇f||) · (I - xxᵀ) ∇f ),
// which scales the update by the angular disagreement between the parameter
// and its Euclidean gradient: parameters pointing away from their target
// direction move further.
//
// Three forms are provided: the composed building blocks below (reference
// semantics, used by tests and ablations), FusedRiemannianSgdStep, the
// single-row fused kernel, and ClippedRiemannianSgdSteps, MARS's training
// update: gradient clip plus fused step over the 3K rows of one sampled
// triplet, which sit in three contiguous FacetStore entity blocks
// ([entity][facet][dim], common/facet_store.h).
//
// Same-bits rules. ClippedRiemannianSgdSteps must reproduce the per-row
// path (ClipGradient, then SquaredNorm(grad) > 0, then
// FusedRiemannianSgdStep) bit for bit, because trained models are pinned
// byte for byte:
//  * every reduction is a same-order reduction (common/vec.h): four
//    lanes finished as (acc0 + acc1) + (acc2 + acc3), then the scalar
//    tail; interleaving rows changes no per-row order;
//  * no FMA contraction (see common/vec.h): none of these may be
//    inlined into an AVX2+FMA function;
//  * `__restrict` only where the buffers really are disjoint: a
//    parameter row and its gradient, which lives in caller scratch;
//  * the trainer's RNG draw order is unchanged: MARS samples one triplet
//    ahead to prefetch its rows, but its s-th step still trains on its
//    s-th draw (docs/ARCHITECTURE.md, "The MARS training step").
#ifndef MARS_OPT_SPHERE_H_
#define MARS_OPT_SPHERE_H_

#include <cstddef>

namespace mars {

/// Projects `grad` onto the tangent space of the sphere at `x` in place:
/// grad ← grad - (x·grad) x. `x` must be (approximately) unit norm.
void TangentProject(const float* x, float* grad, size_t n);

/// Retraction: x ← (x + z)/||x + z||. If ||x + z|| ~ 0 the point is left
/// unchanged (returns false).
bool Retract(float* x, const float* z, size_t n);

/// The calibration multiplier 1 + x·g/||g|| of Eq. 21; returns 1 when
/// ||g|| ~ 0. Result lies in [0, 2] for unit-norm x.
float CalibrationFactor(const float* x, const float* grad, size_t n);

/// One calibrated Riemannian SGD step (Eq. 21) on unit vector `x` with
/// Euclidean gradient `grad` and learning rate `lr`. `scratch` must hold
/// `n` floats. When `calibrated` is false this reduces to plain Riemannian
/// SGD (Eq. 20 with retraction instead of the exponential map), which is
/// the ablation baseline.
void RiemannianSgdStep(float* x, const float* grad, float lr, size_t n,
                       float* scratch, bool calibrated = true);

/// Fused form of RiemannianSgdStep: tangent projection, calibration, and
/// retraction with no scratch buffer and no intermediate stores.
/// Algebraically
///
///   x + z = (1 + η·f·(x·∇f)) x − η·f·∇f,   f = calibration factor,
///
/// so the tangent vector never needs to be materialized; the new norm is
/// accumulated while the combination is formed. `grad_norm2` must be
/// SquaredNorm(grad, n), which a caller that clipped the gradient already
/// has. Matches the composed TangentProject + CalibrationFactor + Retract
/// path to float rounding (~1e-6 relative). Returns false (leaving `x`
/// unchanged) only in the degenerate case where x + z vanishes.
bool FusedRiemannianSgdStep(float* x, const float* grad, float grad_norm2,
                            float lr, size_t n, bool calibrated);

/// MARS's update of `rows` parameter rows. For each r, grads[r] is
/// clipped in place to norm `clip` (ClipGradient; `clip` <= 0 disables),
/// and, if the clipped gradient is nonzero, xs[r] takes
///   FusedRiemannianSgdStep(xs[r], grads[r], SquaredNorm(grads[r], n),
///                          lr, n, calibrated).
/// Bit for bit that composed path, but each ||grad||² is reduced once
/// (again only for a row the clip rescaled) and the rows' norm, radial
/// and retraction-norm reductions run four rows interleaved. No two
/// pointers among xs and grads may overlap.
void ClippedRiemannianSgdSteps(float* const* xs, float* const* grads,
                               size_t rows, float lr, float clip, size_t n,
                               bool calibrated);

}  // namespace mars

#endif  // MARS_OPT_SPHERE_H_
