#include "opt/sgd.h"

#include "common/vec.h"

namespace mars {

void SgdStep(float* x, const float* grad, float lr, size_t n) {
  Axpy(-lr, grad, x, n);
}

void SgdStepBallProjected(float* x, const float* grad, float lr, size_t n) {
  Axpy(-lr, grad, x, n);
  ProjectToUnitBall(x, n);
}

float ClipGradient(float* grad, size_t n, float max_norm) {
  const float norm = Norm(grad, n);
  if (norm > max_norm && norm > 0.0f) {
    Scale(max_norm / norm, grad, n);
  }
  return norm;
}

}  // namespace mars
