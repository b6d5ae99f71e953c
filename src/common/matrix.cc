#include "common/matrix.h"

#include <cmath>

#include "common/rng.h"
#include "common/vec.h"

namespace mars {

Matrix::Matrix(size_t rows, size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

Matrix::Matrix(size_t rows, size_t cols, float value)
    : rows_(rows), cols_(cols), data_(rows * cols, value) {}

void Matrix::Fill(float value) {
  for (float& x : data_) x = value;
}

void Matrix::FillNormal(Rng* rng, float mean, float stddev) {
  for (float& x : data_)
    x = static_cast<float>(rng->Normal(mean, stddev));
}

void Matrix::FillUniform(Rng* rng, float lo, float hi) {
  for (float& x : data_) x = static_cast<float>(rng->Uniform(lo, hi));
}

void Matrix::FillIdentityPlusNoise(Rng* rng, float noise) {
  MARS_CHECK(rows_ == cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t c = 0; c < cols_; ++c) {
      const float eye = (r == c) ? 1.0f : 0.0f;
      At(r, c) = eye + static_cast<float>(rng->Normal(0.0, noise));
    }
  }
}

float Matrix::FrobeniusNorm() const {
  return Norm(data_.data(), data_.size());
}

void GemvTransposed(const Matrix& m, const float* x, float* out) {
  const size_t rows = m.rows();
  const size_t cols = m.cols();
  Fill(0.0f, out, cols);
  for (size_t r = 0; r < rows; ++r) {
    const float xr = x[r];
    if (xr == 0.0f) continue;
    const float* row = m.Row(r);
    Axpy(xr, row, out, cols);
  }
}

void Gemv(const Matrix& m, const float* x, float* out) {
  const size_t rows = m.rows();
  const size_t cols = m.cols();
  for (size_t r = 0; r < rows; ++r) {
    out[r] = Dot(m.Row(r), x, cols);
  }
}

void AddOuterProduct(float alpha, const float* x, const float* y, Matrix* m) {
  const size_t rows = m->rows();
  const size_t cols = m->cols();
  for (size_t r = 0; r < rows; ++r) {
    const float ax = alpha * x[r];
    if (ax == 0.0f) continue;
    Axpy(ax, y, m->Row(r), cols);
  }
}

void Gram(const Matrix& a, Matrix* c) {
  const size_t cols = a.cols();
  MARS_CHECK(c->rows() == cols && c->cols() == cols);
  c->Fill(0.0f);
  for (size_t r = 0; r < a.rows(); ++r) {
    const float* row = a.Row(r);
    for (size_t i = 0; i < cols; ++i) {
      const float xi = row[i];
      if (xi == 0.0f) continue;
      Axpy(xi, row, c->Row(i), cols);
    }
  }
}

}  // namespace mars
