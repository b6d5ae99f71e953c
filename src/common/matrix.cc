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

namespace {

/// out[c0, c0 + B) of GemvTransposed: each column's sum of x[r]·m[r][c]
/// over the rows with x[r] != 0, in row order, held in a register across
/// the rows instead of in `out`.
template <size_t B>
void GemvTransposedColumns(const Matrix& m, const float* x, size_t c0,
                           float* out) {
  float acc[B] = {};
  for (size_t r = 0; r < m.rows(); ++r) {
    const float xr = x[r];
    if (xr == 0.0f) continue;
    const float* row = m.Row(r) + c0;
    for (size_t j = 0; j < B; ++j) acc[j] += xr * row[j];
  }
  for (size_t j = 0; j < B; ++j) out[c0 + j] = acc[j];
}

}  // namespace

void GemvTransposed(const Matrix& m, const float* x, float* out) {
  // Column blocks of 16, 8, 4 and 1: each output element gets the sums of
  // adding x[r]·row r into a zeroed `out` row by row, but a short row
  // (MARS's init runs this per entity and facet) no longer pays a load
  // and a store of `out` per row.
  const size_t cols = m.cols();
  size_t c = 0;
  for (; c + 16 <= cols; c += 16) GemvTransposedColumns<16>(m, x, c, out);
  if (c + 8 <= cols) {
    GemvTransposedColumns<8>(m, x, c, out);
    c += 8;
  }
  if (c + 4 <= cols) {
    GemvTransposedColumns<4>(m, x, c, out);
    c += 4;
  }
  for (; c < cols; ++c) GemvTransposedColumns<1>(m, x, c, out);
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
      float* out = c->Row(i);
      for (size_t j = 0; j < cols; ++j) out[j] += xi * row[j];
    }
  }
}

}  // namespace mars
