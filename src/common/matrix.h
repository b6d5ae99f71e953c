// Dense row-major float matrix.
//
// Used for facet projection matrices (D×D), embedding tables (N×D), NMF
// factors, and MLP weights. The class stores a flat contiguous buffer; row
// pointers are exposed so the hot training loops can work on raw floats.
#ifndef MARS_COMMON_MATRIX_H_
#define MARS_COMMON_MATRIX_H_

#include <cstddef>
#include <vector>

#include "common/check.h"

namespace mars {

class Rng;

/// Dense row-major matrix of float.
class Matrix {
 public:
  Matrix() = default;

  /// Creates a rows×cols matrix initialized to zero.
  Matrix(size_t rows, size_t cols);

  /// Creates a rows×cols matrix filled with `value`.
  Matrix(size_t rows, size_t cols, float value);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* Row(size_t r) {
    MARS_DCHECK(r < rows_);
    return data_.data() + r * cols_;
  }
  const float* Row(size_t r) const {
    MARS_DCHECK(r < rows_);
    return data_.data() + r * cols_;
  }

  float& At(size_t r, size_t c) {
    MARS_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  float At(size_t r, size_t c) const {
    MARS_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Sets every element to `value`.
  void Fill(float value);

  /// Fills with i.i.d. N(mean, stddev) draws.
  void FillNormal(Rng* rng, float mean, float stddev);

  /// Fills with i.i.d. Uniform(lo, hi) draws.
  void FillUniform(Rng* rng, float lo, float hi);

  /// Initializes as identity plus N(0, noise) perturbation (square only).
  /// Used to initialize facet projection matrices near the identity so that
  /// facet spaces start as mild rotations of the universal space.
  void FillIdentityPlusNoise(Rng* rng, float noise);

  /// Frobenius norm.
  float FrobeniusNorm() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<float> data_;
};

/// out = M^T x  (M is rows×cols, x has `rows` elems, out has `cols` elems).
/// This is the facet projection u^k = Φ_k^T u from Eq. 1 of the paper.
void GemvTransposed(const Matrix& m, const float* x, float* out);

/// out = M x  (M is rows×cols, x has `cols` elems, out has `rows` elems).
void Gemv(const Matrix& m, const float* x, float* out);

/// Rank-1 accumulate: M += alpha * x y^T (x has rows, y has cols elems).
void AddOuterProduct(float alpha, const float* x, const float* y, Matrix* m);

/// C = A^T A  (A is rows×cols; C must be cols×cols). Used by NMF and PCA.
void Gram(const Matrix& a, Matrix* c);

}  // namespace mars

#endif  // MARS_COMMON_MATRIX_H_
