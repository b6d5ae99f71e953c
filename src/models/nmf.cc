#include "models/nmf.h"

#include <algorithm>

#include "common/rng.h"
#include "common/vec.h"

namespace mars {
namespace {

constexpr float kEps = 1e-9f;

/// row[c0, c0 + B) = Σ over `ids`, in order, of data rows' columns
/// [c0, c0 + B): one pass over the ids with the B sums in registers.
template <size_t B, typename Ids>
void SumColumns(const float* data, size_t f, size_t c0, const Ids& ids,
                float* row) {
  float acc[B] = {};
  for (const uint32_t id : ids) {
    const float* src = data + id * f + c0;
    for (size_t j = 0; j < B; ++j) acc[j] += src[j];
  }
  for (size_t j = 0; j < B; ++j) row[c0 + j] = acc[j];
}

/// out row e = Σ over ids in neighbors(e), in order, of rows of `m`.
/// Each element sums in a register, four columns per pass over the ids,
/// in the same order as adding whole rows into a zeroed row would, so the
/// bits are those of that loop.
template <typename Neighbors>
void SumRowsOf(const Matrix& m, size_t count, Neighbors neighbors,
               Matrix* out) {
  const size_t f = m.cols();
  const float* data = m.data();
  for (size_t e = 0; e < count; ++e) {
    const auto ids = neighbors(static_cast<uint32_t>(e));
    float* row = out->Row(e);
    size_t c = 0;
    for (; c + 4 <= f; c += 4) SumColumns<4>(data, f, c, ids, row);
    for (; c < f; ++c) SumColumns<1>(data, f, c, ids, row);
  }
}

/// rows[e][j] *= num[e][j] / (ε + Σ_k rows[e][k]·gram[k][j]), j in order,
/// each j seeing the row's already-updated earlier entries.
void DivideByGramProducts(const Matrix& num, const Matrix& gram,
                          Matrix* rows) {
  const size_t f = rows->cols();
  const float* g = gram.data();
  for (size_t e = 0; e < rows->rows(); ++e) {
    float* row = rows->Row(e);
    const float* numer = num.Row(e);
    for (size_t j = 0; j < f; ++j) {
      float denom = kEps;
      for (size_t k = 0; k < f; ++k) denom += row[k] * g[k * f + j];
      row[j] *= numer[j] / denom;
    }
  }
}

/// One round of multiplicative updates; `xh`, `xtw` and `gram` are scratch
/// matrices.
void MultiplicativeRound(const ImplicitDataset& x, Matrix* w, Matrix* h,
                         Matrix* xh, Matrix* xtw, Matrix* gram) {
  // --- Update W: W ← W ⊙ (X H) / (W HᵀH + ε) ------------------------------
  // X H: for each user, sum of H rows over interacted items.
  SumRowsOf(*h, x.num_users(), [&x](UserId u) { return x.ItemsOf(u); }, xh);
  Gram(*h, gram);  // HᵀH, F×F
  DivideByGramProducts(*xh, *gram, w);

  // --- Update H: H ← H ⊙ (Xᵀ W) / (W ᵀW-gram step) -------------------------
  SumRowsOf(*w, x.num_items(), [&x](ItemId v) { return x.UsersOf(v); }, xtw);
  Gram(*w, gram);  // WᵀW
  DivideByGramProducts(*xtw, *gram, h);
}

void RunNmf(const ImplicitDataset& train, size_t factors, size_t iterations,
            uint64_t seed, Matrix* w, Matrix* h) {
  Rng rng(seed);
  *w = Matrix(train.num_users(), factors);
  *h = Matrix(train.num_items(), factors);
  w->FillUniform(&rng, 0.01f, 1.0f);
  h->FillUniform(&rng, 0.01f, 1.0f);

  Matrix xh(train.num_users(), factors);
  Matrix xtw(train.num_items(), factors);
  Matrix gram(factors, factors);
  for (size_t it = 0; it < iterations; ++it) {
    MultiplicativeRound(train, w, h, &xh, &xtw, &gram);
  }
}

}  // namespace

Nmf::Nmf(NmfConfig config) : config_(config) {}

void Nmf::Fit(const ImplicitDataset& train, const TrainOptions& options) {
  const size_t iterations =
      options.epochs > 0 ? options.epochs : config_.iterations;
  RunNmf(train, config_.factors, iterations, options.seed, &w_, &h_);
}

float Nmf::Score(UserId u, ItemId v) const {
  return Dot(w_.Row(u), h_.Row(v), w_.cols());
}

Matrix NmfUserFactors(const ImplicitDataset& train, size_t factors,
                      size_t iterations, uint64_t seed) {
  Matrix w, h;
  RunNmf(train, factors, iterations, seed, &w, &h);
  return w;
}

}  // namespace mars
