#include "models/embedding.h"

#include <cmath>

#include "common/rng.h"
#include "common/vec.h"

namespace mars {

void InitEmbedding(Matrix* table, Rng* rng) {
  const float scale =
      1.0f / std::sqrt(static_cast<float>(table->cols() > 0 ? table->cols() : 1));
  table->FillNormal(rng, 0.0f, scale);
}

void InitEmbeddingInBall(Matrix* table, Rng* rng) {
  InitEmbedding(table, rng);
  ProjectAllRowsToBall(table);
}

void ProjectAllRowsToBall(Matrix* table) {
  for (size_t r = 0; r < table->rows(); ++r) {
    ProjectToUnitBall(table->Row(r), table->cols());
  }
}

void InitFacetStoreInBall(FacetStore* store, Rng* rng) {
  const size_t d = store->dim();
  const float scale = 1.0f / std::sqrt(static_cast<float>(d > 0 ? d : 1));
  for (size_t e = 0; e < store->num_entities(); ++e) {
    for (size_t k = 0; k < store->num_facets(); ++k) {
      float* row = store->Row(e, k);
      for (size_t i = 0; i < d; ++i) {
        row[i] = static_cast<float>(rng->Normal(0.0, scale));
      }
      ProjectToUnitBall(row, d);
    }
  }
}

}  // namespace mars
