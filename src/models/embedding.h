// Embedding table: a Matrix with recommender-specific initializers.
#ifndef MARS_MODELS_EMBEDDING_H_
#define MARS_MODELS_EMBEDDING_H_

#include <cstddef>

#include "common/facet_store.h"
#include "common/matrix.h"

namespace mars {

class Rng;

/// Fills an embedding table (rows = entities, cols = dimension) with
/// N(0, 1/sqrt(cols)) draws — the standard scale for metric-learning
/// embeddings so initial distances are O(1).
void InitEmbedding(Matrix* table, Rng* rng);

/// InitEmbedding followed by projecting every row into the unit ball.
void InitEmbeddingInBall(Matrix* table, Rng* rng);

/// Projects every row of `table` onto the unit ball (post-update sweep).
void ProjectAllRowsToBall(Matrix* table);

/// FacetStore variant: every facet row of every entity is drawn from
/// N(0, 1/sqrt(dim)) then projected into the unit ball.
void InitFacetStoreInBall(FacetStore* store, Rng* rng);

}  // namespace mars

#endif  // MARS_MODELS_EMBEDDING_H_
