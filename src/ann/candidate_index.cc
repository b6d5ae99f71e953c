#include "ann/candidate_index.h"

#include "ann/ivf_index.h"

namespace mars {

std::unique_ptr<CandidateIndex> BuildCandidateIndex(
    const ItemScorer& model, size_t num_items, const AnnIndexOptions& options,
    ThreadPool* pool) {
  if (num_items == 0 || model.index_dim() == 0) return nullptr;
  return SphericalIvfIndex::Build(model, num_items, options, pool);
}

}  // namespace mars
