// Shared configuration of the multi-facet recommenders (MAR and MARS).
#ifndef MARS_CORE_FACET_CONFIG_H_
#define MARS_CORE_FACET_CONFIG_H_

#include <cstddef>

namespace mars {

/// Sign convention of the spherical facet-separating loss
/// (bench/ablation_facet_sign.cpp measures both).
enum class FacetLossSign {
  /// Corrected: (1/α) log(1+exp(+α cos)) — penalizes similar facets.
  kSeparate,
  /// As printed in Eq. 12: (1/α) log(1+exp(−α cos)) — included only so the
  /// ablation bench can demonstrate the inversion empirically.
  kAsPrinted,
};

/// Hyperparameters shared by MAR and MARS.
struct MultiFacetConfig {
  /// Per-facet embedding dimension D.
  size_t dim = 32;
  /// Number of facet spaces K (paper tunes in [1, 6], rule of thumb 3-4).
  size_t num_facets = 4;

  /// λ_pull — weight of the absolute pulling objective (Eq. 9/16).
  double lambda_pull = 0.1;
  /// λ_facet — weight of the facet-separating loss (Eq. 6/12).
  double lambda_facet = 0.01;
  /// α — scale inside the facet-separating loss (paper default 0.1).
  double alpha = 0.1;

  /// Use per-user adaptive margins γ_u (Eq. 7); when false, `fixed_margin`
  /// is used for every user (the ablation baseline).
  bool adaptive_margin = true;
  double fixed_margin = 0.5;

  /// Use the explorative frequency-biased user sampling of Eq. 10.
  bool biased_sampling = true;
  /// β — smoothing of the biased sampling (paper default 0.8).
  double sampling_beta = 0.8;

  /// Initialize per-user facet weights Θ_u from NMF with K factors (the
  /// paper's stated use of NMF); when false, weights start uniform.
  bool theta_init_nmf = true;
  /// NMF sweeps for the initialization.
  size_t theta_nmf_iterations = 15;
  /// Learning-rate multiplier for the facet-weight logits.
  double theta_lr_scale = 1.0;

  /// Compensate the θ-weighting of facet gradients by scaling the
  /// embedding learning rate by K. The cross-facet similarity weights every
  /// facet's gradient by θ_u^k (mean 1/K), so without compensation a
  /// K-facet model trains each space K× slower than a single-space model
  /// at the same learning rate; scaling by K restores per-facet training
  /// speed while preserving the *relative* θ weighting between facets.
  bool scale_lr_by_facets = true;

  /// Gradient-norm clip per facet vector (0 disables).
  double grad_clip = 5.0;
};

}  // namespace mars

#endif  // MARS_CORE_FACET_CONFIG_H_
