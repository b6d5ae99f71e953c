#include "data/synthetic.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"
#include "common/facet_store.h"
#include "common/rng.h"
#include "common/vec.h"

namespace mars {
namespace {

/// Draws a random unit vector of dimension `d`.
std::vector<float> RandomUnitVector(Rng* rng, size_t d) {
  std::vector<float> v(d);
  for (float& x : v) x = static_cast<float>(rng->Normal());
  if (!NormalizeInPlace(v.data(), d)) v[0] = 1.0f;
  return v;
}

/// Writes to `out` a unit vector near `mean` (both `d` floats) with the
/// given isotropic noise; this is a cheap stand-in for a vMF draw with
/// concentration ~ 1/noise^2.
void NoisyUnitVector(Rng* rng, const float* mean, size_t d, double noise,
                     float* out) {
  for (size_t i = 0; i < d; ++i) {
    out[i] = mean[i] + static_cast<float>(rng->Normal(0.0, noise));
  }
  if (!NormalizeInPlace(out, d)) out[0] = 1.0f;
}

}  // namespace

const std::vector<std::string>& DefaultCategoryNames() {
  static const std::vector<std::string>* const kNames =
      new std::vector<std::string>{
          "DVDs",        "Beauty",   "Music",     "Books",
          "Games",       "Ciao Cafe", "Food & Drink", "Travel",
          "Internet",    "Entertainment", "Software", "House & Garden",
          "Fashion",     "Sports",   "Electronics",  "Family",
          "Cars",        "Finance",  "Education",    "Health",
      };
  return *kNames;
}

std::shared_ptr<ImplicitDataset> GenerateSyntheticDataset(
    const SyntheticConfig& config) {
  MARS_CHECK(config.num_users > 0);
  MARS_CHECK(config.num_items > 0);
  MARS_CHECK(config.num_facets >= 1);
  MARS_CHECK(config.num_categories >= config.num_facets);
  MARS_CHECK(config.latent_dim >= 2);
  MARS_CHECK(config.min_user_interactions >= 3);

  Rng rng(config.seed);
  const size_t n_users = config.num_users;
  const size_t n_items = config.num_items;
  const int n_facets = config.num_facets;
  const int n_cats = config.num_categories;
  const size_t d = config.latent_dim;

  // --- Category metadata ----------------------------------------------------
  std::vector<std::string> names = config.category_names;
  const auto& pool = DefaultCategoryNames();
  for (int c = static_cast<int>(names.size()); c < n_cats; ++c) {
    if (c < static_cast<int>(pool.size())) {
      names.push_back(pool[c]);
    } else {
      names.push_back("Category-" + std::to_string(c));
    }
  }
  names.resize(n_cats);

  // Primary facet of each category (round-robin anchoring).
  std::vector<int> category_facet(n_cats);
  for (int c = 0; c < n_cats; ++c) category_facet[c] = c % n_facets;
  // Categories grouped by their facet.
  std::vector<std::vector<int>> facet_categories(n_facets);
  for (int c = 0; c < n_cats; ++c)
    facet_categories[category_facet[c]].push_back(c);

  // Per (category, facet) prototype directions. A category is tight in its
  // anchor facet and diffuse elsewhere, which is what makes item-item
  // similarity facet-dependent.
  std::vector<std::vector<std::vector<float>>> proto(
      n_cats, std::vector<std::vector<float>>(n_facets));
  for (int c = 0; c < n_cats; ++c) {
    for (int k = 0; k < n_facets; ++k) {
      proto[c][k] = RandomUnitVector(&rng, d);
    }
  }

  // --- Items ----------------------------------------------------------------
  // Item categories: mildly skewed sizes (larger ids rarer) to mimic
  // real catalogues.
  std::vector<int> item_category(n_items);
  {
    std::vector<double> cat_weight(n_cats);
    for (int c = 0; c < n_cats; ++c)
      cat_weight[c] = 1.0 / std::sqrt(1.0 + c);
    double total = 0.0;
    for (double w : cat_weight) total += w;
    for (ItemId v = 0; v < n_items; ++v) {
      double r = rng.Uniform() * total;
      int chosen = n_cats - 1;
      for (int c = 0; c < n_cats; ++c) {
        if (r < cat_weight[c]) {
          chosen = c;
          break;
        }
        r -= cat_weight[c];
      }
      item_category[v] = chosen;
    }
  }
  // Per-facet item latents: tight around the prototype in the anchor facet,
  // looser in the others. One [item][facet][dim] block with cache-line
  // rows: scoring a random candidate touches one row, not a chain of
  // nested vectors.
  FacetStore item_latent(n_items, n_facets, d);
  for (ItemId v = 0; v < n_items; ++v) {
    const int c = item_category[v];
    for (int k = 0; k < n_facets; ++k) {
      const double noise = (k == category_facet[c])
                               ? config.item_cluster_noise
                               : config.item_cluster_noise * 4.0;
      NoisyUnitVector(&rng, proto[c][k].data(), d, noise,
                      item_latent.Row(v, k));
    }
  }
  // Items grouped by category, with a Zipf-ish within-category popularity
  // order (index 0 = most popular).
  std::vector<std::vector<ItemId>> category_items(n_cats);
  for (ItemId v = 0; v < n_items; ++v)
    category_items[item_category[v]].push_back(v);
  for (auto& items : category_items) rng.Shuffle(&items);

  // --- Users ----------------------------------------------------------------
  std::vector<std::vector<double>> user_facet_mix(n_users);
  std::vector<std::vector<std::vector<double>>> user_cat_pref(n_users);
  std::vector<std::vector<std::vector<float>>> user_taste(n_users);
  const std::vector<double> facet_alpha(
      static_cast<size_t>(n_facets), config.facet_dirichlet);
  for (UserId u = 0; u < n_users; ++u) {
    user_facet_mix[u] = rng.Dirichlet(facet_alpha);
    user_cat_pref[u].resize(n_facets);
    user_taste[u].resize(n_facets);
    for (int k = 0; k < n_facets; ++k) {
      const auto& cats = facet_categories[k];
      const std::vector<double> cat_alpha(cats.size(),
                                          config.category_dirichlet);
      user_cat_pref[u][k] = rng.Dirichlet(cat_alpha);
      // Taste vector: preference-weighted blend of that facet's category
      // prototypes plus personal noise.
      std::vector<float> taste(d, 0.0f);
      for (size_t ci = 0; ci < cats.size(); ++ci) {
        Axpy(static_cast<float>(user_cat_pref[u][k][ci]),
             proto[cats[ci]][k].data(), taste.data(), d);
      }
      user_taste[u][k].resize(d);
      NoisyUnitVector(&rng, taste.data(), d, 0.15, user_taste[u][k].data());
    }
  }

  // --- Activity budget --------------------------------------------------
  // Power-law activity over a random user permutation, scaled to the target
  // interaction count with a per-user floor.
  std::vector<UserId> order(n_users);
  for (UserId u = 0; u < n_users; ++u) order[u] = u;
  rng.Shuffle(&order);
  std::vector<double> raw(n_users);
  double raw_total = 0.0;
  for (size_t r = 0; r < n_users; ++r) {
    raw[order[r]] = std::pow(static_cast<double>(r + 1),
                             -config.activity_skew);
    raw_total += raw[order[r]];
  }
  const double floor_total =
      static_cast<double>(config.min_user_interactions) *
      static_cast<double>(n_users);
  const double budget =
      std::max(0.0, static_cast<double>(config.target_interactions) -
                        floor_total);
  std::vector<size_t> quota(n_users);
  for (UserId u = 0; u < n_users; ++u) {
    quota[u] = config.min_user_interactions +
               static_cast<size_t>(budget * raw[u] / raw_total);
    // No user may want more items than exist.
    quota[u] = std::min(quota[u], n_items);
  }

  // --- Interaction generation ------------------------------------------
  std::vector<Interaction> log;
  log.reserve(config.target_interactions + n_users);
  // taken_by[v] is the last user that took item v. Users are generated
  // one after another, so "u already took v" is taken_by[v] == u: one
  // stamp per item instead of a set of every (user, item) pair.
  constexpr UserId kNobody = std::numeric_limits<UserId>::max();
  std::vector<UserId> taken_by(n_items, kNobody);
  const auto take = [&taken_by](UserId u, ItemId v) {
    if (taken_by[v] == u) return false;
    taken_by[v] = u;
    return true;
  };
  auto sample_discrete = [&rng](const std::vector<double>& p) {
    double r = rng.Uniform();
    for (size_t i = 0; i < p.size(); ++i) {
      if (r < p[i]) return i;
      r -= p[i];
    }
    return p.size() - 1;
  };

  // Softmax pick among candidate items scored against a reference latent.
  // The candidate and logit buffers are reused across draws.
  std::vector<ItemId> cand;
  std::vector<double> logits;
  auto pick_by_affinity = [&](const float* reference, int facet) {
    // Candidates are random rows of a catalog-sized store: start every
    // row's cache miss before the first Cosine waits on one.
    for (const ItemId v : cand) __builtin_prefetch(item_latent.Row(v, facet));
    logits.resize(cand.size());
    for (size_t i = 0; i < cand.size(); ++i) {
      logits[i] = config.affinity_sharpness *
                  Cosine(reference, item_latent.Row(cand[i], facet), d);
    }
    double max_logit = logits[0];
    for (double l : logits) max_logit = std::max(max_logit, l);
    double total = 0.0;
    for (double& l : logits) {
      l = std::exp(l - max_logit);
      total += l;
    }
    double r = rng.Uniform() * total;
    size_t pick = cand.size() - 1;
    for (size_t i = 0; i < cand.size(); ++i) {
      if (r < logits[i]) {
        pick = i;
        break;
      }
      r -= logits[i];
    }
    return cand[pick];
  };

  for (UserId u = 0; u < n_users; ++u) {
    int64_t ts = 0;
    size_t failures = 0;
    std::vector<ItemId> consumed;
    while (static_cast<size_t>(ts) < quota[u] && failures < 50) {
      ItemId v = 0;
      if (!consumed.empty() && rng.Bernoulli(config.session_chain)) {
        // --- Session chaining: pick an item near a previously consumed
        // anchor in the anchor's facet, drawing candidates from both the
        // anchor's category and the whole catalogue (cross-category
        // neighbors included).
        const ItemId anchor = consumed[rng.UniformInt(consumed.size())];
        const int k = category_facet[item_category[anchor]];
        cand.clear();
        const auto& same_cat = category_items[item_category[anchor]];
        for (size_t i = 0; i < config.candidate_pool && i < same_cat.size();
             ++i) {
          cand.push_back(same_cat[rng.UniformInt(same_cat.size())]);
        }
        for (size_t i = 0; i < config.candidate_pool; ++i) {
          cand.push_back(static_cast<ItemId>(rng.UniformInt(n_items)));
        }
        v = pick_by_affinity(item_latent.Row(anchor, k), k);
      } else {
        // --- Taste-driven interaction: facet ~ user mixture, category ~
        // per-facet preference, item ~ affinity within the category.
        const int k = static_cast<int>(sample_discrete(user_facet_mix[u]));
        const auto& cats = facet_categories[k];
        const int c = cats[sample_discrete(user_cat_pref[u][k])];
        const auto& items = category_items[c];
        if (items.empty()) {
          ++failures;
          continue;
        }
        const size_t pool_n = std::min(config.candidate_pool, items.size());
        cand.resize(pool_n);
        for (size_t i = 0; i < pool_n; ++i) {
          // Popularity-skewed index within the category.
          const double z = rng.Uniform();
          const size_t idx = static_cast<size_t>(
              std::pow(z, config.popularity_skew) *
              static_cast<double>(items.size()));
          cand[i] = items[std::min(idx, items.size() - 1)];
        }
        v = pick_by_affinity(user_taste[u][k].data(), k);
      }
      if (!take(u, v)) {
        ++failures;
        continue;
      }
      log.push_back(Interaction{u, v, ts});
      consumed.push_back(v);
      ++ts;
      failures = 0;
    }
    // Fill any shortfall (dense users in small categories) with uniform
    // fresh items so every user meets the leave-one-out minimum.
    while (static_cast<size_t>(ts) < config.min_user_interactions) {
      const ItemId v = static_cast<ItemId>(rng.UniformInt(n_items));
      if (!take(u, v)) continue;
      log.push_back(Interaction{u, v, ts});
      ++ts;
    }
  }

  auto dataset =
      std::make_shared<ImplicitDataset>(n_users, n_items, std::move(log));
  dataset->SetItemCategories(std::move(item_category), std::move(names));
  return dataset;
}

}  // namespace mars
