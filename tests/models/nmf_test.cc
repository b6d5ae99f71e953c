#include "models/nmf.h"

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "data/synthetic.h"

namespace mars {
namespace {

std::shared_ptr<ImplicitDataset> SmallDataset() {
  SyntheticConfig cfg;
  cfg.num_users = 80;
  cfg.num_items = 60;
  cfg.target_interactions = 800;
  cfg.num_facets = 2;
  cfg.num_categories = 4;
  cfg.seed = 31;
  return GenerateSyntheticDataset(cfg);
}

TEST(NmfTest, FactorsAreNonNegative) {
  const auto ds = SmallDataset();
  NmfConfig cfg;
  cfg.factors = 8;
  Nmf model(cfg);
  TrainOptions opts;
  opts.epochs = 20;
  model.Fit(*ds, opts);
  const Matrix& w = model.user_factors();
  const Matrix& h = model.item_factors();
  for (size_t i = 0; i < w.size(); ++i) EXPECT_GE(w.data()[i], 0.0f);
  for (size_t i = 0; i < h.size(); ++i) EXPECT_GE(h.data()[i], 0.0f);
}

TEST(NmfTest, ScoresPositivesAboveNegativesOnAverage) {
  const auto ds = SmallDataset();
  NmfConfig cfg;
  cfg.factors = 8;
  Nmf model(cfg);
  TrainOptions opts;
  opts.epochs = 30;
  model.Fit(*ds, opts);

  double pos_sum = 0.0;
  size_t pos_n = 0;
  for (const Interaction& x : ds->interactions()) {
    pos_sum += model.Score(x.user, x.item);
    ++pos_n;
  }
  double neg_sum = 0.0;
  size_t neg_n = 0;
  for (UserId u = 0; u < ds->num_users(); u += 3) {
    for (ItemId v = 0; v < ds->num_items(); v += 3) {
      if (ds->HasInteraction(u, v)) continue;
      neg_sum += model.Score(u, v);
      ++neg_n;
    }
  }
  EXPECT_GT(pos_sum / pos_n, neg_sum / neg_n);
}

TEST(NmfTest, ReconstructionImprovesWithIterations) {
  const auto ds = SmallDataset();
  auto sq_error = [&](const Nmf& model) {
    // Squared error over the binary matrix, sampled on a grid.
    double err = 0.0;
    for (UserId u = 0; u < ds->num_users(); ++u) {
      for (ItemId v = 0; v < ds->num_items(); ++v) {
        const double x = ds->HasInteraction(u, v) ? 1.0 : 0.0;
        const double diff = x - model.Score(u, v);
        err += diff * diff;
      }
    }
    return err;
  };
  NmfConfig cfg;
  cfg.factors = 8;
  Nmf one_iter(cfg), many_iter(cfg);
  TrainOptions short_opts;
  short_opts.epochs = 1;
  TrainOptions long_opts;
  long_opts.epochs = 40;
  one_iter.Fit(*ds, short_opts);
  many_iter.Fit(*ds, long_opts);
  EXPECT_LT(sq_error(many_iter), sq_error(one_iter));
}

TEST(NmfTest, UserFactorsHelperMatchesShape) {
  const auto ds = SmallDataset();
  const Matrix w = NmfUserFactors(*ds, 4, 10, 77);
  EXPECT_EQ(w.rows(), ds->num_users());
  EXPECT_EQ(w.cols(), 4u);
  for (size_t i = 0; i < w.size(); ++i) EXPECT_GE(w.data()[i], 0.0f);
}

TEST(NmfTest, DeterministicForSeed) {
  const auto ds = SmallDataset();
  const Matrix a = NmfUserFactors(*ds, 4, 10, 5);
  const Matrix b = NmfUserFactors(*ds, 4, 10, 5);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_FLOAT_EQ(a.data()[i], b.data()[i]);
  }
}

/// CRC-32 of both factor matrices' float bytes after `epochs` rounds.
uint32_t NmfFactorsDigest(const ImplicitDataset& data, size_t factors,
                          size_t epochs) {
  NmfConfig cfg;
  cfg.factors = factors;
  Nmf model(cfg);
  TrainOptions opts;
  opts.epochs = epochs;
  model.Fit(data, opts);
  std::string bytes;
  for (const Matrix* m : {&model.user_factors(), &model.item_factors()}) {
    bytes.append(reinterpret_cast<const char*>(m->data()),
                 m->size() * sizeof(float));
  }
  return Crc32(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
}

TEST(NmfTest, GoldenDigestPinsFactorBytes) {
  // The multiplicative rounds sum neighbour rows and Gram products in a
  // fixed per-element order. These CRCs were recorded from the per-row
  // Axpy loops and pin that order at 8 factors (two four-column blocks)
  // and 5 and 3 (the single-column remainders) on x86-64.
  const auto ds = SmallDataset();
  EXPECT_EQ(NmfFactorsDigest(*ds, 8, 12), 2905722232u);
  EXPECT_EQ(NmfFactorsDigest(*ds, 5, 12), 3219155604u);
  EXPECT_EQ(NmfFactorsDigest(*ds, 3, 12), 558018027u);
}

}  // namespace
}  // namespace mars
