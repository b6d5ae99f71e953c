// NeuMF scoring contract: Score is a const, reentrant forward (any number
// of threads may score one model at once), and its floats are pinned by a
// CRC over a seeded grid so a change to the forward's rounding fails here.
#include "models/neumf.h"

#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "data/synthetic.h"

namespace mars {
namespace {

std::shared_ptr<ImplicitDataset> GridDataset() {
  SyntheticConfig cfg;
  cfg.num_users = 80;
  cfg.num_items = 120;
  cfg.target_interactions = 1600;
  cfg.num_facets = 3;
  cfg.seed = 2021;
  return GenerateSyntheticDataset(cfg);
}

std::unique_ptr<NeuMf> FitNeuMf(const ImplicitDataset& data,
                                NeuMfConfig cfg) {
  TrainOptions options;
  options.epochs = 2;
  options.learning_rate = 0.05;
  options.seed = 20210419;
  auto model = std::make_unique<NeuMf>(cfg);
  model->Fit(data, options);
  return model;
}

/// Score over the whole user x item grid, row-major.
std::vector<float> ScoreGrid(const NeuMf& model, const ImplicitDataset& data) {
  std::vector<float> out;
  out.reserve(data.num_users() * data.num_items());
  for (UserId u = 0; u < data.num_users(); ++u) {
    for (ItemId v = 0; v < data.num_items(); ++v) {
      out.push_back(model.Score(u, v));
    }
  }
  return out;
}

uint32_t GridCrc(const std::vector<float>& grid) {
  return Crc32(reinterpret_cast<const uint8_t*>(grid.data()),
               grid.size() * sizeof(float));
}

/// Odd widths: every Dot in the towers runs its scalar tail.
NeuMfConfig OddConfig() {
  NeuMfConfig cfg;
  cfg.gmf_dim = 10;
  cfg.mlp_dim = 7;
  cfg.hidden = {13, 5};
  return cfg;
}

// Pins trained NeuMF scores bit for bit: the training steps and the
// scoring forward both feed the grid. The CRCs were recorded on x86-64
// with glibc's exp (the BCE step's Sigmoid calls it), so the check runs
// there only.
TEST(NeuMfTest, ScoreGridCrcPinsScores) {
#if !defined(__x86_64__) || !defined(__GLIBC__)
  GTEST_SKIP() << "CRCs pin x86-64 with glibc exp";
#endif
  const auto data = GridDataset();
  EXPECT_EQ(GridCrc(ScoreGrid(*FitNeuMf(*data, NeuMfConfig{}), *data)),
            3058757562u);
  EXPECT_EQ(GridCrc(ScoreGrid(*FitNeuMf(*data, OddConfig()), *data)),
            3245568255u);
}

TEST(NeuMfTest, ConcurrentScoreMatchesSerialBitForBit) {
  const auto data = GridDataset();
  const auto model = FitNeuMf(*data, OddConfig());
  const std::vector<float> serial = ScoreGrid(*model, *data);

  constexpr size_t kThreads = 4;
  std::vector<std::vector<float>> got(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { got[t] = ScoreGrid(*model, *data); });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), serial.size());
    EXPECT_EQ(std::memcmp(got[t].data(), serial.data(),
                          serial.size() * sizeof(float)),
              0)
        << "thread " << t;
  }
}


TEST(NeuMfTest, BatchScoringMatchesScoreBitForBit) {
  // ScoreItems and ScoreItemRange write the user half of the tower input
  // once per call; every score must keep Score's bits.
  const auto data = GridDataset();
  for (const NeuMfConfig& cfg : {NeuMfConfig{}, OddConfig()}) {
    const auto model = FitNeuMf(*data, cfg);
    const std::vector<float> grid = ScoreGrid(*model, *data);
    const size_t n = data->num_items();
    std::vector<ItemId> ids(n);
    for (ItemId v = 0; v < n; ++v) ids[v] = n - 1 - v;  // not in id order
    std::vector<float> items(n), range(n - 3);
    for (UserId u = 0; u < data->num_users(); ++u) {
      const float* row = grid.data() + u * n;
      model->ScoreItems(u, ids, items.data());
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::memcmp(&items[i], &row[ids[i]], sizeof(float)), 0)
            << "user " << u << " item " << ids[i];
      }
      model->ScoreItemRange(u, 3, static_cast<ItemId>(n), range.data());
      ASSERT_EQ(std::memcmp(range.data(), row + 3, range.size() * sizeof(float)),
                0)
          << "user " << u;
    }
  }
}

}  // namespace
}  // namespace mars
