// Training-throughput bench: times one MARS epoch at 1/2/4/8 Hogwild
// workers and emits machine-readable JSON (BENCH_train.json via
// scripts/bench.sh) so every future PR has a perf baseline to diff against.
//
// Per thread count the bench fits two fresh models — one with zero epochs
// (init only) and one with `kEpochs` — and reports the difference per
// epoch, so initialization (facet projection, margins, sampler build) does
// not pollute the epoch time. No dev evaluator is configured: this isolates
// raw SGD throughput; multi-thread fits with dev evaluation are exercised
// by the test suite and the ci.sh smoke run.
//
// Speedup is relative to num_threads=1 *on the machine the bench ran on*;
// host_cpus is recorded so a 1-core container result is not mistaken for a
// scaling regression.
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "core/mars.h"
#include "data/synthetic.h"

namespace {

struct ThreadResult {
  size_t num_threads = 0;
  double seconds_per_epoch = 0.0;
  double speedup_vs_serial = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace mars;

  const std::string out_path = argc > 1 ? argv[1] : "BENCH_train.json";
  const bool fast = BenchFastMode();

  SyntheticConfig data_cfg;
  data_cfg.num_users = fast ? 300 : 1500;
  data_cfg.num_items = fast ? 250 : 900;
  data_cfg.target_interactions = data_cfg.num_users * 20;
  data_cfg.num_facets = 4;
  data_cfg.seed = 7;
  const auto dataset = GenerateSyntheticDataset(data_cfg);

  MultiFacetConfig model_cfg;
  model_cfg.dim = 32;
  model_cfg.num_facets = 4;
  model_cfg.theta_init_nmf = false;  // keep init cheap; SGD is the subject

  const size_t kEpochs = fast ? 2 : 3;
  const std::vector<size_t> thread_counts = {1, 2, 4, 8};

  bench::Banner("bench_train — MARS epoch wall-clock vs Hogwild workers");
  std::printf("dataset: %zu users, %zu items, %zu interactions; d=%zu K=%zu\n",
              dataset->num_users(), dataset->num_items(),
              dataset->num_interactions(), model_cfg.dim,
              model_cfg.num_facets);
  const unsigned host_cpus = std::thread::hardware_concurrency();
  std::printf("host cpus: %u\n\n", host_cpus);

  auto fit_seconds = [&](size_t num_threads, size_t epochs) {
    Mars model(model_cfg);
    TrainOptions options;
    options.epochs = epochs;
    options.learning_rate = 0.3;
    options.seed = 42;
    options.num_threads = num_threads;
    Timer timer;
    model.Fit(*dataset, options);
    return timer.ElapsedSeconds();
  };

  std::vector<ThreadResult> results;
  double serial_epoch = 0.0;
  for (size_t nt : thread_counts) {
    const double init_s = fit_seconds(nt, 0);
    const double total_s = fit_seconds(nt, kEpochs);
    ThreadResult r;
    r.num_threads = nt;
    r.seconds_per_epoch = (total_s - init_s) / static_cast<double>(kEpochs);
    if (nt == 1) serial_epoch = r.seconds_per_epoch;
    r.speedup_vs_serial =
        r.seconds_per_epoch > 0.0 ? serial_epoch / r.seconds_per_epoch : 0.0;
    results.push_back(r);
    std::printf("num_threads=%zu  %.4f s/epoch  speedup %.2fx\n", nt,
                r.seconds_per_epoch, r.speedup_vs_serial);
  }

  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"mars_epoch_threads\",\n");
  std::fprintf(out, "  \"host_cpus\": %u,\n", host_cpus);
  std::fprintf(out, "  \"fast_mode\": %s,\n", fast ? "true" : "false");
  std::fprintf(out,
               "  \"dataset\": {\"users\": %zu, \"items\": %zu, "
               "\"interactions\": %zu},\n",
               dataset->num_users(), dataset->num_items(),
               dataset->num_interactions());
  std::fprintf(out, "  \"model\": {\"dim\": %zu, \"num_facets\": %zu},\n",
               model_cfg.dim, model_cfg.num_facets);
  std::fprintf(out, "  \"epochs_timed\": %zu,\n", kEpochs);
  std::fprintf(out, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ThreadResult& r = results[i];
    std::fprintf(out,
                 "    {\"num_threads\": %zu, \"seconds_per_epoch\": %.6f, "
                 "\"speedup_vs_serial\": %.4f}%s\n",
                 r.num_threads, r.seconds_per_epoch, r.speedup_vs_serial,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
