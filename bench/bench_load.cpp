// Snapshot-loading bench: time from a persisted MARS snapshot to the first
// served top-k query, copy-load vs mmap, over one v3 file:
//
//   copy-load: LoadMars maps the file, validates it and copies the tensors
//       into owned stores (LoadMarsMapped + ServingSnapshot), the new
//       TopKServer starts cold, and the first query pays a full-catalog
//       sweep;
//   mmap: LoadMarsMapped serves straight from the mapping (no copy), and
//       the server is primed from the persisted top-k sidecar
//       (serve/top_k_sidecar.h), so the first hot-user query is a cache hit
//       instead of a sweep.
//
// A third lifecycle measures the *whole* restart unit of the retrieval
// tier: mmap the model, mmap the persisted ANN candidate index
// (ann/index_io.h — zero rebuild, no k-means), warm the cache from the
// sidecar, and serve the first query (`v3_index_warm_total_ms`). That is
// the restart path the quickstart and the restart_mid_traffic scenario
// exercise; bench_serve's ann_restart section gates its speedup at the
// million-item point.
//
// The headline `speedup_warm` compares those two end-to-end;
// `speedup_cold` isolates the load mechanism alone (mmap but *cold* first
// sweep, which touches every page of the mapping — the honest zero-copy
// overhead) and is reported alongside. Acceptance bar from the roadmap:
// the mmap lifecycle reaches its first served query >= 5x faster than
// copy-load at >= 10k items. The JSON keeps the copy-load rows under their
// historical `v2_*` names (the copy-load once read the packed v2 format),
// so scripts/check_bench.py compares them against the committed baseline.
//
// Emits machine-readable JSON (BENCH_load.json via scripts/bench.sh or the
// ci.sh --bench stage). Single-threaded on purpose, like bench_serve:
// scripts/check_bench.py compares these numbers across machines/runs.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "ann/index_io.h"
#include "ann/ivf_index.h"
#include "bench_util.h"
#include "common/timer.h"
#include "core/mars.h"
#include "core/persistence.h"
#include "data/synthetic.h"
#include "serve/top_k_server.h"
#include "serve/top_k_sidecar.h"

namespace {

struct LoadResult {
  size_t num_items = 0;
  double v2_load_ms = 0.0;         // LoadMars (copy-load) alone
  double v2_first_query_ms = 0.0;  // cold TopK after the copy-load
  double v2_total_ms = 0.0;        // load + server + first query
  double v3_load_ms = 0.0;         // LoadMarsMapped (mmap) alone
  double v3_first_query_ms = 0.0;  // cold TopK over the mapping
  double v3_cold_total_ms = 0.0;   // mmap + server + cold first query
  double v3_warm_total_ms = 0.0;   // mmap + server + sidecar + hit query
  double index_load_ms = 0.0;      // LoadCandidateIndexMapped alone
  double v3_index_warm_total_ms = 0.0;  // + mapped ANN index in the unit
  double speedup_cold = 0.0;       // v2_total / v3_cold_total
  double speedup_warm = 0.0;       // v2_total / v3_warm_total (headline)
};

/// first ? store : running min — the repeat aggregation (see below).
void MinInto(double* slot, bool first, double value) {
  *slot = first ? value : std::min(*slot, value);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mars;

  const std::string out_path = argc > 1 ? argv[1] : "BENCH_load.json";
  const bool fast = BenchFastMode();

  const std::vector<size_t> catalog_sizes =
      fast ? std::vector<size_t>{1000, 10000}
           : std::vector<size_t>{2000, 10000, 50000};
  const size_t kUsers = fast ? 300 : 1000;
  const size_t kTopK = 10;
  // The sub-ms rows (small catalogs, and the µs-scale warm lifecycle) are
  // jitter-bound on shared hosts; enough repeats to keep identical-code
  // reruns inside the regression gate's 25% band.
  const size_t kRepeats = fast ? 3 : 11;
  const size_t kWarmInnerRepeats = 8;  // see the mmap + sidecar block

  bench::Banner(
      "bench_load — copy-load vs mmap to first served query");
  const unsigned host_cpus = std::thread::hardware_concurrency();
  std::printf("host cpus: %u  k=%zu  users=%zu  repeats=%zu\n\n", host_cpus,
              kTopK, kUsers, kRepeats);

  const std::string v3_path = "bench_load_model.v3";
  const std::string sidecar_path = "bench_load_topk.sidecar";
  const std::string index_path = "bench_load_index.annidx";
  // Scratch snapshots are removed on every exit path, early errors
  // included.
  struct Cleanup {
    const std::string &a, &b, &c;
    ~Cleanup() {
      std::remove(a.c_str());
      std::remove(b.c_str());
      std::remove(c.c_str());
    }
  } cleanup{v3_path, sidecar_path, index_path};

  std::vector<LoadResult> results;
  for (const size_t num_items : catalog_sizes) {
    SyntheticConfig data_cfg;
    data_cfg.num_users = kUsers;
    data_cfg.num_items = num_items;
    data_cfg.target_interactions = kUsers * 20;
    data_cfg.num_facets = 4;
    data_cfg.seed = 7;
    const auto dataset = GenerateSyntheticDataset(data_cfg);

    // MARS itself (the serving payload whose FacetStore layout v3 mirrors),
    // trained just enough for non-degenerate embeddings.
    MultiFacetConfig model_cfg;
    model_cfg.dim = 32;
    model_cfg.num_facets = 4;
    Mars model(model_cfg);
    TrainOptions train;
    train.epochs = 1;
    train.steps_per_epoch = 2000;
    train.learning_rate = 0.2;
    train.seed = 42;
    model.Fit(*dataset, train);

    if (!SaveMarsV3(model, v3_path)) {
      std::fprintf(stderr, "cannot write the snapshot\n");
      return 1;
    }
    // Sidecar: the rankings a warm server would have had before restart.
    {
      TopKServerOptions opts;
      opts.k = kTopK;
      TopKServer warm_src(&model, kUsers, num_items, opts);
      for (UserId u = 0; u < 32; ++u) warm_src.TopK(u);
      if (!SaveTopKSidecar(warm_src, sidecar_path)) {
        std::fprintf(stderr, "cannot write sidecar\n");
        return 1;
      }
    }
    // ANN index: the third file of the restart unit, saved alongside the
    // snapshot + sidecar exactly as the quickstart does.
    {
      const auto index =
          BuildCandidateIndex(model, num_items, AnnIndexOptions{}, nullptr);
      if (index == nullptr || !SaveCandidateIndex(*index, index_path)) {
        std::fprintf(stderr, "cannot write candidate index\n");
        return 1;
      }
    }

    // Every metric is the *minimum* over repeats: these lifecycles are
    // dominated by syscalls and page faults, so their mean tracks the
    // machine's page-cache state (a CI run right after a large build can
    // read 2x an idle run of identical code). The min is the steady
    // warm-state cost — the stable code-regression signal the bench gate
    // needs; the copy-vs-mmap comparison is unchanged by the choice.
    LoadResult r;
    r.num_items = num_items;
    for (size_t rep = 0; rep < kRepeats; ++rep) {
      // Copy-load: validate and copy into owned stores, then sweep.
      {
        Timer load_timer;
        const auto loaded = LoadMars(v3_path);
        const double load_ms = load_timer.ElapsedMillis();
        if (loaded == nullptr) return 1;
        TopKServerOptions opts;
        opts.k = kTopK;
        TopKServer server(loaded.get(), kUsers, num_items, opts);
        Timer query_timer;
        server.TopK(0);
        const double query_ms = query_timer.ElapsedMillis();
        MinInto(&r.v2_load_ms, rep == 0, load_ms);
        MinInto(&r.v2_first_query_ms, rep == 0, query_ms);
        MinInto(&r.v2_total_ms, rep == 0, load_timer.ElapsedMillis());
      }
      // mmap, then sweep straight over the mapping (page faults and all —
      // that is the honest first-query cost).
      {
        Timer load_timer;
        const auto mapped = LoadMarsMapped(v3_path);
        const double load_ms = load_timer.ElapsedMillis();
        if (mapped == nullptr) return 1;
        TopKServerOptions opts;
        opts.k = kTopK;
        TopKServer server(mapped.get(), kUsers, num_items, opts);
        Timer query_timer;
        server.TopK(0);
        const double query_ms = query_timer.ElapsedMillis();
        MinInto(&r.v3_load_ms, rep == 0, load_ms);
        MinInto(&r.v3_first_query_ms, rep == 0, query_ms);
        MinInto(&r.v3_cold_total_ms, rep == 0, load_timer.ElapsedMillis());
      }
      // mmap + sidecar: the full restart lifecycle — mmap, warm the cache
      // from the sidecar, answer the first hot-user query from cache.
      // This path is tens of microseconds end to end (syscall-dominated),
      // so it runs extra inner repeats: at kRepeats samples its
      // run-to-run jitter would exceed the regression gate's threshold.
      for (size_t w = 0; w < kWarmInnerRepeats; ++w) {
        Timer total_timer;
        const auto mapped = LoadMarsMapped(v3_path);
        if (mapped == nullptr) return 1;
        TopKServerOptions opts;
        opts.k = kTopK;
        TopKServer server(mapped.get(), kUsers, num_items, opts);
        if (WarmFromSidecar(&server, sidecar_path) == 0) return 1;
        server.TopK(0);
        MinInto(&r.v3_warm_total_ms, rep == 0 && w == 0,
                total_timer.ElapsedMillis());
      }
      // mmap + mapped index + sidecar: the whole retrieval-tier restart
      // unit — model mmap, MRSI index mmap (zero rebuild), sidecar warm,
      // first query. Same inner-repeat policy as the warm lifecycle: the
      // end-to-end cost is syscall-dominated at small catalogs.
      for (size_t w = 0; w < kWarmInnerRepeats; ++w) {
        Timer total_timer;
        const auto mapped = LoadMarsMapped(v3_path);
        if (mapped == nullptr) return 1;
        Timer index_timer;
        const auto index =
            LoadCandidateIndexMapped(index_path, *mapped, num_items);
        const double index_ms = index_timer.ElapsedMillis();
        if (index == nullptr) return 1;
        TopKServerOptions opts;
        opts.k = kTopK;
        opts.ann.prebuilt = index;
        TopKServer server(mapped.get(), kUsers, num_items, opts);
        if (WarmFromSidecar(&server, sidecar_path) == 0) return 1;
        server.TopK(0);
        MinInto(&r.index_load_ms, rep == 0 && w == 0, index_ms);
        MinInto(&r.v3_index_warm_total_ms, rep == 0 && w == 0,
                total_timer.ElapsedMillis());
      }
    }
    r.speedup_cold =
        r.v3_cold_total_ms > 0.0 ? r.v2_total_ms / r.v3_cold_total_ms : 0.0;
    r.speedup_warm =
        r.v3_warm_total_ms > 0.0 ? r.v2_total_ms / r.v3_warm_total_ms : 0.0;
    results.push_back(r);
    std::printf(
        "items=%-6zu copy load %7.3f + query %6.3f = %7.3f ms   "
        "mmap %6.3f cold %7.3f warm %7.3f ms   "
        "speedup cold %5.1fx warm %6.1fx   "
        "+index (%6.3f ms map) warm %7.3f ms\n",
        num_items, r.v2_load_ms, r.v2_first_query_ms, r.v2_total_ms,
        r.v3_load_ms, r.v3_cold_total_ms, r.v3_warm_total_ms,
        r.speedup_cold, r.speedup_warm, r.index_load_ms,
        r.v3_index_warm_total_ms);
  }
  FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"mmap_load\",\n");
  std::fprintf(out, "  \"host_cpus\": %u,\n", host_cpus);
  std::fprintf(out, "  \"fast_mode\": %s,\n", fast ? "true" : "false");
  std::fprintf(out,
               "  \"model\": {\"type\": \"MARS\", \"dim\": 32, "
               "\"num_facets\": 4},\n");
  std::fprintf(out, "  \"k\": %zu,\n", kTopK);
  std::fprintf(out, "  \"results\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const LoadResult& r = results[i];
    std::fprintf(
        out,
        "    {\"num_items\": %zu, \"v2_load_ms\": %.6f, "
        "\"v2_first_query_ms\": %.6f, \"v2_total_ms\": %.6f, "
        "\"v3_load_ms\": %.6f, \"v3_first_query_ms\": %.6f, "
        "\"v3_cold_total_ms\": %.6f, \"v3_warm_total_ms\": %.6f, "
        "\"index_load_ms\": %.6f, \"v3_index_warm_total_ms\": %.6f, "
        "\"speedup_cold\": %.2f, \"speedup_warm\": %.2f}%s\n",
        r.num_items, r.v2_load_ms, r.v2_first_query_ms, r.v2_total_ms,
        r.v3_load_ms, r.v3_first_query_ms, r.v3_cold_total_ms,
        r.v3_warm_total_ms, r.index_load_ms, r.v3_index_warm_total_ms,
        r.speedup_cold, r.speedup_warm,
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
