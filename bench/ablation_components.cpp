// Component ablation of MARS: one design choice removed at a time.
//
// Removes one ingredient at a time on Delicious and Ciao:
//  * adaptive margin γ_u → fixed margin 0.5           (Eq. 7-8)
//  * frequency-biased sampling → uniform              (Eq. 10)
//  * pulling loss λ_pull → 0                          (Eq. 9/16)
//  * facet-separating loss λ_facet → 0                (Eq. 6/12)
//  * calibrated Riemannian step → plain Riemannian    (Eq. 21 vs Eq. 20)
//  * NMF facet-weight init → uniform init
//  * facet-lr compensation → off
#include <cstdio>
#include <functional>
#include <vector>

#include "bench_util.h"
#include "common/table_printer.h"
#include "core/mars.h"
#include "data/benchmark_datasets.h"

namespace mars {
namespace {

struct Variant {
  std::string name;
  std::function<void(MultiFacetConfig*, MarsOptions*)> apply;
};

void Run() {
  bench::Banner("Ablation — MARS components (Delicious, Ciao)");
  const bool fast = BenchFastMode();
  ThreadPool pool(DefaultThreadCount());

  const std::vector<Variant> variants = {
      {"MARS (full)", [](MultiFacetConfig*, MarsOptions*) {}},
      {"- adaptive margin (fixed 0.5)",
       [](MultiFacetConfig* c, MarsOptions*) {
         c->adaptive_margin = false;
         c->fixed_margin = 0.5;
       }},
      {"- biased sampling (uniform)",
       [](MultiFacetConfig* c, MarsOptions*) { c->biased_sampling = false; }},
      {"- pull loss (lambda_pull=0)",
       [](MultiFacetConfig* c, MarsOptions*) { c->lambda_pull = 0.0; }},
      {"- facet loss (lambda_facet=0)",
       [](MultiFacetConfig* c, MarsOptions*) { c->lambda_facet = 0.0; }},
      {"- calibration (plain RSGD)",
       [](MultiFacetConfig*, MarsOptions* o) { o->calibrated = false; }},
      {"- NMF theta init (uniform)",
       [](MultiFacetConfig* c, MarsOptions*) { c->theta_init_nmf = false; }},
      {"- facet lr compensation",
       [](MultiFacetConfig* c, MarsOptions*) {
         c->scale_lr_by_facets = false;
       }},
  };

  TablePrinter table("MARS component ablation (test metrics)");
  table.SetHeader({"Dataset", "Variant", "HR@10", "nDCG@10", "ΔnDCG vs full"});

  for (BenchmarkId ds_id : {BenchmarkId::kDelicious, BenchmarkId::kCiao}) {
    const std::string ds_name = BenchmarkName(ds_id);
    ExperimentData data(MakeBenchmarkDataset(ds_id, fast), 13);

    double full_ndcg = 0.0;
    bool first = true;
    for (const Variant& variant : variants) {
      MultiFacetConfig cfg = HarnessFacetConfig();
      MarsOptions mopts;
      variant.apply(&cfg, &mopts);
      Mars model(cfg, mopts);
      const ExperimentResult r =
          RunExperiment(&model, &data,
                        HarnessTrainOptions(ModelId::kMars, fast), ds_name,
                        &pool);
      if (variant.name == "MARS (full)") full_ndcg = r.test.ndcg10;
      table.AddRow({first ? ds_name : "", variant.name,
                    bench::Metric(r.test.hr10), bench::Metric(r.test.ndcg10),
                    bench::Improvement(r.test.ndcg10, full_ndcg)});
      first = false;
    }
    table.AddSeparator();
  }
  table.Print();
  table.WriteCsv("ablation_components.csv");
}

}  // namespace
}  // namespace mars

int main() {
  mars::Run();
  return 0;
}
