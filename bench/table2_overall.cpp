// Reproduces Table II: overall performance comparison.
//
// Trains all ten models (BPR, NMF, NeuMF, CML, MetricF, TransCF, LRML,
// SML, MAR, MARS) on each of the six benchmark analogues and prints
// HR@10/20 and nDCG@10/20 in the paper's layout, including the Imp1
// (MAR over best baseline) and Imp2 (MARS over best baseline) columns.
//
// Expected shape (not absolute values: the datasets are synthetic analogues
// of the paper's corpora, see src/data/benchmark_datasets.h):
//  * metric-learning models beat the MF family,
//  * MAR beats every single-space baseline,
//  * MARS beats MAR, with the largest margins on the sparser datasets.
#include <cstdio>
#include <map>
#include <vector>

#include "bench_util.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "data/benchmark_datasets.h"

namespace mars {
namespace {

const std::vector<std::string>& Metrics() {
  static const std::vector<std::string>* const kMetrics =
      new std::vector<std::string>{"HR@10", "HR@20", "nDCG@10", "nDCG@20"};
  return *kMetrics;
}

void Run() {
  bench::Banner("Table II — overall comparison on six benchmark datasets");
  const bool fast = BenchFastMode();
  ThreadPool pool(DefaultThreadCount());
  Timer total;

  TablePrinter table("Table II (HR/nDCG, ten models, Imp1 = MAR vs best "
                     "baseline, Imp2 = MARS vs best baseline)");
  std::vector<std::string> header = {"Dataset", "Metric"};
  for (ModelId id : AllModels()) header.push_back(ModelName(id));
  header.push_back("Imp1.");
  header.push_back("Imp2.");
  table.SetHeader(header);

  for (BenchmarkId ds_id : AllBenchmarks()) {
    const std::string ds_name = BenchmarkName(ds_id);
    ExperimentData data(MakeBenchmarkDataset(ds_id, fast), 13);

    std::map<ModelId, RankingMetrics> results;
    for (ModelId model_id : AllModels()) {
      results[model_id] =
          RunTunedExperiment(model_id, ds_id, &data, fast, &pool).test;
    }

    bool first = true;
    for (const std::string& metric : Metrics()) {
      // Best baseline = best among the eight non-MAR/MARS models.
      double best_baseline = 0.0;
      for (ModelId id : AllModels()) {
        if (id == ModelId::kMar || id == ModelId::kMars) continue;
        best_baseline = std::max(best_baseline, results[id].Get(metric));
      }
      std::vector<std::string> row = {first ? ds_name : "", metric};
      for (ModelId id : AllModels()) {
        row.push_back(bench::Metric(results[id].Get(metric)));
      }
      row.push_back(bench::Improvement(results[ModelId::kMar].Get(metric),
                                       best_baseline));
      row.push_back(bench::Improvement(results[ModelId::kMars].Get(metric),
                                       best_baseline));
      table.AddRow(row);
      first = false;
    }
    table.AddSeparator();
  }
  table.Print();
  table.WriteCsv("table2_overall.csv");
  std::printf("\nTotal wall clock: %.1fs (results also in "
              "table2_overall.csv)\n", total.ElapsedSeconds());
}

}  // namespace
}  // namespace mars

int main() {
  mars::Run();
  return 0;
}
