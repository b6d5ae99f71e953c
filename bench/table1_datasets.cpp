// Reproduces Table I: statistics of the benchmark datasets.
//
// Prints the same columns the paper reports (#User, #Item, #Interaction,
// Density) for the six scaled synthetic analogues, plus the degree/skew
// columns that characterize the generator output.
#include <cstdio>

#include "bench_util.h"
#include "common/table_printer.h"
#include "data/benchmark_datasets.h"
#include "data/stats.h"

namespace mars {
namespace {

void Run() {
  bench::Banner("Table I — statistics of the benchmark datasets");
  const bool fast = BenchFastMode();

  TablePrinter table("Table I (scaled synthetic analogues)");
  table.SetHeader({"Dataset", "#User", "#Item", "#Interaction", "Density(%)",
                   "AvgDeg(user)", "AvgDeg(item)", "Gini(user)"});
  for (BenchmarkId id : AllBenchmarks()) {
    const auto ds = MakeBenchmarkDataset(id, fast);
    const DatasetStats s = ComputeStats(*ds);
    table.AddRow({
        BenchmarkName(id),
        std::to_string(s.num_users),
        std::to_string(s.num_items),
        std::to_string(s.num_interactions),
        FormatFixed(s.density * 100.0, 2),
        FormatFixed(s.avg_user_degree, 1),
        FormatFixed(s.avg_item_degree, 1),
        FormatFixed(s.user_activity_gini, 2),
    });
  }
  table.Print();
  std::printf(
      "\nPaper Table I (original corpora): Delicious 1K/1K/8K/0.61%%,"
      " Lastfm 2K/175K/92K/0.28%%, Ciao 7K/11K/147K/0.19%%,\n"
      "BookX 20K/40K/605K/0.08%%, ML-1M 6K/4K/1M/4.52%%,"
      " ML-20M 62K/27K/17M/1.02%%.\n"
      "The analogues preserve the density ordering and realistic per-user"
      " history sizes (see src/data/benchmark_datasets.h).\n");
}

}  // namespace
}  // namespace mars

int main() {
  mars::Run();
  return 0;
}
