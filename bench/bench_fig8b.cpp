// Reproduces Figure 8b: speedup of GPU-GBDT over xgbst-40 as the number of
// trees varies from 10 to 80 (paper: flat — the trees of a GBDT are
// sequentially dependent, so more trees bring no extra parallelism).
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace gbdt;
  using namespace gbdt::bench;
  const auto opt = Options::parse(argc, argv, /*default_scale=*/0.2);
  print_header("Figure 8b — speedup over xgbst-40 vs number of trees", opt);
  BenchJson sink("fig8b", opt);

  const std::vector<std::string> names{"covtype", "higgs", "news20", "susy"};
  std::printf("%-6s", "trees");
  for (const auto& n : names) std::printf(" %9s", n.c_str());
  std::printf("\n");

  for (int trees : {10, 20, 40, 80}) {
    std::printf("%-6d", trees);
    for (const auto& name : names) {
      const auto info = data::paper_dataset(name, opt.scale);
      const auto ds = data::generate(info.spec);
      GBDTParam p = paper_param(opt);
      p.n_trees = trees;
      BenchCase c(sink, name + "_trees" + std::to_string(trees));
      const auto gpu = run_gpu(ds, p);
      const auto cpu = run_cpu(ds, p);
      const double speedup =
          cpu.modeled_seconds(cpu_config(), 40) / gpu.modeled_seconds;
      c.metric("modeled_seconds", gpu.modeled_seconds);
      c.metric("speedup_over_xgb40", speedup);
      std::printf(" %9.2f", speedup);
    }
    std::printf("\n");
  }
  std::printf("(paper: the speedup is stable in the number of trees)\n");
  return 0;
}
