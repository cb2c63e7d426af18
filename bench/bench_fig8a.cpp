// Reproduces Figure 8a: speedup of GPU-GBDT over xgbst-40 as the tree depth
// varies from 2 to 8 (paper: best at depth 2, then roughly stable).
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace gbdt;
  using namespace gbdt::bench;
  const auto opt =
      Options::parse(argc, argv, /*default_scale=*/0.25, /*trees=*/10);
  print_header("Figure 8a — speedup over xgbst-40 vs tree depth", opt);
  BenchJson sink("fig8a", opt);

  const std::vector<std::string> names{"covtype", "higgs", "news20", "susy"};
  std::printf("%-6s", "depth");
  for (const auto& n : names) std::printf(" %9s", n.c_str());
  std::printf("\n");

  for (int depth = 2; depth <= 8; ++depth) {
    std::printf("%-6d", depth);
    for (const auto& name : names) {
      const auto info = data::paper_dataset(name, opt.scale);
      const auto ds = data::generate(info.spec);
      GBDTParam p = paper_param(opt);
      p.depth = depth;
      BenchCase c(sink, name + "_depth" + std::to_string(depth));
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
  std::printf("(paper: speedup peaks at depth 2 and stays roughly stable "
              "afterwards)\n");
  return 0;
}
