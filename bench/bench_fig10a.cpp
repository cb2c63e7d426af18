// Reproduces Figure 10a: performance-price ratio of GPU-GBDT on the Titan X
// (1200 USD) vs xgbst-40 on the dual Xeon E5-2640v4 workstation (1878 USD),
// normalized to the CPU.  performance = 1/time; paper finding: the GPU is
// 1.5-3x more cost effective.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace gbdt;
  using namespace gbdt::bench;
  const auto opt =
      Options::parse(argc, argv, /*default_scale=*/0.3, /*trees=*/10);
  print_header("Figure 10a — performance-price ratio (normalized to CPU)",
               opt);

  constexpr double kGpuPriceUsd = 1200.0;  // NVIDIA Titan X [16]
  constexpr double kCpuPriceUsd = 1878.0;  // 2x Xeon E5-2640v4 [17]

  BenchJson sink("fig10a", opt);
  std::printf("%-10s %10s %10s %12s\n", "dataset", "ours(s)", "xgb-40(s)",
              "perf/price");
  for (const auto& info : data::paper_datasets(opt.scale)) {
    const auto ds = data::generate(info.spec);
    const auto param = paper_param(opt);
    BenchCase c(sink, info.paper_name);
    const auto gpu = run_gpu(ds, param);
    const auto cpu = run_cpu(ds, param);
    const double gpu_s = gpu.modeled_seconds;
    const double cpu_s = cpu.modeled_seconds(cpu_config(), 40);
    // (1 / (t_gpu * price_gpu)) / (1 / (t_cpu * price_cpu))
    const double ratio = (cpu_s * kCpuPriceUsd) / (gpu_s * kGpuPriceUsd);
    c.metric("modeled_seconds", gpu_s);
    c.metric("perf_price_ratio", ratio);
    std::printf("%-10s %10.3f %10.3f %12.2f\n", info.paper_name.c_str(),
                gpu_s, cpu_s, ratio);
  }
  std::printf("(paper: GPU-GBDT is 1.5-3x more cost-effective than its CPU "
              "counterpart)\n");
  return 0;
}
