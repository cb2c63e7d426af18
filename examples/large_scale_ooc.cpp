// Training a dataset whose attribute lists exceed the device memory — the
// constraint that motivates the paper's memory-efficiency work ("GPUs have
// relatively small memory ... make full use of the GPU memory to efficiently
// handle large datasets, and reduce data transferring between CPUs and
// GPUs").  The in-core trainer refuses; the out-of-core trainer streams
// column chunks per level, and RLE-compressed chunk shipping cuts the PCI-e
// bill — the same compression lever as the paper's Section III-C.
//
//   ./examples/large_scale_ooc [n_instances] [n_attributes]
#include <cstdio>
#include <cstdlib>

#include "core/metrics.h"
#include "core/out_of_core.h"
#include "core/trainer.h"
#include "data/csc_matrix.h"
#include "data/synthetic.h"
#include "device/device_context.h"

int main(int argc, char** argv) {
  using namespace gbdt;

  data::SyntheticSpec spec;
  spec.name = "large-scale";
  spec.n_instances = argc > 1 ? std::atoll(argv[1]) : 40000;
  spec.n_attributes = argc > 2 ? std::atoll(argv[2]) : 32;
  spec.density = 1.0;
  spec.distinct_values = 24;  // quantised sensor readings: RLE-friendly
  spec.seed = 99;
  const auto ds = data::generate(spec);

  GBDTParam param;
  param.depth = 5;
  param.n_trees = 10;
  param.use_rle = false;

  // A deliberately small "GPU": the sorted attribute lists don't fit.
  auto cfg = device::DeviceConfig::titan_x_pascal();
  cfg.global_mem_bytes = 6u << 20;  // 6 MiB
  std::printf("dataset: %lld x %lld (%lld entries); device memory: %zu MiB\n",
              static_cast<long long>(ds.n_instances()),
              static_cast<long long>(ds.n_attributes()),
              static_cast<long long>(ds.n_entries()),
              cfg.global_mem_bytes >> 20);

  {
    device::Device dev(cfg);
    try {
      (void)GpuGbdtTrainer(dev, param).train(ds);
      std::printf("in-core trainer unexpectedly fit — enlarge the dataset\n");
    } catch (const device::DeviceOutOfMemory& e) {
      std::printf("in-core trainer: %s\n", e.what());
    }
  }

  // The report is the in-core trainer's TrainReport; the streaming
  // accounting is read off the device's timeline.
  const double in_core_mib =
      static_cast<double>(data::build_csc_host(ds).bytes()) / (1 << 20);
  for (const bool compressed : {false, true}) {
    device::Device dev(cfg);
    OutOfCoreTrainer trainer(dev, param, /*chunk_bytes=*/2u << 20, compressed);
    const auto r = trainer.train(ds);
    std::printf("out-of-core (%s): %zu trees in %.3f modeled s, "
                "streamed %.1f MiB over PCI-e across %llu chunks a level, "
                "peak device memory %.1f MiB (in-core lists: %.1f MiB), "
                "train rmse %.4f\n",
                compressed ? "RLE chunks" : "raw chunks", r.trees.size(),
                r.modeled_seconds,
                static_cast<double>(streamed_bytes(dev.timeline())) / (1 << 20),
                static_cast<unsigned long long>(
                    chunks_per_level(dev.timeline(), r.trees, param.depth)),
                static_cast<double>(r.peak_device_bytes) / (1 << 20),
                in_core_mib, rmse(r.train_scores, ds.labels()));
  }
  return 0;
}
