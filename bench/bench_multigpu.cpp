// Multi-GPU scaling (the paper's Section VI future work: "our algorithm is
// naturally applicable to multiple GPUs"): trains the dataset analogs on
// 1/2/4/8 simulated Titan X boards and reports the modeled end-to-end time,
// the communication share, and the speedup over one device.
//
// Two sweeps per dataset:
//  * the exact trainer on round-robin attribute shards, over PCI-e and over
//    NVLink;
//  * the histogram trainer on K row shards — the QGH histograms are merged
//    with the same collective.
// Every merge runs the ring or the tree allreduce, whichever its link
// prices lower for that payload (multigpu/allreduce.h).
#include "bench_common.h"
#include "multigpu/multi_trainer.h"

int main(int argc, char** argv) {
  using namespace gbdt;
  using namespace gbdt::bench;
  const auto opt =
      Options::parse(argc, argv, /*default_scale=*/0.3, /*trees=*/10);
  print_header("Multi-GPU scaling (future work of paper Section VI)", opt);
  BenchJson sink("multigpu", opt);

  for (const char* name : {"news20", "higgs"}) {
    const auto info = data::paper_dataset(name, opt.scale);
    const auto ds = data::generate(info.spec);
    GBDTParam p = paper_param(opt);
    p.use_rle = false;
    std::printf("%s (%lld x %lld):\n", name,
                static_cast<long long>(ds.n_instances()),
                static_cast<long long>(ds.n_attributes()));

    // One case: train, record the comm metrics, print one table row.  The
    // exact rows add an NVLink column.
    const auto run_case = [&](const std::string& case_name,
                              const GBDTParam& param, int k, double base) {
      BenchCase c(sink, case_name);
      const bool with_nvlink = !param.use_hist_trainer;
      multigpu::MultiGpuTrainer pcie(device::DeviceConfig::titan_x_pascal(),
                                     k, param,
                                     multigpu::Interconnect::pcie3());
      multigpu::MultiTrainReport rp;
      try {
        rp = pcie.train(ds);
      } catch (const std::exception& e) {
        c.skip();
        std::printf("  %4d  skipped: %s\n", k, e.what());
        return 0.0;
      }
      c.metric("modeled_seconds", rp.modeled_seconds);
      c.metric("comm_seconds", rp.comm.seconds);
      c.metric("comm_bytes", static_cast<double>(rp.comm.bytes));
      c.metric("comm_messages", static_cast<double>(rp.comm.messages));
      double nv_secs = 0.0;
      if (with_nvlink) {
        multigpu::MultiGpuTrainer nv(device::DeviceConfig::titan_x_pascal(),
                                     k, param,
                                     multigpu::Interconnect::nvlink());
        nv_secs = nv.train(ds).modeled_seconds;
        c.metric("nvlink_seconds", nv_secs);
      }
      std::printf("  %4d %12.4f %11.1f%% %10.2f", k, rp.modeled_seconds,
                  100.0 * rp.comm.seconds / rp.modeled_seconds,
                  base > 0.0 ? base / rp.modeled_seconds : 1.0);
      if (with_nvlink) {
        std::printf(" | %12.4f %10.2f", nv_secs,
                    base > 0.0 ? base / nv_secs : 1.0);
      }
      std::printf("\n");
      return rp.modeled_seconds;
    };

    std::printf("  %4s %12s %12s %10s | %12s %10s\n", "GPUs", "pcie(s)",
                "comm-share", "speedup", "nvlink(s)", "speedup");

    // Exact trainer.  A single shard has no collective, so K=1 is the
    // speedup baseline.
    const std::string data = std::string(name) + "_data_gpus";
    const double base = run_case(data + "1", p, 1, 0.0);
    for (int k : {2, 4, 8}) run_case(data + std::to_string(k), p, k, base);

    // Histogram-allreduce mode (row shards).
    std::printf("  histogram-allreduce mode:\n");
    GBDTParam ph = p;
    ph.use_hist_trainer = true;
    const std::string hist = std::string(name) + "_hist_gpus";
    for (int k : {2, 4}) run_case(hist + std::to_string(k), ph, k, 0.0);
  }
  std::printf(
      "(each merge runs the ring or the binomial tree, whichever prices lower; "
      "scaling stays sublinear: per-instance work and node sync replicate)\n");
  return 0;
}
