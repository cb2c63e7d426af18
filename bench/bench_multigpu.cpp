// Multi-GPU scaling (the paper's Section VI future work: "our algorithm is
// naturally applicable to multiple GPUs"): trains the dataset analogs on
// 1/2/4/8 simulated Titan X boards and reports the modeled end-to-end time,
// the communication share, and the speedup over one device.
//
// Two sweeps per dataset:
//  * the exact trainer on round-robin attribute shards x {alltoone, ring,
//    tree} collectives — the ring schedule must beat the legacy all-to-one
//    at K >= 4 (the mgpu_smoke case in test_multigpu gates ring and tree
//    against all-to-one); the ring rows also record an NVLink-interconnect
//    column;
//  * the histogram trainer on K row shards (ring histogram-allreduce) — the
//    QGH histograms are merged with the same collective machinery.
#include "bench_common.h"
#include "multigpu/multi_trainer.h"

int main(int argc, char** argv) {
  using namespace gbdt;
  using namespace gbdt::bench;
  const auto opt =
      Options::parse(argc, argv, /*default_scale=*/0.3, /*trees=*/10);
  print_header("Multi-GPU scaling (future work of paper Section VI)", opt);
  BenchJson sink("multigpu", opt);

  const auto algo_of = [](const char* name) {
    multigpu::AllreduceAlgo a = multigpu::AllreduceAlgo::kRing;
    (void)multigpu::parse_allreduce_algo(name, a);
    return a;
  };

  for (const char* name : {"news20", "higgs"}) {
    const auto info = data::paper_dataset(name, opt.scale);
    const auto ds = data::generate(info.spec);
    GBDTParam p = paper_param(opt);
    p.use_rle = false;
    std::printf("%s (%lld x %lld):\n", name,
                static_cast<long long>(ds.n_instances()),
                static_cast<long long>(ds.n_attributes()));

    // One case: train, record the comm metrics, print one table row.
    const auto run_case = [&](const std::string& case_name,
                              const GBDTParam& param,
                              multigpu::AllreduceAlgo algo, int k,
                              double base, bool with_nvlink) {
      BenchCase c(sink, case_name);
      multigpu::MultiGpuTrainer pcie(device::DeviceConfig::titan_x_pascal(),
                                     k, param, multigpu::Interconnect::pcie3(),
                                     algo);
      multigpu::MultiTrainReport rp;
      try {
        rp = pcie.train(ds);
      } catch (const std::exception& e) {
        c.skip();
        std::printf("  %8s %4d  skipped: %s\n",
                    multigpu::allreduce_algo_name(algo), k, e.what());
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
                                     multigpu::Interconnect::nvlink(), algo);
        nv_secs = nv.train(ds).modeled_seconds;
        c.metric("nvlink_seconds", nv_secs);
      }
      std::printf("  %8s %4d %12.4f %11.1f%% %10.2f",
                  multigpu::allreduce_algo_name(algo), k, rp.modeled_seconds,
                  100.0 * rp.comm.seconds / rp.modeled_seconds,
                  base > 0.0 ? base / rp.modeled_seconds : 1.0);
      if (with_nvlink) {
        std::printf(" | %12.4f %10.2f", nv_secs,
                    base > 0.0 ? base / nv_secs : 1.0);
      }
      std::printf("\n");
      return rp.modeled_seconds;
    };

    std::printf("  %8s %4s %12s %12s %10s | %12s %10s\n", "algo", "GPUs",
                "pcie(s)", "comm-share", "speedup", "nvlink(s)", "speedup");

    // Exact trainer, collective-algorithm sweep.  A single shard has no
    // collective, so K=1 is one row (the speedup baseline).
    const double base =
        run_case(std::string(name) + "_data_ring_gpus1", p,
                 multigpu::AllreduceAlgo::kRing, 1, 0.0, true);
    for (int k : {2, 4, 8}) {
      for (const char* algo : {"alltoone", "ring", "tree"}) {
        const std::string cn =
            std::string(name) + "_data_" + algo + "_gpus" + std::to_string(k);
        run_case(cn, p, algo_of(algo), k, base, std::string(algo) == "ring");
      }
    }

    // Histogram-allreduce mode (row shards, ring).
    std::printf("  histogram-allreduce mode:\n");
    GBDTParam ph = p;
    ph.use_hist_trainer = true;
    for (int k : {2, 4}) {
      run_case(std::string(name) + "_hist_ring_gpus" + std::to_string(k), ph,
               multigpu::AllreduceAlgo::kRing, k, 0.0, false);
    }
  }
  std::printf(
      "(ring spreads 2(K-1) chunk legs across every shard's comm stream vs "
      "2(K-1) full payloads serialised on shard 0 for all-to-one; scaling "
      "stays sublinear: per-instance work and node sync replicate)\n");
  return 0;
}
