// Hardware descriptions for the simulated devices.
//
// The simulator executes kernels on the host but converts the *counted* work
// (thread iterations, coalesced bytes, irregular transactions, atomics) into
// modeled seconds using these parameters.  The GPU presets use the public
// specs of the boards the paper evaluates on (Titan X Pascal as the primary
// device, Tesla P100 and K20 for the scaling remark in Section IV); the CPU
// presets describe the paper's 2x Xeon E5-2640v4 workstation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace gbdt::device {

/// Parameters of a simulated CUDA-like device.
struct DeviceConfig {
  std::string name;

  /// Number of streaming multiprocessors.
  int num_sms = 28;
  /// CUDA cores per SM.
  int cores_per_sm = 128;
  /// Core clock in GHz.
  double clock_ghz = 1.417;
  /// Sustained instructions-per-cycle per core for the integer/FP mix of the
  /// GBDT kernels (well below peak; split finding is not FMA-dense).
  double ipc = 0.8;

  /// Sustained global-memory bandwidth in GB/s.
  double mem_bandwidth_gbps = 480.0;
  /// Bytes moved per irregular (uncoalesced) transaction.  A random 4-byte
  /// load still fetches a 32-byte sector.
  double irregular_transaction_bytes = 32.0;
  /// Extra multiplier for irregular traffic (TLB/replay pressure).
  double irregular_penalty = 2.0;

  /// Host<->device link bandwidth in GB/s (PCI-e 3.0 x16 effective).
  double pcie_bandwidth_gbps = 12.0;
  /// Fixed cost per host<->device transfer in microseconds.
  double pcie_latency_us = 10.0;

  /// Fixed cost of launching one kernel, in microseconds.  Real CUDA
  /// launches cost ~3-7 us; the default is kept at the low end because the
  /// synthetic dataset analogs are ~10-100x smaller than the paper's
  /// datasets, and fixed per-launch costs would otherwise dominate a regime
  /// they do not dominate at full scale (see EXPERIMENTS.md, calibration).
  double kernel_launch_us = 1.0;
  /// Cost of scheduling one thread block onto an SM, in nanoseconds.  This is
  /// what makes "one block per segment" expensive when there are millions of
  /// segments, and what the paper's Customized SetKey formula amortises.
  double block_schedule_ns = 60.0;

  /// Global memory capacity in bytes.
  std::size_t global_mem_bytes = std::size_t{12} * (1u << 30);
  /// Shared memory one thread block can allocate, in bytes (48 KB on every
  /// preset: the static per-block limit from Kepler through Pascal).  A
  /// launch whose blocks declare more fails (Device::launch throws).
  std::size_t shared_mem_per_block_bytes = std::size_t{48} << 10;

  /// Peak parallel work throughput in (work items)/second.
  [[nodiscard]] double compute_throughput() const {
    return static_cast<double>(num_sms) * cores_per_sm * clock_ghz * 1e9 * ipc;
  }
  /// Work throughput of a single SM, used for the longest-block lower bound.
  [[nodiscard]] double sm_throughput() const {
    return static_cast<double>(cores_per_sm) * clock_ghz * 1e9 * ipc;
  }

  /// NVIDIA Titan X (Pascal): 28 SMs, 3584 cores, 12 GB, 480 GB/s.
  static DeviceConfig titan_x_pascal();
  /// NVIDIA Tesla P100: 56 SMs, 3584 cores, 16 GB, 732 GB/s.
  static DeviceConfig tesla_p100();
  /// NVIDIA Tesla K20: 13 SMs, 2496 cores, 5 GB, 208 GB/s.
  static DeviceConfig tesla_k20();
};

/// Parameters of a simulated CPU used by the baseline cost model.
struct CpuConfig {
  std::string name;
  int cores = 20;
  /// SMT threads available (paper: 40 on the 20-core workstation).
  int threads = 40;
  double clock_ghz = 2.4;
  /// Sustained scalar work per cycle per core for the same kernel mix.
  double ipc = 1.6;
  /// Aggregate memory bandwidth in GB/s (2 sockets x 4ch DDR4-2133).
  double mem_bandwidth_gbps = 120.0;
  /// Bandwidth one thread can draw (GB/s); aggregate bandwidth only becomes
  /// reachable with many threads.
  double per_thread_bandwidth_gbps = 13.0;
  double irregular_transaction_bytes = 64.0;  // full cache line
  double irregular_penalty = 2.0;  // line fetch + TLB/DRAM-row miss share
  /// Parallel efficiency at t threads: Amdahl-like saturation.  Calibrated so
  /// 40 threads on 20 cores yields the 6-11x speedups over 1 thread that
  /// Table II of the paper reports for xgbst-40 vs xgbst-1.
  [[nodiscard]] double parallel_speedup(int t) const;

  /// 2x Intel Xeon E5-2640 v4 (the paper's workstation).
  static CpuConfig dual_xeon_e5_2640v4();
};

}  // namespace gbdt::device
