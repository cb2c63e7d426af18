// Differential fuzzer for the trainer paths.
//
// Draws random cases (dataset shape, loss, depth, RLE gating, #GPUs,
// out-of-core chunking) from a replayable 64-bit seed stream, trains each
// case through every trainer path, and checks the paths agree with the
// exact-greedy CPU reference (see src/testing/oracle.h for the comparison
// policy).  On a failure the case is shrunk to a minimal reproducer and a
// one-line replay command is printed.
//
//   gbdt_fuzz --cases 50 --start-seed 0x1234        # fuzzing sweep
//   gbdt_fuzz --seed 0xdeadbeef                     # replay one case
//   gbdt_fuzz --seed 0xdeadbeef --rows 25 --cols 4  # replay a shrunk case
//   gbdt_fuzz --hist --cases 25                     # hist_vs_exact-only sweep
//   gbdt_fuzz --serve --cases 25                    # serving-path sweep
//                                                   # (serve_vs_batch oracle)
//   gbdt_fuzz --objective --cases 25                # objective/sampling sweep
//                                                   # (seeded-sampling
//                                                   # determinism + ranking)
//   gbdt_fuzz --mgpu --cases 25                     # multi-GPU collective
//                                                   # sweep (ring-only vs
//                                                   # tree-picking links,
//                                                   # bitwise)
//   gbdt_fuzz --self-test                           # fault-injection check
//   gbdt_fuzz --cases 50 --audit                    # sweep with the kernel
//                                                   # access auditor armed
//   gbdt_fuzz --audit-fault                         # seeded overlapping-write
//                                                   # fault; exits nonzero
//                                                   # when the auditor fires
//   gbdt_fuzz --race --cases 25                     # sweep with the
//                                                   # happens-before race
//                                                   # detector armed + stream
//                                                   # schedule perturbation
//   gbdt_fuzz --race-fault unordered_write          # seeded stream race;
//                                                   # exits 1 when the
//                                                   # detector fires
//
// Exit code 0: all cases pass.  1: at least one real discrepancy.  2: bad
// usage.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "analysis/access_audit.h"
#include "analysis/fault_kernels.h"
#include "analysis/hb_race.h"
#include "number_flag.h"
#include "testing/invariants.h"
#include "testing/oracle.h"

namespace {

using gbdt::testing::FuzzCase;
using gbdt::testing::OracleResult;

struct Options {
  int cases = 50;
  std::uint64_t start_seed = 0x9d1cebab5eedull;
  std::optional<std::uint64_t> seed;  // single-case replay
  std::optional<std::int64_t> rows;
  std::optional<std::int64_t> cols;
  std::optional<int> trees;
  std::optional<int> depth;
  bool check_invariants = true;
  bool minimize = true;
  bool self_test = false;
  bool audit = false;
  bool audit_fault = false;
  bool hist_only = false;
  bool serve_only = false;
  bool race_only = false;
  bool objective_only = false;
  bool mgpu_only = false;
  std::string race_fault;  // seeded stream-race fault name
};

void usage() {
  std::cerr
      << "usage: gbdt_fuzz [options]\n"
         "  --cases N          number of random cases to run (default 50)\n"
         "  --start-seed SEED  base of the case-seed stream (hex ok)\n"
         "  --seed SEED        replay a single case from its seed\n"
         "  --rows N           override n_instances (replay of a shrunk case)\n"
         "  --cols N           override n_attributes\n"
         "  --trees N          override n_trees\n"
         "  --depth N          override depth\n"
         "  --hist             run only the hist_vs_exact leg (device\n"
         "                     histogram trainer vs the CPU reference)\n"
         "  --serve            route cases through the serving path instead:\n"
         "                     micro-batched, sharded and single-row scoring\n"
         "                     must match the offline predictor bit for bit\n"
         "  --objective        objective/sampling sweep: trivial sampling\n"
         "                     plans must be bitwise inert, seeded sampled\n"
         "                     runs must replay bit for bit and agree across\n"
         "                     trainer paths, and LambdaMART must beat the\n"
         "                     squared-error baseline on held-out NDCG@10\n"
         "  --mgpu             multi-GPU collective sweep: a latency-bound\n"
         "                     link (tree where cheaper) must train the\n"
         "                     forest of a bandwidth-only link (ring only),\n"
         "                     and K-shard histogram training must match the\n"
         "                     single-device histogram trainer bit for bit\n"
         "  --no-invariants    do not arm in-trainer invariant checks\n"
         "  --no-minimize      report failures without shrinking them\n"
         "  --self-test        verify the invariant checker catches injected\n"
         "                     faults, then exit\n"
         "  --audit            arm the kernel access auditor (as if\n"
         "                     GBDT_AUDIT_ACCESS=1) for the run\n"
         "  --audit-fault      run the seeded overlapping-write fault kernel\n"
         "                     under the auditor; exits 1 (with the report)\n"
         "                     when the auditor fires, 0 if it failed to\n"
         "                     fire\n"
         "  --race             arm the happens-before race detector and run\n"
         "                     the full oracle plus out-of-core stream legs:\n"
         "                     the GBDT_SYNC_STREAMS hatch and seeded\n"
         "                     schedule perturbations must be bitwise\n"
         "                     identical to the async pipeline\n"
         "  --race-fault NAME  run one seeded stream-race fault under the\n"
         "                     detector; exits 1 (with the report) when it\n"
         "                     fires, 0 if it failed to fire.  NAME is one\n"
         "                     of unordered_write, missing_event_wait,\n"
         "                     copy_overlaps_kernel, or event_wait_fixed\n"
         "                     (the negative control: must NOT fire)\n";
}

bool parse_args(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        return nullptr;
      }
      return argv[++i];
    };
    // Parses the next argument whole into `out` (number_flag.h exits 2
    // naming the flag when it does not parse); false when it is missing.
    auto number = [&]<class T>(T& out) {
      const char* v = next();
      if (v == nullptr) return false;
      out = gbdt::cli::number_flag<T>(std::string_view(a).substr(2), v);
      return true;
    };
    if (a == "--cases") {
      if (!number(opt.cases)) return false;
    } else if (a == "--start-seed") {
      if (!number(opt.start_seed)) return false;
    } else if (a == "--seed") {
      if (!number(opt.seed.emplace())) return false;
    } else if (a == "--rows") {
      if (!number(opt.rows.emplace())) return false;
    } else if (a == "--cols") {
      if (!number(opt.cols.emplace())) return false;
    } else if (a == "--trees") {
      if (!number(opt.trees.emplace())) return false;
    } else if (a == "--depth") {
      if (!number(opt.depth.emplace())) return false;
    } else if (a == "--hist") {
      opt.hist_only = true;
    } else if (a == "--serve") {
      opt.serve_only = true;
    } else if (a == "--objective") {
      opt.objective_only = true;
    } else if (a == "--mgpu") {
      opt.mgpu_only = true;
    } else if (a == "--no-invariants") {
      opt.check_invariants = false;
    } else if (a == "--no-minimize") {
      opt.minimize = false;
    } else if (a == "--self-test") {
      opt.self_test = true;
    } else if (a == "--audit") {
      opt.audit = true;
    } else if (a == "--audit-fault") {
      opt.audit_fault = true;
    } else if (a == "--race") {
      opt.race_only = true;
    } else if (a == "--race-fault") {
      const char* v = next();
      if (v == nullptr) return false;
      opt.race_fault = v;
    } else if (a == "--help" || a == "-h") {
      usage();
      std::exit(0);
    } else {
      std::cerr << "unknown option " << a << "\n";
      return false;
    }
  }
  if (opt.cases < 0) {
    std::cerr << "--cases must be >= 0\n";
    return false;
  }
  if ((opt.rows && *opt.rows < 1) || (opt.cols && *opt.cols < 1) ||
      (opt.trees && *opt.trees < 1) || (opt.depth && *opt.depth < 1)) {
    std::cerr << "--rows/--cols/--trees/--depth must be >= 1\n";
    return false;
  }
  return true;
}

FuzzCase build_case(std::uint64_t seed, const Options& opt) {
  FuzzCase c = FuzzCase::from_seed(seed);
  if (opt.rows) c.n_instances = *opt.rows;
  if (opt.cols) c.n_attributes = *opt.cols;
  if (opt.trees) c.n_trees = *opt.trees;
  if (opt.depth) c.depth = *opt.depth;
  return c;
}

/// Runs one case; on failure minimizes and prints the repro line.  Returns
/// the oracle's result.
OracleResult run_case(const FuzzCase& c, const Options& opt, int index,
                      int total) {
  const OracleResult r =
      opt.hist_only ? gbdt::testing::run_hist_oracle(c, opt.check_invariants)
      : opt.serve_only
          ? gbdt::testing::run_serve_oracle(c, opt.check_invariants)
      : opt.objective_only
          ? gbdt::testing::run_objective_oracle(c, opt.check_invariants)
      : opt.mgpu_only
          ? gbdt::testing::run_mgpu_oracle(c, opt.check_invariants)
      : opt.race_only
          ? gbdt::testing::run_race_oracle(c, opt.check_invariants)
          : run_oracle(c, opt.check_invariants);
  std::cout << "[" << index << "/" << total << "] "
            << (r.pass() ? "PASS" : "FAIL") << " " << c.describe();
  if (r.pass() && r.ties() > 0) {
    std::cout << " (" << r.ties() << " exact-gain tie"
              << (r.ties() > 1 ? "s" : "") << ")";
  }
  std::cout << "\n";
  if (r.pass()) return r;

  std::cout << r.failure_report();
  FuzzCase repro = c;
  // The minimizer re-runs whichever oracle failed, so the shrunk case still
  // fails the same way.  --hist failures are reported unshrunk (the repro
  // line still replays exactly).
  if (opt.minimize && !opt.hist_only) {
    const bool check = opt.check_invariants;
    if (opt.serve_only) {
      repro = gbdt::testing::minimize_case_with(c, [check](const FuzzCase& s) {
        return !gbdt::testing::run_serve_oracle(s, check).pass();
      });
    } else if (opt.objective_only) {
      repro = gbdt::testing::minimize_case_with(c, [check](const FuzzCase& s) {
        return !gbdt::testing::run_objective_oracle(s, check).pass();
      });
    } else if (opt.mgpu_only) {
      repro = gbdt::testing::minimize_case_with(c, [check](const FuzzCase& s) {
        return !gbdt::testing::run_mgpu_oracle(s, check).pass();
      });
    } else if (opt.race_only) {
      repro = gbdt::testing::minimize_case_with(c, [check](const FuzzCase& s) {
        return !gbdt::testing::run_race_oracle(s, check).pass();
      });
    } else {
      repro = gbdt::testing::minimize_case(c, opt.check_invariants);
    }
    if (repro.n_instances != c.n_instances ||
        repro.n_attributes != c.n_attributes || repro.n_trees != c.n_trees ||
        repro.depth != c.depth) {
      std::cout << "  minimized to: " << repro.describe() << "\n";
    }
  }
  // Ready-to-paste replay: the mode and analysis flags must ride along or
  // the repro runs a different (likely passing) configuration.
  std::string flags = opt.serve_only       ? " --serve"
                      : opt.hist_only      ? " --hist"
                      : opt.objective_only ? " --objective"
                      : opt.mgpu_only      ? " --mgpu"
                      : opt.race_only      ? " --race"
                                           : "";
  if (opt.audit) flags += " --audit";
  if (!opt.check_invariants) flags += " --no-invariants";
  std::cout << "  repro: " << repro.repro_command() << flags << "\n";
  return r;
}

/// Fault-injection self-test: armed faults must be caught by the invariant
/// checker, and must be inert while checking is disabled.
int self_test() {
  // A case that exercises the sparse partition on every leg: dense-ish,
  // multiple levels, two trees.
  FuzzCase c = FuzzCase::from_seed(0x5e1f7e57ull);
  c.n_instances = 120;
  c.n_attributes = 6;
  c.depth = 3;
  c.n_trees = 2;
  auto& fi = gbdt::testing::fault_injection();
  int failures = 0;

  auto expect = [&](const char* what, bool ok) {
    std::cout << "self-test: " << what << ": " << (ok ? "ok" : "FAILED")
              << "\n";
    if (!ok) ++failures;
  };

  {
    fi = {};
    fi.break_partition_order = true;
    const OracleResult r = run_oracle(c, /*check_invariants=*/true);
    bool caught = false;
    for (const auto& leg : r.legs) caught |= leg.invariant_violation;
    expect("partition-order fault caught by invariant checker",
           caught && !r.pass());
  }
  {
    fi = {};
    fi.break_child_counts = true;
    const OracleResult r = run_oracle(c, /*check_invariants=*/true);
    bool caught = false;
    bool ooc_caught = false;  // out of core decides on the device too
    for (const auto& leg : r.legs) {
      caught |= leg.invariant_violation;
      ooc_caught |= leg.name == "out_of_core" && leg.invariant_violation &&
                    leg.detail.find("ooc_level") != std::string::npos;
    }
    expect("child-count fault caught by conservation check",
           caught && !r.pass());
    expect("child-count fault caught on the out-of-core leg", ooc_caught);
  }
  {
    fi = {};
    fi.break_hist_subtraction = true;
    const OracleResult r =
        gbdt::testing::run_hist_oracle(c, /*check_invariants=*/true);
    bool caught = false;
    for (const auto& leg : r.legs) caught |= leg.invariant_violation;
    expect("hist-subtraction fault caught by bitwise self-check",
           caught && !r.pass());
  }
  {
    fi = {};
    fi.serve_torn_swap = true;
    const OracleResult r =
        gbdt::testing::run_serve_oracle(c, /*check_invariants=*/true);
    bool caught = false;
    for (const auto& leg : r.legs) caught |= leg.invariant_violation;
    expect("torn-swap fault caught by snapshot fingerprint check",
           caught && !r.pass());
  }
  {
    fi = {};
    fi.break_partition_order = true;
    const OracleResult r = run_oracle(c, /*check_invariants=*/false);
    expect("armed fault inert while checks disabled", r.pass());
  }
  {
    fi = {};
    fi.serve_torn_swap = true;
    const OracleResult r =
        gbdt::testing::run_serve_oracle(c, /*check_invariants=*/false);
    expect("armed torn-swap fault inert while checks disabled", r.pass());
  }
  {
    fi = {};
    fi.break_hist_subtraction = true;
    const OracleResult r =
        gbdt::testing::run_hist_oracle(c, /*check_invariants=*/false);
    expect("armed hist fault inert while checks disabled", r.pass());
  }
  {
    fi = {};
    const OracleResult r = run_oracle(c, /*check_invariants=*/true);
    expect("clean run passes with checks armed", r.pass());
  }
  {
    fi = {};
    const OracleResult r =
        gbdt::testing::run_serve_oracle(c, /*check_invariants=*/true);
    expect("clean serving run passes with checks armed", r.pass());
  }
  fi = {};
  return failures == 0 ? 0 : 1;
}

/// Seeded-fault check for the access auditor: the overlapping-scatter kernel
/// must be detected (exit 1 with the kernel/buffer/block report — registered
/// in CTest with WILL_FAIL so a silent pass fails the suite).  Runs on a
/// single-worker device: the fault performs real overlapping writes, which
/// serial block execution keeps benign on the host while the declarations
/// still violate the contract.
int audit_fault() {
  gbdt::analysis::set_audit_enabled(true);
  gbdt::device::Device dev(gbdt::device::DeviceConfig::titan_x_pascal(),
                           /*host_workers=*/1);
  try {
    gbdt::analysis::run_overlapping_scatter_fault(dev);
  } catch (const gbdt::analysis::AuditViolation& e) {
    std::cerr << "audit-fault detected as intended:\n  " << e.what() << "\n";
    return 1;
  }
  std::cerr << "audit-fault: auditor did NOT fire on the seeded "
               "overlapping-write fault\n";
  return 0;
}

/// Seeded-fault check for the happens-before race detector: each stream
/// mis-use must be detected (exit 1 with the two-op report — registered in
/// CTest with WILL_FAIL so a silent pass fails the suite).  The
/// event_wait_fixed variant is the negative control: correctly ordered, the
/// detector must stay silent and the run exits 0.  Single-worker device:
/// the faults perform their conflicting accesses for real, which serial
/// execution keeps benign on the host while the ordering is still wrong.
int race_fault(const std::string& name) {
  gbdt::analysis::set_race_detect_enabled(true);
  gbdt::device::set_stream_async_enabled(true);
  gbdt::device::Device dev(gbdt::device::DeviceConfig::titan_x_pascal(),
                           /*host_workers=*/1);
  try {
    if (name == "unordered_write") {
      gbdt::analysis::run_race_unordered_write(dev);
    } else if (name == "missing_event_wait") {
      gbdt::analysis::run_race_missing_event_wait(dev);
    } else if (name == "copy_overlaps_kernel") {
      gbdt::analysis::run_race_copy_overlaps_kernel(dev);
    } else if (name == "event_wait_fixed") {
      gbdt::analysis::run_race_event_wait_fixed(dev);
    } else {
      std::cerr << "unknown --race-fault '" << name
                << "' (try unordered_write, missing_event_wait, "
                   "copy_overlaps_kernel, event_wait_fixed)\n";
      return 2;
    }
  } catch (const gbdt::analysis::RaceViolation& e) {
    std::cerr << "race-fault detected as intended:\n  " << e.what() << "\n";
    return 1;
  }
  if (name == "event_wait_fixed") {
    std::cerr << "race-fault: event-ordered program is race-free, as "
                 "intended\n";
    return 0;
  }
  std::cerr << "race-fault: detector did NOT fire on " << name << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_args(argc, argv, opt)) {
    usage();
    return 2;
  }
  if (opt.audit) gbdt::analysis::set_audit_enabled(true);
  if (opt.audit_fault) return audit_fault();
  if (!opt.race_fault.empty()) return race_fault(opt.race_fault);
  if (opt.self_test) return self_test();

  if (opt.seed) {
    const FuzzCase c = build_case(*opt.seed, opt);
    return run_case(c, opt, 1, 1).pass() ? 0 : 1;
  }

  int failures = 0;
  int ooc_cases = 0;
  int ooc_multi_chunk = 0;
  std::uint64_t stream = opt.start_seed;
  for (int i = 0; i < opt.cases; ++i) {
    const std::uint64_t seed = gbdt::testing::splitmix64(stream);
    const FuzzCase c = build_case(seed, opt);
    const OracleResult r = run_case(c, opt, i + 1, opt.cases);
    if (!r.pass()) ++failures;
    if (r.ooc_chunks > 0) ++ooc_cases;
    if (r.ooc_chunks >= 2) ++ooc_multi_chunk;
  }
  // Coverage of the double buffer: a one-chunk case never alternates slots.
  if (ooc_cases > 0) {
    std::cout << ooc_multi_chunk << "/" << ooc_cases
              << " cases' out-of-core legs streamed >= 2 chunks\n";
  }
  std::cout << (opt.cases - failures) << "/" << opt.cases << " cases passed\n";
  return failures == 0 ? 0 : 1;
}
