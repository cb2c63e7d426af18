// Benchmark suite runner: executes the paper-reproduction bench binaries,
// collects their gbdt-bench-v1 JSON reports into one consolidated
// BENCH_suite.json ("gbdt-bench-suite-v1"), and optionally compares the
// result against a historical suite report, exiting nonzero when any case's
// modeled seconds regressed past the threshold.
//
//   gbdt_bench --json=BENCH_suite.json                 # run + consolidate
//   gbdt_bench --quick --json=s.json                   # tiny-scale smoke
//   gbdt_bench --json=s.json --compare=old.json        # run, then compare
//   gbdt_bench --compare-only --json=s.json --compare=old.json
//
// Comparison keys on cases' metrics.modeled_seconds — the simulation is
// deterministic, so any drift is a real cost-model or algorithm change, not
// machine noise; the threshold exists for intentional small reworks.  A
// case marked `"modeled_follows_wall_clock": true` (serving batches that
// close on host time) is printed as UNGATED and never counts as a
// regression, since its modeled seconds move with host load.  Each
// regressed case also lists the spans of its `phases` map whose modeled
// seconds moved most, so the report names the layer that moved.  Any case
// whose spans changed their transfer, thread-block or irregular-transaction
// counts (each span counting its subtree, from the case's `trace`) lists
// those spans too, e.g. `split_node transfers 720 -> 240` or
// `find_split blocks 11968155 -> 1203311`.
//
// Exit codes: 0 ok, 1 regression detected, 2 usage error, 3 a bench failed.
#include <sys/wait.h>

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "number_flag.h"
#include "obs/json.h"

#ifndef GBDT_BENCH_DIR
#define GBDT_BENCH_DIR "."
#endif

namespace {

using gbdt::obs::Json;

struct BenchEntry {
  const char* name;    // suite name and BENCH_<name>.json stem
  const char* binary;  // executable inside the bench dir
};

// bench_primitives is deliberately absent: it emits google-benchmark's own
// JSON schema (via the --json= passthrough), which the suite cannot merge.
constexpr BenchEntry kBenches[] = {
    {"table2", "bench_table2"},
    {"fig8a", "bench_fig8a"},
    {"fig8b", "bench_fig8b"},
    {"fig9", "bench_fig9"},
    {"fig10a", "bench_fig10a"},
    {"fig10b", "bench_fig10b"},
    {"devices", "bench_devices"},
    {"exact_vs_hist", "bench_exact_vs_hist"},
    {"out_of_core", "bench_out_of_core"},
    {"multigpu", "bench_multigpu"},
    {"serve", "bench_serve"},
    {"objective", "bench_objective"},
};

struct SuiteOptions {
  std::string json_path = "BENCH_suite.json";
  std::string compare_path;
  std::string bench_dir = GBDT_BENCH_DIR;
  std::string out_dir = ".";
  std::vector<std::string> only;
  double threshold_pct = 5.0;
  bool quick = false;
  bool list = false;
  bool compare_only = false;
};

void usage(const char* argv0) {
  std::printf(
      "usage: %s [flags]\n"
      "  --list              list the suite's benches and exit\n"
      "  --only=<a,b,...>    run only the named benches\n"
      "  --quick             tiny scale (smoke-test speed)\n"
      "  --json=<path>       consolidated suite report "
      "(default BENCH_suite.json)\n"
      "  --out-dir=<dir>     where per-bench BENCH_<name>.json land "
      "(default .)\n"
      "  --bench-dir=<dir>   bench binaries location "
      "(default: build tree)\n"
      "  --compare=<path>    old suite report to compare against\n"
      "  --compare-only      skip running; compare --json against --compare\n"
      "  --threshold=<pct>   modeled-seconds regression threshold "
      "(default 5)\n"
      "  --help              this message\n",
      argv0);
}

bool parse_args(int argc, char** argv, SuiteOptions& o) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      usage(argv[0]);
      std::exit(0);
    } else if (std::strcmp(a, "--list") == 0) {
      o.list = true;
    } else if (std::strcmp(a, "--quick") == 0) {
      o.quick = true;
    } else if (std::strcmp(a, "--compare-only") == 0) {
      o.compare_only = true;
    } else if (std::strncmp(a, "--only=", 7) == 0) {
      std::string rest = a + 7;
      std::size_t pos = 0;
      while (pos != std::string::npos) {
        const std::size_t comma = rest.find(',', pos);
        const std::string item =
            rest.substr(pos, comma == std::string::npos ? comma : comma - pos);
        if (!item.empty()) o.only.push_back(item);
        pos = comma == std::string::npos ? comma : comma + 1;
      }
    } else if (std::strncmp(a, "--json=", 7) == 0) {
      o.json_path = a + 7;
    } else if (std::strncmp(a, "--out-dir=", 10) == 0) {
      o.out_dir = a + 10;
    } else if (std::strncmp(a, "--bench-dir=", 12) == 0) {
      o.bench_dir = a + 12;
    } else if (std::strncmp(a, "--compare=", 10) == 0) {
      o.compare_path = a + 10;
    } else if (std::strncmp(a, "--threshold=", 12) == 0) {
      o.threshold_pct = gbdt::cli::number_flag<double>("threshold", a + 12);
    } else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", a);
      return false;
    }
  }
  return true;
}

bool selected(const SuiteOptions& o, const char* name) {
  if (o.only.empty()) return true;
  for (const auto& s : o.only) {
    if (s == name) return true;
  }
  return false;
}

/// Runs one bench binary, returning its exit code (-1: could not run).
int run_bench(const SuiteOptions& o, const BenchEntry& b,
              const std::string& report_path) {
  std::string cmd = "'" + o.bench_dir + "/" + b.binary + "'";
  if (o.quick) cmd += " --scale=0.1 --trees=2 --depth=3";
  cmd += " --json='" + report_path + "' > /dev/null";
  const int rc = std::system(cmd.c_str());
  if (rc == -1) return -1;
  if (WIFEXITED(rc)) return WEXITSTATUS(rc);
  return -1;
}

/// One case of a suite report.
struct CaseRow {
  std::string key;  // bench/case
  double modeled = 0.0;
  const Json* phases = nullptr;  // per-span self modeled seconds, if any
  const Json* trace = nullptr;   // span tree, if any
  bool wall_clock = false;  // modeled seconds follow host wall-clock timing
};

/// Flattens a suite doc into one row per case with a modeled_seconds metric.
std::vector<CaseRow> modeled_rows(const Json& suite) {
  std::vector<CaseRow> rows;
  const Json* benches = suite.find("benches");
  if (benches == nullptr) return rows;
  for (const auto& [bname, bdoc] : benches->members()) {
    const Json* cases = bdoc.find("cases");
    if (cases == nullptr) continue;
    for (const Json& c : cases->items()) {
      const Json* name = c.find("name");
      const Json* metrics = c.find("metrics");
      if (name == nullptr || metrics == nullptr) continue;
      const Json* modeled = metrics->find("modeled_seconds");
      if (modeled == nullptr || !modeled->is_number()) continue;
      const Json* wall = c.find("modeled_follows_wall_clock");
      rows.push_back(CaseRow{bname + "/" + name->str(),
                             modeled->number_or(0.0), c.find("phases"),
                             c.find("trace"),
                             wall != nullptr && wall->bool_or(false)});
    }
  }
  return rows;
}

/// Seconds of span `name` in a phases map (0 when absent).
double phase_seconds(const Json* phases, const std::string& name) {
  const Json* v = phases == nullptr ? nullptr : phases->find(name);
  return v == nullptr ? 0.0 : v->number_or(0.0);
}

/// Prints the `top_n` spans whose modeled seconds changed most between two
/// cases' phases maps, largest absolute change first.
void print_phase_deltas(const Json* now, const Json* old, std::size_t top_n) {
  std::vector<std::string> names;
  for (const Json* phases : {now, old}) {
    if (phases == nullptr) continue;
    for (const auto& [name, value] : phases->members()) {
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        names.push_back(name);
      }
    }
  }
  const auto delta = [&](const std::string& n) {
    return phase_seconds(now, n) - phase_seconds(old, n);
  };
  std::stable_sort(names.begin(), names.end(),
                   [&](const std::string& a, const std::string& b) {
                     return std::abs(delta(a)) > std::abs(delta(b));
                   });
  for (std::size_t i = 0; i < names.size() && i < top_n; ++i) {
    if (delta(names[i]) == 0.0) break;
    std::printf("            span %-41s %12.6fs -> %12.6fs (%+.6fs)\n",
                names[i].c_str(), phase_seconds(old, names[i]),
                phase_seconds(now, names[i]), delta(names[i]));
  }
}

/// The per-span counters a comparison lists when they change, each counting
/// the span's subtree: PCI-e transfers (a span's own "transfers") and the
/// thread blocks and irregular transactions of its kernels ("kernels").
enum Counter { kTransfers, kBlocks, kIrregular, kCounters };
constexpr const char* kCounterNames[kCounters] = {"transfers", "blocks",
                                                  "irregular"};

/// One span name's subtree counters in the old [0] and new [1] report.
struct SpanCounts {
  std::string name;
  std::uint64_t count[kCounters][2] = {};
};

/// Adds every span's subtree counters under its name to `side` (same-named
/// spans merge, like the phases map) and returns the subtree totals of
/// `span`.
std::array<std::uint64_t, kCounters> accumulate_counts(
    const Json& span, int side, std::vector<SpanCounts>& out) {
  std::array<std::uint64_t, kCounters> total{};
  const auto add = [&total](Counter c, const Json* v) {
    if (v != nullptr) total[c] += static_cast<std::uint64_t>(v->number_or(0.0));
  };
  add(kTransfers, span.find("transfers"));
  if (const Json* kernels = span.find("kernels")) {
    for (const auto& [label, k] : kernels->members()) {
      add(kBlocks, k.find("blocks"));
      add(kIrregular, k.find("irregular_accesses"));
    }
  }
  if (const Json* kids = span.find("children")) {
    for (const Json& c : kids->items()) {
      const auto sub = accumulate_counts(c, side, out);
      for (int k = 0; k < kCounters; ++k) total[k] += sub[k];
    }
  }
  const Json* name = span.find("name");
  const std::string key = name == nullptr ? "" : name->str();
  auto it = std::find_if(out.begin(), out.end(),
                         [&](const SpanCounts& e) { return e.name == key; });
  if (it == out.end()) it = out.insert(out.end(), SpanCounts{key});
  for (int k = 0; k < kCounters; ++k) it->count[k][side] += total[k];
  return total;
}

/// Whether a span tree records counter `c`: reports written before spans
/// counted transfers, or without per-kernel aggregates, have nothing to
/// compare for it.
bool records(const Json& span, Counter c) {
  if (c == kTransfers) return span.find("transfers") != nullptr;
  if (span.find("kernels") != nullptr) return true;
  if (const Json* kids = span.find("children")) {
    for (const Json& k : kids->items()) {
      if (records(k, c)) return true;
    }
  }
  return false;
}

/// Prints the spans whose transfer, block or irregular-transaction counts
/// differ between two cases' traces, one headed list per counter.
void print_count_deltas(const std::string& key, const Json* now,
                        const Json* old) {
  if (now == nullptr || old == nullptr) return;
  std::vector<SpanCounts> spans;
  accumulate_counts(*old, 0, spans);
  accumulate_counts(*now, 1, spans);
  for (int k = 0; k < kCounters; ++k) {
    const auto c = static_cast<Counter>(k);
    if (!records(*now, c) || !records(*old, c)) continue;
    bool header = false;
    for (const SpanCounts& sc : spans) {
      if (sc.count[k][0] == sc.count[k][1]) continue;
      if (!header) {
        std::string tag = kCounterNames[k];
        for (char& ch : tag) ch = static_cast<char>(std::toupper(ch));
        std::printf("  %-9s %s\n", tag.c_str(), key.c_str());
        header = true;
      }
      std::printf("            span %-41s %s %llu -> %llu\n", sc.name.c_str(),
                  kCounterNames[k],
                  static_cast<unsigned long long>(sc.count[k][0]),
                  static_cast<unsigned long long>(sc.count[k][1]));
    }
  }
}

/// Compares two suite reports; returns the number of regressions.  A case
/// of the old report that a bench of the new one no longer has is listed as
/// GONE, ungated; benches the new report did not run (--only) are skipped.
int compare_suites(const Json& now, const Json& old, double threshold_pct) {
  const auto new_rows = modeled_rows(now);
  const auto old_rows = modeled_rows(old);
  int regressions = 0;
  int matched = 0;
  int ungated = 0;
  for (const CaseRow& row : new_rows) {
    const auto it =
        std::find_if(old_rows.begin(), old_rows.end(),
                     [&](const CaseRow& o) { return o.key == row.key; });
    if (it == old_rows.end()) {
      std::printf("  NEW       %-46s %12.6fs\n", row.key.c_str(),
                  row.modeled);
      continue;
    }
    ++matched;
    const double limit = it->modeled * (1.0 + threshold_pct / 100.0);
    const double delta_pct =
        it->modeled > 0.0 ? 100.0 * (row.modeled - it->modeled) / it->modeled
                          : 0.0;
    if (row.wall_clock || it->wall_clock) {
      ++ungated;
      std::printf("  UNGATED   %-46s %12.6fs -> %12.6fs (%+.1f%%, follows "
                  "wall-clock batching)\n",
                  row.key.c_str(), it->modeled, row.modeled, delta_pct);
      continue;
    }
    if (row.modeled > limit) {
      ++regressions;
      std::printf("  REGRESSED %-46s %12.6fs -> %12.6fs (%+.1f%%)\n",
                  row.key.c_str(), it->modeled, row.modeled, delta_pct);
      print_phase_deltas(row.phases, it->phases, 3);
    }
    print_count_deltas(row.key, row.trace, it->trace);
  }
  const Json* ran = now.find("benches");
  int gone = 0;
  for (const CaseRow& row : old_rows) {
    const std::string bench = row.key.substr(0, row.key.find('/'));
    if (ran == nullptr || ran->find(bench) == nullptr) continue;
    if (std::any_of(new_rows.begin(), new_rows.end(),
                    [&](const CaseRow& n) { return n.key == row.key; })) {
      continue;
    }
    ++gone;
    std::printf("  GONE      %-46s %12.6fs\n", row.key.c_str(), row.modeled);
  }
  std::printf("compared %d cases (%d ungated, %d gone), %d regression(s) "
              "beyond %.1f%%\n",
              matched, ungated, gone, regressions, threshold_pct);
  return regressions;
}

}  // namespace

int main(int argc, char** argv) {
  SuiteOptions opt;
  if (!parse_args(argc, argv, opt)) return 2;

  if (opt.list) {
    for (const auto& b : kBenches) std::printf("%s\n", b.name);
    std::printf(
        "(bench_primitives is excluded: google-benchmark JSON schema)\n");
    return 0;
  }

  Json suite;
  std::string err;
  if (opt.compare_only) {
    suite = gbdt::obs::read_json_file(opt.json_path, &err);
    if (suite.is_null()) {
      std::fprintf(stderr, "cannot read %s: %s\n", opt.json_path.c_str(),
                   err.c_str());
      return 2;
    }
  } else {
    suite = Json::object();
    suite["schema"] = "gbdt-bench-suite-v1";
    auto run_opts = Json::object();
    run_opts["quick"] = opt.quick;
    suite["options"] = std::move(run_opts);
    suite["benches"] = Json::object();
    for (const auto& b : kBenches) {
      if (!selected(opt, b.name)) continue;
      const std::string report_path =
          opt.out_dir + "/BENCH_" + b.name + ".json";
      std::printf("running %-14s ...", b.name);
      std::fflush(stdout);
      const int rc = run_bench(opt, b, report_path);
      if (rc != 0) {
        std::printf(" FAILED (exit %d)\n", rc);
        return 3;
      }
      Json doc = gbdt::obs::read_json_file(report_path, &err);
      if (doc.is_null()) {
        std::printf(" no report (%s)\n", err.c_str());
        return 3;
      }
      const std::size_t n_cases =
          doc.find("cases") != nullptr ? doc.find("cases")->size() : 0;
      std::printf(" ok (%zu cases)\n", n_cases);
      suite["benches"][b.name] = std::move(doc);
    }
    if (!gbdt::obs::write_json_file(opt.json_path, suite)) {
      std::fprintf(stderr, "cannot write %s\n", opt.json_path.c_str());
      return 3;
    }
    std::printf("suite report: %s\n", opt.json_path.c_str());
  }

  if (!opt.compare_path.empty()) {
    const Json old = gbdt::obs::read_json_file(opt.compare_path, &err);
    if (old.is_null()) {
      std::fprintf(stderr, "cannot read %s: %s\n", opt.compare_path.c_str(),
                   err.c_str());
      return 2;
    }
    if (compare_suites(suite, old, opt.threshold_pct) > 0) return 1;
  }
  return 0;
}
