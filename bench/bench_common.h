// Shared plumbing for the paper-reproduction benches: dataset analogs,
// trainer invocations, table formatting, and machine-readable reports.
//
// Every bench accepts:
//   --scale=<f>   cardinality scale of the dataset analogs (default varies)
//   --trees=<n>   number of trees
//   --depth=<d>   tree depth
//   --json=<p>    also write a schema-versioned JSON report to <p>
//   --help        print the flags and exit
// and prints both modeled seconds (the reproduction metric, see DESIGN.md
// section 2) and host wall-clock seconds (transparency).
//
// JSON reports ("gbdt-bench-v1") carry one entry per case with a metrics
// map (modeled_seconds, wall_seconds, peak_device_bytes, plus bench-specific
// keys), a per-phase modeled-seconds summary and the full trace-span tree
// captured by an obs::ObsSession.  tools/gbdt_bench consumes them for the
// consolidated suite report and --compare regression checks.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "baselines/xgb_exact.h"
#include "baselines/xgb_gpu_dense.h"
#include "core/metrics.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "device/device_context.h"
#include "number_flag.h"
#include "obs/json.h"
#include "obs/trace.h"

namespace gbdt::bench {

struct Options {
  double scale = 0.25;
  int trees = 40;
  int depth = 6;
  std::string json_path;  // empty: no JSON report

  static Options parse(int argc, char** argv, double default_scale,
                       int default_trees = 40, int default_depth = 6) {
    Options o;
    o.scale = default_scale;
    o.trees = default_trees;
    o.depth = default_depth;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--help") == 0 ||
          std::strcmp(argv[i], "-h") == 0) {
        std::printf(
            "usage: %s [--scale=<f>] [--trees=<n>] [--depth=<d>] "
            "[--json=<path>]\n"
            "  --scale=<f>   dataset-analog cardinality scale "
            "(default %.3g)\n"
            "  --trees=<n>   number of trees (default %d)\n"
            "  --depth=<d>   tree depth (default %d)\n"
            "  --json=<path> write a gbdt-bench-v1 JSON report\n"
            "  --help        this message\n",
            argv[0], default_scale, default_trees, default_depth);
        std::exit(0);
      } else if (std::strncmp(argv[i], "--scale=", 8) == 0) {
        o.scale = cli::number_flag<double>("scale", argv[i] + 8);
      } else if (std::strncmp(argv[i], "--trees=", 8) == 0) {
        o.trees = cli::number_flag<int>("trees", argv[i] + 8);
      } else if (std::strncmp(argv[i], "--depth=", 8) == 0) {
        o.depth = cli::number_flag<int>("depth", argv[i] + 8);
      } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
        o.json_path = argv[i] + 7;
      } else {
        std::fprintf(stderr,
                     "unknown flag %s (supported: --scale= --trees= "
                     "--depth= --json= --help)\n",
                     argv[i]);
        std::exit(2);
      }
    }
    return o;
  }
};

/// Per-phase modeled seconds, flattened over the span tree: each name gets
/// the sum of its spans' *self* seconds, so the values partition the total.
inline void accumulate_phase_seconds(
    const obs::Span& s,
    std::vector<std::pair<std::string, double>>& out) {
  bool found = false;
  for (auto& [name, secs] : out) {
    if (name == s.name()) {
      secs += s.stats().modeled_self_seconds();
      found = true;
      break;
    }
  }
  if (!found) out.emplace_back(s.name(), s.stats().modeled_self_seconds());
  for (const auto& c : s.children()) accumulate_phase_seconds(*c, out);
}

/// Modeled find-split seconds of the `train` span under `parent`: the exact
/// trainer's `find_split` subtree plus the histogram trainer's build,
/// subtract and find phases.  A later training under the same parent merges
/// into the same `train` span, so read this before running another trainer.
inline double find_split_seconds(const obs::Span& parent) {
  const obs::Span* train = parent.child("train");
  if (train == nullptr) return 0.0;
  double seconds = 0.0;
  for (const char* phase :
       {"find_split", "hist_build", "hist_subtract", "hist_find_split"}) {
    if (const obs::Span* s = train->child(phase)) {
      seconds += s->modeled_total_seconds();
    }
  }
  return seconds;
}

/// Accumulates bench cases and writes the gbdt-bench-v1 report on
/// destruction (no-op without --json=).
class BenchJson {
 public:
  BenchJson(const char* bench, const Options& o)
      : path_(o.json_path), doc_(obs::Json::object()) {
    doc_["schema"] = "gbdt-bench-v1";
    doc_["bench"] = bench;
    auto op = obs::Json::object();
    op["scale"] = o.scale;
    op["trees"] = o.trees;
    op["depth"] = o.depth;
    doc_["options"] = std::move(op);
    doc_["cases"] = obs::Json::array();
  }
  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;
  ~BenchJson() { flush(); }

  [[nodiscard]] bool enabled() const { return !path_.empty(); }
  void append(obs::Json c) { doc_["cases"].push_back(std::move(c)); }

  /// Writes the report (idempotent; also called by the destructor).
  void flush() {
    if (path_.empty() || written_) return;
    written_ = true;
    if (!obs::write_json_file(path_, doc_)) {
      std::fprintf(stderr, "failed to write JSON report to %s\n",
                   path_.c_str());
    }
  }

 private:
  std::string path_;
  obs::Json doc_;
  bool written_ = false;
};

/// RAII recorder for one bench case: activates an ObsSession so trainer
/// spans, kernel stats and allocator high-water marks are captured, then
/// appends {name, metrics, phases, trace} to the sink on close.
///
/// modeled_seconds / wall_seconds / peak_device_bytes are derived from the
/// trace unless the bench set them explicitly via metric() — benches that
/// run several trainers per case should set modeled_seconds to the metric
/// the table prints, so --compare tracks the same number.
class BenchCase {
 public:
  BenchCase(BenchJson& sink, std::string name)
      : sink_(&sink), name_(std::move(name)), metrics_(obs::Json::object()) {
    session_.activate();
    wall_start_ = std::chrono::steady_clock::now();
  }
  BenchCase(const BenchCase&) = delete;
  BenchCase& operator=(const BenchCase&) = delete;
  ~BenchCase() { close(); }

  void metric(const char* key, double value) { metrics_[key] = value; }

  /// Marks the case's modeled seconds as following host wall-clock timing
  /// (e.g. serving batches that close on host time), so `gbdt_bench
  /// --compare` prints the case without gating it.
  void modeled_follows_wall_clock() { wall_clock_ = true; }

  /// The case's span tree so far (read it between trainer runs).
  [[nodiscard]] const obs::Span& root() const { return session_.root(); }

  /// Drops the case without appending it to the report — for configurations
  /// that turn out infeasible at the current scale (e.g. a histogram arena
  /// that would not fit device memory).
  void skip() {
    if (sink_ == nullptr) return;
    session_.deactivate();
    sink_ = nullptr;
  }

  void close() {
    if (sink_ == nullptr) return;
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start_)
            .count();
    session_.deactivate();
    const obs::Span& root = session_.root();
    if (!metrics_.contains("modeled_seconds")) {
      metrics_["modeled_seconds"] = root.modeled_total_seconds();
    }
    if (!metrics_.contains("wall_seconds")) metrics_["wall_seconds"] = wall;
    if (!metrics_.contains("peak_device_bytes")) {
      metrics_["peak_device_bytes"] =
          static_cast<std::uint64_t>(root.peak_device_bytes_total());
    }
    if (sink_->enabled()) {
      auto c = obs::Json::object();
      c["name"] = name_;
      if (wall_clock_) c["modeled_follows_wall_clock"] = true;
      c["metrics"] = std::move(metrics_);
      std::vector<std::pair<std::string, double>> phases;
      accumulate_phase_seconds(root, phases);
      auto ph = obs::Json::object();
      for (auto& [pname, secs] : phases) ph[pname] = secs;
      c["phases"] = std::move(ph);
      c["trace"] = root.to_json();
      sink_->append(std::move(c));
    }
    sink_ = nullptr;
  }

 private:
  BenchJson* sink_;
  std::string name_;
  obs::Json metrics_;
  bool wall_clock_ = false;
  obs::ObsSession session_;
  std::chrono::steady_clock::time_point wall_start_;
};

/// One GPU-GBDT training run on a fresh simulated Titan X.
inline TrainReport run_gpu(const data::Dataset& ds, const GBDTParam& param) {
  device::Device dev(device::DeviceConfig::titan_x_pascal());
  GpuGbdtTrainer trainer(dev, param);
  return trainer.train(ds);
}

/// One instrumented CPU run; modeled seconds are read per thread count.
inline baseline::CpuTrainReport run_cpu(const data::Dataset& ds,
                                        const GBDTParam& param) {
  baseline::XgbExactTrainer trainer(param);
  return trainer.train(ds);
}

inline const device::CpuConfig& cpu_config() {
  static const device::CpuConfig cfg = device::CpuConfig::dual_xeon_e5_2640v4();
  return cfg;
}

inline GBDTParam paper_param(const Options& o) {
  GBDTParam p;
  p.depth = o.depth;
  p.n_trees = o.trees;
  return p;
}

inline void print_header(const char* title, const Options& o) {
  std::printf("================================================================\n");
  std::printf("%s\n", title);
  std::printf("analog scale %.3g, %d trees, depth %d "
              "(modeled seconds; see EXPERIMENTS.md)\n",
              o.scale, o.trees, o.depth);
  std::printf("================================================================\n");
}

}  // namespace gbdt::bench
