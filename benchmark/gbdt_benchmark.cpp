// Repository benchmark: trains the paper's configuration (40 trees, depth 6,
// Titan X preset) on four workloads and reports end-to-end metrics on both
// clocks (host wall seconds and modeled device seconds), or, with --trace,
// per-layer metrics from the obs span tree.  See README.md in this directory
// for the workloads, the metrics and the comparison protocol.
//
//   gbdt_benchmark --workload dense-exact --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object:
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
// Every earlier line is a human-readable detail document (raw samples,
// sample counts, build and host facts, absent per-layer metrics).
//
// The benchmark measures every layer from outside, by timing calls into
// public functions.  From the library it reads only Device::elapsed_seconds(),
// timeline() and allocator().peak(), the obs spans, and a trained forest's
// trees, base score and training scores.
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "core/gbdt.h"
#include "core/out_of_core.h"
#include "core/predictor.h"
#include "data/libsvm_io.h"
#include "data/synthetic.h"
#include "device/device_context.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace {

using gbdt::obs::Json;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ---- workloads -------------------------------------------------------------

enum class Path { kExact, kHist, kOutOfCore };

struct Workload {
  std::string_view name;
  std::string_view analog;  // paper dataset whose shape the data reproduces
  double scale;             // multiplies the analog's cardinality
  std::int64_t attributes;  // 0: the analog's own count
  Path path;
  unsigned host_workers;
};

// Why each workload exists is recorded in README.md and BENCHMARK.json.
// dense-exact and ooc-stream share one dataset, so the two device paths
// train the same forest on the same rows.  Sizes keep a train under 2 s, so
// a 25 s run holds at least ten, and the median of more trains is steadier.
// sparse-rle's cost is set by its attributes per tree node, so it keeps
// 12,500 of news20's 40,000; 12,500 / 1,200 train rows still fires the RLE
// gate, which needs more than 10 attributes per row.
constexpr Workload kWorkloads[] = {
    {"dense-exact", "higgs", 0.1, 0, Path::kExact, 1},
    {"sparse-rle", "news20", 0.25, 12500, Path::kExact, 1},
    {"hist-mt", "higgs", 1.0, 0, Path::kHist, 4},
    {"ooc-stream", "higgs", 0.1, 0, Path::kOutOfCore, 1},
};

// 28 column chunks of the dense-exact dataset (the smallest chunk allowed).
constexpr std::size_t kOocChunkBytes = std::size_t{64} << 10;
// Prediction always runs on one host worker: predict_resident accumulates
// the trees of one row from different blocks with a plain `+=`, so on a
// multi-worker pool its scores race and are not bitwise reproducible.
constexpr unsigned kPredictWorkers = 1;
// --smoke and --self-test: every workload at tiny scale with 2 trees.
constexpr double kSmokeScale = 0.05;
constexpr int kSmokeTrees = 2;
constexpr int kWarmupTrees = 2;
// A run repeats set-up, train and predict, in turn, at least kMinSamples
// times and until --seconds have passed.
constexpr int kMinSamples = 3;
// Within one such iteration, set-up and prediction each repeat until they
// have used this much wall time.
constexpr double kCheapSeconds = 0.1;
// The median time of HostSpeed's reference computation on the host the
// benchmark was defined on (4-vCPU Xeon VM).  Reported wall times are scaled
// to a host on which the reference takes this long.
constexpr double kReferenceSeconds = 0.2;

// ---- options ---------------------------------------------------------------

struct Options {
  std::vector<const Workload*> workloads;
  std::uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
  bool smoke = false;
  bool self_test = false;  // corrupt one score and one forest byte
  std::string run_dir = "build-benchmark/run";
  std::string spec_path = "BENCHMARK.json";

  /// --smoke and --self-test run every workload at tiny scale.
  [[nodiscard]] bool tiny() const { return smoke || self_test; }
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "gbdt_benchmark: %s\n"
               "usage: gbdt_benchmark --workload <name>[,<name>...] "
               "[--seed N] [--seconds S] [--trace 0|1] [--run-dir DIR]\n"
               "       gbdt_benchmark --smoke [--spec BENCHMARK.json]\n"
               "       gbdt_benchmark --self-test\n"
               "workloads: dense-exact sparse-rle hist-mt ooc-stream all\n",
               msg.c_str());
  std::exit(2);
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::optional<std::string> value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    }
    // `--trace` alone means `--trace 1`; every other option takes a value.
    const auto next = [&]() -> std::string {
      if (value) return *value;
      if (i + 1 >= argc) usage_error("missing value for " + key);
      return argv[++i];
    };
    try {
      if (key == "--workload") {
        std::stringstream names(next());
        for (std::string n; std::getline(names, n, ',');) {
          if (n == "all") {
            for (const Workload& w : kWorkloads) o.workloads.push_back(&w);
          } else if (const Workload* w = find_workload(n)) {
            o.workloads.push_back(w);
          } else {
            usage_error("unknown workload '" + n + "'");
          }
        }
      } else if (key == "--seed") {
        o.seed = std::stoull(next());
      } else if (key == "--seconds") {
        o.seconds = std::stod(next());
        if (!(o.seconds >= 0.0) || o.seconds > 600.0) {
          usage_error("--seconds must be in [0, 600]");
        }
      } else if (key == "--trace") {
        const bool has_value =
            value || (i + 1 < argc && std::string_view(argv[i + 1]) != "" &&
                      argv[i + 1][0] != '-');
        const std::string v = has_value ? next() : "1";
        if (v != "0" && v != "1") usage_error("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (key == "--run-dir") {
        o.run_dir = next();
      } else if (key == "--spec") {
        o.spec_path = next();
      } else if (key == "--smoke" && !value) {
        o.smoke = true;
      } else if (key == "--self-test" && !value) {
        o.self_test = true;
      } else {
        usage_error("unknown option " + std::string(argv[i]));
      }
    } catch (const std::logic_error&) {  // stoull / stod
      usage_error("bad value for " + key);
    }
  }
  if (o.tiny()) {
    if (o.workloads.empty()) {
      for (const Workload& w : kWorkloads) o.workloads.push_back(&w);
    }
    o.seconds = 0.0;
  }
  if (o.workloads.empty()) usage_error("--workload is required");
  return o;
}

// ---- build and host guard --------------------------------------------------

#ifndef GBDT_BM_BUILD_TYPE
#define GBDT_BM_BUILD_TYPE ""
#endif
#ifndef GBDT_BM_CXX_FLAGS
#define GBDT_BM_CXX_FLAGS ""
#endif
#ifndef GBDT_BM_GIT_REV
#define GBDT_BM_GIT_REV "unknown"
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

unsigned host_cpus() {
  return std::max(1u, std::thread::hardware_concurrency());
}

Json build_info() {
  Json b = Json::object();
  b["build_type"] = GBDT_BM_BUILD_TYPE;
  b["cxx_flags"] = GBDT_BM_CXX_FLAGS;
  b["optimized"] = kOptimized;
  b["git_rev"] = GBDT_BM_GIT_REV;
  b["nproc"] = static_cast<int>(host_cpus());
  return b;
}

// ---- correctness checks ----------------------------------------------------

/// Counts checks instead of throwing, so one bad number does not hide the
/// rest; fail_ratio = failed / attempted.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  }
  [[nodiscard]] int attempted() const { return attempted_; }
  [[nodiscard]] int failed() const { return failed_; }

 private:
  int attempted_ = 0;
  int failed_ = 0;
};

// ---- metrics ---------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  std::optional<double> value;  // nullopt: the workload does not run this path
  std::vector<double> samples;
};

/// The span metrics of the traced run: `<layer>.<span>.{wall_s,modeled_s}`,
/// each the span's self time per train.  Layer names are module names.
/// `absent_on` names the workloads whose path never opens the span; the
/// traced run checks that exactly these spans are missing, so a span that
/// vanishes fails a check instead of reading as 0.
struct SpanMetric {
  const char* layer;
  const char* span;
  std::string_view absent_on;  // space-separated workload names
};
constexpr std::string_view kOnlyExact = "hist-mt ooc-stream";
constexpr std::string_view kOnlyRle = "dense-exact hist-mt ooc-stream";
constexpr std::string_view kOnlyHist = "dense-exact sparse-rle ooc-stream";
constexpr std::string_view kOnlyOoc = "dense-exact sparse-rle hist-mt";
constexpr SpanMetric kSpanMetrics[] = {
    {"data", "csc_build", kOnlyExact},
    {"objective", "gradient_compute", ""},
    {"primitives", "set_key", kOnlyExact},
    {"primitives", "gain_prefix_sum", kOnlyExact},
    {"primitives", "compute_gains", kOnlyExact},
    {"primitives", "setkey_argmax", kOnlyExact},
    {"primitives", "mark_sides", kOnlyExact},
    {"primitives", "partition", kOnlyExact},
    {"rle", "rle_compress", kOnlyRle},
    {"rle", "rle_direct_split", kOnlyRle},
    {"core", "train", "ooc-stream"},
    {"core", "find_split", "hist-mt"},
    {"core", "split_node", "hist-mt"},
    {"core", "reset_layout", kOnlyExact},
    {"core", "ooc_train", kOnlyOoc},
    {"hist", "hist_quantize", kOnlyHist},
    {"hist", "hist_build", kOnlyHist},
    {"hist", "hist_subtract", kOnlyHist},
    {"hist", "hist_find_split", kOnlyHist},
    {"hist", "hist_split_node", kOnlyHist},
    {"ooc", "chunk_io", kOnlyOoc},
};

bool absent_on(const SpanMetric& sm, std::string_view workload) {
  std::istringstream names{std::string(sm.absent_on)};
  for (std::string n; names >> n;) {
    if (n == workload) return true;
  }
  return false;
}

struct SelfTime {
  double wall_s = 0.0;
  double modeled_s = 0.0;
};

/// Self time of every span in the subtree, summed by span name.
void accumulate_self(const gbdt::obs::Span& s,
                     std::map<std::string, SelfTime>& out) {
  double child_wall = 0.0;
  for (const auto& c : s.children()) {
    child_wall += c->stats().wall_seconds;
    accumulate_self(*c, out);
  }
  SelfTime& t = out[s.name()];
  t.wall_s += s.stats().wall_seconds - child_wall;
  t.modeled_s += s.stats().modeled_self_seconds();
}

// ---- inputs ----------------------------------------------------------------

constexpr int kSignalAttrs = 8;
constexpr int kSignalLevels = 12;

/// The analog's rows with its first kSignalAttrs attributes present in every
/// row and a regression label recomputed from them.  The analogs pick a
/// row's attributes uniformly, so at news20's 0.2 % density a signal
/// attribute is present in about 3 of 1,500 rows, the label is noise, and no
/// model beats a constant on held-out rows.  The target's weights are fixed
/// and `spec.seed` draws only the rows; with continuous labels rather than
/// the analog's 0/1 classes, test_rmse then varies little across seeds.
gbdt::data::Dataset make_dataset(const gbdt::data::SyntheticSpec& spec) {
  const gbdt::data::Dataset raw = gbdt::data::generate(spec);
  std::mt19937 task(7);
  std::normal_distribution<float> weight(0.f, 1.f);
  std::array<float, kSignalAttrs> w{};
  for (float& x : w) x = weight(task);

  std::mt19937 rng(spec.seed);
  std::normal_distribution<float> noise(
      0.f, static_cast<float>(spec.label_noise));
  std::uniform_real_distribution<float> cont(-1.f, 1.f);
  std::uniform_int_distribution<int> level(0, kSignalLevels - 1);
  // Categorical analogs get values from a small grid, so their signal
  // columns compress like the rest of the data.
  const auto draw = [&] {
    if (spec.distinct_values == 0) return cont(rng);
    return -1.f + 2.f * static_cast<float>(level(rng)) / (kSignalLevels - 1);
  };

  gbdt::data::Dataset ds(
      std::max<std::int64_t>(raw.n_attributes(), kSignalAttrs));
  std::vector<gbdt::data::Entry> row;
  for (std::int64_t i = 0; i < raw.n_instances(); ++i) {
    const auto in = raw.instance(i);
    std::array<float, kSignalAttrs> v{};
    for (float& x : v) x = draw();
    auto it = in.begin();
    for (; it != in.end() && it->attr < kSignalAttrs; ++it) {
      v[static_cast<std::size_t>(it->attr)] = it->value;
    }
    row.clear();
    float y = 0.5f * v[0] * v[1] + noise(rng);
    for (int a = 0; a < kSignalAttrs; ++a) {
      const auto au = static_cast<std::size_t>(a);
      row.push_back({a, v[au]});
      y += w[au] * v[au];
    }
    row.insert(row.end(), it, in.end());
    ds.add_instance(row, y);
  }
  return ds;
}

// ---- one workload run ------------------------------------------------------

/// What one train call produced, read through the public API only.
struct TrainOutcome {
  double wall_s = 0.0;
  double modeled_s = 0.0;  // makespan
  double peak_mb = 0.0;
  // Untimed reads of the device after the call.
  std::uint64_t launches = 0;
  std::uint64_t blocks = 0;
  double kernel_busy_s = 0.0;
  double transfer_busy_s = 0.0;
  double coalesced_mb = 0.0;
  double irregular_maccesses = 0.0;
  double h2d_mb = 0.0;
  double overlap_ratio = 0.0;
  std::uint64_t alloc_calls = 0;
};

class WorkloadRun {
 public:
  WorkloadRun(const Workload& w, const Options& o) : w_(w), o_(o) {
    param_.n_trees = o.tiny() ? kSmokeTrees : 40;
    param_.depth = 6;
    param_.use_hist_trainer = w.path == Path::kHist;
  }
  WorkloadRun(const WorkloadRun&) = delete;
  WorkloadRun& operator=(const WorkloadRun&) = delete;
  ~WorkloadRun() {
    std::error_code ignored;
    if (!path_.empty()) std::filesystem::remove(path_, ignored);
  }

  /// Generates the dataset from the seed and writes it as LibSVM text; from
  /// here on the program sees only that file, which the run deletes at exit.
  void write_input() {
    const double scale = w_.scale * (o_.tiny() ? kSmokeScale : 1.0);
    auto spec = gbdt::data::paper_dataset(std::string(w_.analog), scale).spec;
    spec.seed = static_cast<unsigned>(o_.seed ^ (o_.seed >> 32));
    if (w_.attributes > 0) spec.n_attributes = w_.attributes;
    std::filesystem::create_directories(o_.run_dir);
    std::ostringstream name;
    name << w_.analog << "-x" << scale << "-seed" << o_.seed << ".libsvm";
    path_ = (std::filesystem::path(o_.run_dir) / name.str()).string();
    gbdt::data::write_libsvm_file(make_dataset(spec), path_);
    file_mb_ = static_cast<double>(std::filesystem::file_size(path_)) / 1e6;
  }

  /// One set-up: parse the file and split 80/20.  Returns its wall seconds;
  /// `parse_s` receives the parse share.
  double setup(double* parse_s = nullptr) {
    const gbdt::obs::ScopedSpan span("bm.setup");
    const auto t0 = Clock::now();
    all_ = gbdt::data::read_libsvm_file(path_);
    const double parsed = seconds_since(t0);
    std::tie(train_, test_) = all_.split_at(all_.n_instances() * 4 / 5);
    const double total = seconds_since(t0);
    if (parse_s != nullptr) *parse_s = parsed;
    return total;
  }

  void warm_up() {
    gbdt::GBDTParam p = param_;
    p.n_trees = std::min(kWarmupTrees, param_.n_trees);
    gbdt::device::Device dev(gbdt::device::DeviceConfig::titan_x_pascal(),
                             w_.host_workers);
    (void)train_on(dev, p);
  }

  /// One full train on a fresh device, plus the checks every train runs.
  /// Under an active ObsSession the train call is the `bm.train` span.
  TrainOutcome train() {
    gbdt::device::Device dev(gbdt::device::DeviceConfig::titan_x_pascal(),
                             w_.host_workers);
    static gbdt::obs::Counter& alloc_calls =
        gbdt::obs::Registry::global().counter("gbdt_device_alloc_calls_total");
    const std::uint64_t allocs_before = alloc_calls.value();
    Forest f;
    TrainOutcome out;
    {
      const gbdt::obs::ScopedSpan span("bm.train");
      const auto t0 = Clock::now();
      f = train_on(dev, param_);
      out.wall_s = seconds_since(t0);
    }
    out.alloc_calls = alloc_calls.value() - allocs_before;

    const gbdt::device::Timeline& tl = dev.timeline();
    out.modeled_s = dev.elapsed_seconds();
    out.peak_mb = static_cast<double>(dev.allocator().peak()) / 1e6;
    out.launches = tl.launches;
    out.kernel_busy_s = tl.kernel_seconds;
    out.transfer_busy_s = tl.transfer_seconds;
    out.h2d_mb = static_cast<double>(tl.bytes_to_device) / 1e6;
    out.overlap_ratio = dev.overlap_ratio();
    for (const auto& [name, k] : tl.kernels) {
      out.blocks += k.stats.blocks;
      out.coalesced_mb += static_cast<double>(k.stats.coalesced_bytes) / 1e6;
      out.irregular_maccesses +=
          static_cast<double>(k.stats.irregular_accesses) / 1e6;
    }

    check_forest(f);
    forest_ = std::move(f);
    return out;
  }

  struct PredictOutcome {
    double wall_s = 0.0;
    double modeled_s = 0.0;
    double busy_s = 0.0;
  };

  /// predict_on_device over every parsed row on a fresh device, checked bit
  /// for bit against the host RowPredictor.
  PredictOutcome predict() {
    gbdt::device::Device dev(gbdt::device::DeviceConfig::titan_x_pascal(),
                             kPredictWorkers);
    std::vector<double> scores;
    PredictOutcome out;
    {
      const gbdt::obs::ScopedSpan span("bm.predict");
      const auto t0 = Clock::now();
      scores = gbdt::predict_on_device(dev, forest_.trees, forest_.base_score,
                                       all_);
      out.wall_s = seconds_since(t0);
    }
    out.modeled_s = dev.elapsed_seconds();
    out.busy_s = dev.timeline().total_seconds();
    check_device_scores(scores);
    scores_ = std::move(scores);
    return out;
  }

  /// The predict pass split at the resident-API boundary: upload (forest +
  /// rows) and traversal.
  std::pair<double, double> predict_split() {
    gbdt::device::Device dev(gbdt::device::DeviceConfig::titan_x_pascal(),
                             kPredictWorkers);
    const auto t0 = Clock::now();
    const gbdt::DeviceForest forest(
        dev, gbdt::ForestSoA::flatten(forest_.trees, forest_.base_score));
    const gbdt::DeviceRows rows(dev, all_);
    const double upload_s = seconds_since(t0);
    auto out = dev.to_device<double>(std::vector<double>(
        static_cast<std::size_t>(all_.n_instances()), forest_.base_score));
    const auto t1 = Clock::now();
    gbdt::predict_resident(dev, forest, rows, out, 0, forest.n_trees());
    const double traverse_s = seconds_since(t1);
    check_device_scores(dev.to_host(out));
    return {upload_s, traverse_s};
  }

  /// RMSE of the last device predictions on the held-out rows; checked
  /// against a constant predictor fitted on the training labels.
  double test_rmse() {
    double mean = 0.0;
    for (float y : train_.labels()) mean += y;
    mean /= static_cast<double>(train_.labels().size());
    const std::int64_t head = train_.n_instances();
    double se = 0.0;
    double se_const = 0.0;
    for (std::int64_t i = 0; i < test_.n_instances(); ++i) {
      const double y = test_.labels()[static_cast<std::size_t>(i)];
      const double p = scores_[static_cast<std::size_t>(head + i)];
      se += (p - y) * (p - y);
      se_const += (mean - y) * (mean - y);
    }
    const double n = static_cast<double>(test_.n_instances());
    const double rmse = std::sqrt(se / n);
    checks_.expect(rmse < std::sqrt(se_const / n),
                   "test_rmse below the constant predictor's");
    return rmse;
  }

  [[nodiscard]] const Workload& workload() const { return w_; }
  [[nodiscard]] double file_mb() const { return file_mb_; }
  [[nodiscard]] std::int64_t n_rows() const { return all_.n_instances(); }
  [[nodiscard]] Checks& checks() { return checks_; }

 private:
  struct Forest {
    std::vector<gbdt::Tree> trees;
    double base_score = 0.0;
    std::vector<double> train_scores;
  };

  Forest train_on(gbdt::device::Device& dev, const gbdt::GBDTParam& p) const {
    if (w_.path == Path::kOutOfCore) {
      gbdt::OutOfCoreTrainer trainer(dev, p, kOocChunkBytes,
                                     /*stream_compressed=*/true);
      auto r = trainer.train(train_);
      return {std::move(r.trees), r.base_score, std::move(r.train_scores)};
    }
    auto [model, report] = gbdt::GBDTModel::train(dev, train_, p);
    return {model.trees(), model.base_score(), std::move(report.train_scores)};
  }

  /// Checks a trained forest against the run's first forest and against
  /// host scoring.  The host scores are recomputed only when the forest
  /// differs from the last one, so the checks leave time for more samples.
  void check_forest(const Forest& f) {
    std::ostringstream text;
    text.precision(17);
    text << f.base_score << '\n';
    for (const gbdt::Tree& t : f.trees) t.serialize(text);
    const std::string bytes = text.str();
    if (first_bytes_.empty()) {
      first_bytes_ = bytes;
    } else {
      std::string seen = bytes;
      if (o_.self_test && !forest_corrupted_) {
        seen[seen.size() / 2] ^= 0x01;
        forest_corrupted_ = true;
      }
      checks_.expect(seen == first_bytes_,
                     "serialized forests of every repeat are byte-identical");
    }

    if (bytes != host_bytes_) {
      host_bytes_ = bytes;
      const gbdt::GBDTModel model(param_, f.trees, f.base_score,
                                  train_.n_attributes());
      host_train_scores_ = model.predict(train_);
      const gbdt::RowPredictor rows(f.trees, f.base_score);
      host_row_scores_.clear();
      for (std::int64_t i = 0; i < all_.n_instances(); ++i) {
        host_row_scores_.push_back(rows.score(all_.instance(i)));
      }
    }
    bool ok = host_train_scores_.size() == f.train_scores.size();
    for (std::size_t i = 0; ok && i < f.train_scores.size(); ++i) {
      const double h = host_train_scores_[i];
      ok = std::abs(h - f.train_scores[i]) <= 1e-4 * std::max(1.0, std::abs(h));
    }
    checks_.expect(ok, "train_scores match the host predictor within 1e-4");
  }

  /// Device scores of the last trained forest equal the host RowPredictor's
  /// bit for bit, the contract in predictor.h.
  void check_device_scores(std::vector<double> scores) {
    if (o_.self_test && !score_corrupted_ && !scores.empty()) {
      scores[0] = std::nextafter(scores[0], 1e300);
      score_corrupted_ = true;
    }
    bool ok = scores.size() == host_row_scores_.size();
    for (std::size_t i = 0; ok && i < scores.size(); ++i) {
      ok = std::bit_cast<std::uint64_t>(scores[i]) ==
           std::bit_cast<std::uint64_t>(host_row_scores_[i]);
    }
    checks_.expect(ok, "device scores equal RowPredictor scores bit for bit");
  }

  const Workload& w_;
  const Options& o_;
  gbdt::GBDTParam param_;
  std::string path_;
  double file_mb_ = 0.0;
  gbdt::data::Dataset all_, train_, test_;
  Forest forest_;
  std::string first_bytes_;
  // Host scores of the forest serialized as host_bytes_.
  std::string host_bytes_;
  std::vector<double> host_train_scores_, host_row_scores_;
  std::vector<double> scores_;
  Checks checks_;
  bool forest_corrupted_ = false;
  bool score_corrupted_ = false;
};

/// Measures how fast the host runs right now.  On a shared VM the speed of
/// memory-bound code drifts by up to 1.8x over minutes, as neighbours come
/// and go on the shared last-level cache; CPU time drifts with it, so no
/// choice of clock removes it.  The reference is a fixed host computation
/// with the trainer's mix of primitives: a gather through a permutation, a
/// stable partition, a prefix sum and a sort over 8 MB arrays.  A run times
/// it at the start of every turn and scales each wall time taken in that
/// turn by kReferenceSeconds / (the reference's time).  In a set of ten runs
/// of each workload, this cut the spread of the median train time from
/// 10 %-21 % to 5 %-9.5 %.  Of the references tried (memory streaming,
/// pointer chasing, allocation, arithmetic, small sorts), this mix tracked
/// the trainers best.
class HostSpeed {
 public:
  HostSpeed() : values_(kN), gathered_(kN), perm_(kN) {
    std::mt19937 rng(3);
    std::uniform_real_distribution<float> uniform(0.f, 1.f);
    for (float& v : values_) v = uniform(rng);
    for (std::uint32_t i = 0; i < kN; ++i) perm_[i] = i;
    std::shuffle(perm_.begin(), perm_.end(), rng);
    (void)run();  // untimed: fault in the pages
  }

  /// Runs the reference once and records its wall seconds.  A run calls
  /// this at the start of every turn.
  void sample() { samples_.push_back(run()); }

  /// Multiplies a wall time measured in the current turn into seconds on a
  /// host on which the reference takes kReferenceSeconds.
  [[nodiscard]] double scale() const {
    return kReferenceSeconds / samples_.back();
  }

  /// The same for a wall time summed over the whole run, such as a span's.
  [[nodiscard]] double factor() const {
    return kReferenceSeconds / median(samples_);
  }

  [[nodiscard]] Json detail() const {
    Json d = Json::object();
    d["reference_s"] = kReferenceSeconds;
    d["factor"] = factor();
    Json s = Json::array();
    for (double v : samples_) s.push_back(v);
    d["samples"] = std::move(s);
    return d;
  }

 private:
  static constexpr std::uint32_t kN = 1u << 21;

  double run() {
    const auto t0 = Clock::now();
    double result = 0.0;
    for (int rep = 0; rep < 4; ++rep) {
      for (std::uint32_t i = 0; i < kN; ++i) gathered_[i] = values_[perm_[i]];
      std::stable_partition(gathered_.begin(), gathered_.end(),
                            [](float x) { return x < 0.5f; });
      double sum = 0.0;
      for (float& x : gathered_) x = static_cast<float>(sum += x);
      result += gathered_.back();
    }
    std::vector<float> sorted(values_.begin(), values_.begin() + kN / 2);
    std::sort(sorted.begin(), sorted.end());
    sink_ = result + sorted[kN / 4];
    return seconds_since(t0);
  }

  std::vector<float> values_, gathered_;
  std::vector<std::uint32_t> perm_;
  std::vector<double> samples_;
  volatile double sink_ = 0.0;  // keeps the computation observable
};

/// A sampled metric's value is the median of its samples.  Wall-time
/// samples arrive already scaled by HostSpeed; the detail document keeps
/// every sample and the reference times, from which the raw times follow.
Metric sampled(std::string name, std::string unit, std::vector<double> s) {
  const double value = median(s);
  return {std::move(name), std::move(unit), value, std::move(s)};
}

Metric single(std::string name, std::string unit, double v) {
  return {std::move(name), std::move(unit), v, {}};
}

/// Runs `body` at least kMinSamples times and until --seconds have passed.
/// The speed of a shared host drifts over seconds, so each metric samples
/// the whole run rather than one stretch of it.
template <typename F>
void repeat_for(const Options& o, F&& body) {
  const auto t0 = Clock::now();
  for (int n = 0; n < kMinSamples || seconds_since(t0) < o.seconds; ++n) {
    body();
  }
}

/// Runs `body`, which returns its wall seconds, until it has used
/// kCheapSeconds (or --seconds, if shorter), at least once.  A set-up or a
/// prediction can take 1/200 of a train, and one sample of it per train
/// left its value spread by 12 % across seeds.
template <typename F>
void repeat_cheap(const Options& o, F&& body) {
  const double budget = std::min(kCheapSeconds, o.seconds);
  double used = 0.0;
  do {
    used += body();
  } while (used < budget);
}

/// The untraced run: every end-to-end metric.
std::vector<Metric> run_end_to_end(WorkloadRun& run, const Options& o,
                                   Json& detail) {
  HostSpeed speed;
  run.setup();
  run.warm_up();
  std::vector<double> setup_s, train_s, train_modeled_s, peak_mb;
  std::vector<double> predict_s, predict_modeled_s;
  repeat_for(o, [&] {
    speed.sample();
    repeat_cheap(o, [&] {
      const double s = run.setup();
      setup_s.push_back(s * speed.scale());
      return s;
    });
    const TrainOutcome t = run.train();
    train_s.push_back(t.wall_s * speed.scale());
    train_modeled_s.push_back(t.modeled_s);
    peak_mb.push_back(t.peak_mb);
    repeat_cheap(o, [&] {
      const auto p = run.predict();
      predict_modeled_s.push_back(p.modeled_s);
      predict_s.push_back(p.wall_s * speed.scale());
      return p.wall_s;
    });
  });

  detail["host_speed"] = speed.detail();
  std::vector<Metric> m;
  m.push_back(sampled("setup_s", "s", setup_s));
  m.push_back(sampled("train_s", "s", train_s));
  m.push_back(sampled("train_modeled_s", "s", train_modeled_s));
  m.push_back(sampled("predict_s", "s", predict_s));
  m.push_back(sampled("predict_modeled_s", "s", predict_modeled_s));
  m.push_back(sampled("peak_device_mb", "MB", peak_mb));
  m.push_back(single("test_rmse", "label", run.test_rmse()));
  return m;
}

/// The traced run: every per-layer metric.  Untraced and traced trains
/// alternate so their ratio is the tracing overhead.
std::vector<Metric> run_traced(WorkloadRun& run, const Options& o,
                               Json& detail) {
  gbdt::obs::ObsSession session;
  HostSpeed speed;
  run.setup();
  run.warm_up();
  std::vector<double> parse_s, untraced_s, traced_s, upload_s, traverse_s;
  TrainOutcome last;
  double traced_busy_s = 0.0;
  repeat_for(o, [&] {
    speed.sample();
    double p = 0.0;
    session.activate();
    run.setup(&p);
    session.deactivate();
    parse_s.push_back(p * speed.scale());

    last = run.train();
    untraced_s.push_back(last.wall_s * speed.scale());
    session.activate();
    const TrainOutcome t = run.train();
    session.deactivate();
    traced_s.push_back(t.wall_s * speed.scale());
    traced_busy_s += t.kernel_busy_s + t.transfer_busy_s;

    const auto [up, tr] = run.predict_split();
    upload_s.push_back(up * speed.scale());
    traverse_s.push_back(tr * speed.scale());
  });
  session.activate();
  const double predict_busy_s = run.predict().busy_s;
  session.deactivate();
  (void)run.test_rmse();

  // Reconciliation guard: the span tree holds exactly the device's busy time.
  Checks& checks = run.checks();
  const auto reconcile = [&](const char* root, double busy_s) {
    const gbdt::obs::Span* span = session.root().child(root);
    const double spans = span == nullptr ? 0.0 : span->modeled_total_seconds();
    checks.expect(std::abs(spans - busy_s) <= 1e-9 * std::max(busy_s, 1e-300),
                  std::string(root) + ": span self modeled seconds sum to "
                  "the device's kernel + transfer seconds");
    Json r = Json::object();
    r["span_modeled_s"] = spans;
    r["device_busy_s"] = busy_s;
    detail["reconciliation"][root] = std::move(r);
  };
  reconcile("bm.train", traced_busy_s);
  reconcile("bm.predict", predict_busy_s);

  std::map<std::string, SelfTime> self;
  if (const gbdt::obs::Span* t = session.root().child("bm.train")) {
    accumulate_self(*t, self);
  }
  const double n_traced = static_cast<double>(traced_s.size());
  // Span wall times are summed over the run, so they take the run's factor.
  const double f = speed.factor();
  detail["host_speed"] = speed.detail();
  std::vector<Metric> m;
  m.push_back(sampled("data.parse_s", "s", parse_s));
  const double parse = *m.back().value;
  m.push_back(single("data.parse_mb_per_s", "MB/s", run.file_mb() / parse));

  std::string misplaced;
  for (const SpanMetric& sm : kSpanMetrics) {
    const std::string base = std::string(sm.layer) + "." + sm.span;
    const auto it = self.find(sm.span);
    std::optional<double> wall, modeled;
    if (it != self.end()) {
      wall = it->second.wall_s / n_traced * f;
      modeled = it->second.modeled_s / n_traced;
    }
    if ((it == self.end()) != absent_on(sm, run.workload().name)) {
      misplaced += " " + base;
    }
    m.push_back({base + ".wall_s", "s", wall, {}});
    m.push_back({base + ".modeled_s", "s", modeled, {}});
  }
  checks.expect(misplaced.empty(),
                "bm.train opens exactly the spans declared for " +
                    std::string(run.workload().name) + "; not so for" +
                    misplaced);

  const double train_s = median(untraced_s);
  const auto launches = static_cast<double>(last.launches);
  m.push_back(single("device.launches", "count", launches));
  m.push_back(single("device.blocks", "count",
                     static_cast<double>(last.blocks)));
  m.push_back(single("device.host_us_per_launch", "us",
                     1e6 * train_s / std::max(1.0, launches)));
  m.push_back(single("device.kernel_busy_s", "s", last.kernel_busy_s));
  m.push_back(single("device.coalesced_mb", "MB", last.coalesced_mb));
  m.push_back(single("device.irregular_maccesses", "Maccess",
                     last.irregular_maccesses));
  m.push_back(single("device.alloc_calls", "count",
                     static_cast<double>(last.alloc_calls)));
  m.push_back(single("device.transfer_busy_s", "s", last.transfer_busy_s));
  m.push_back(single("device.h2d_mb", "MB", last.h2d_mb));
  m.push_back(single("device.overlap_ratio", "ratio", last.overlap_ratio));

  m.push_back(sampled("predict.upload_s", "s", upload_s));
  m.push_back(sampled("predict.traverse_s", "s", traverse_s));
  const double traverse = *m.back().value;
  m.push_back(single("predict.rows_per_s", "rows/s",
                     static_cast<double>(run.n_rows()) / traverse));

  m.push_back(single("obs.overhead_ratio", "ratio",
                     median(traced_s) / train_s - 1.0));
  double unattributed = 0.0;
  for (const auto& [name, t] : self) {
    const bool declared =
        std::any_of(std::begin(kSpanMetrics), std::end(kSpanMetrics),
                    [&](const SpanMetric& sm) { return name == sm.span; });
    if (!declared) unattributed += t.modeled_s / n_traced;
  }
  checks.expect(unattributed == 0.0,
                "every modeled second under bm.train is in a declared span");
  m.push_back(single("obs.unattributed_modeled_s", "s", unattributed));

  Json spans = Json::object();
  for (const auto& [name, t] : self) {
    Json s = Json::object();
    s["self_wall_s"] = t.wall_s / n_traced;
    s["self_modeled_s"] = t.modeled_s / n_traced;
    spans[name] = std::move(s);
  }
  detail["spans_per_train"] = std::move(spans);
  return m;
}

// ---- output ----------------------------------------------------------------

struct Result {
  std::string workload;
  bool traced = false;
  std::vector<Metric> metrics;
  int attempted = 0;
  int failed = 0;
};

/// Prints the detail document, then the one-line result.  Metrics a
/// workload's path never runs are listed under "absent"; the result line
/// carries them as 0, because every declared metric must be present there.
void print_result(const Result& r, Json detail) {
  Json metrics = Json::object();
  Json absent = Json::array();
  for (const Metric& m : r.metrics) {
    Json d = Json::object();
    d["unit"] = m.unit;
    if (m.value) {
      d["value"] = *m.value;
    } else {
      absent.push_back(m.name);
    }
    if (!m.samples.empty()) {
      d["n"] = static_cast<int>(m.samples.size());
      d["median"] = median(m.samples);
      Json s = Json::array();
      for (double v : m.samples) s.push_back(v);
      d["samples"] = std::move(s);
    }
    metrics[m.name] = std::move(d);
  }
  detail["metrics"] = std::move(metrics);
  detail["absent"] = std::move(absent);
  std::printf("%s\n", detail.dump(2).c_str());

  Json line = Json::object();
  line["correct"] = r.failed == 0;
  line["attempted"] = r.attempted;
  line["failed"] = r.failed;
  Json out = Json::object();
  for (const Metric& m : r.metrics) {
    Json v = Json::object();
    v["value"] = m.value.value_or(0.0);
    v["unit"] = m.unit;
    out[m.name] = std::move(v);
  }
  line["metrics"] = std::move(out);
  std::printf("%s\n", line.dump(-1).c_str());
  std::fflush(stdout);
}

Result run_workload(const Workload& w, const Options& o, bool trace) {
  WorkloadRun run(w, o);
  run.write_input();
  Json detail = Json::object();
  detail["workload"] = std::string(w.name);
  detail["mode"] = trace ? "trace" : "end_to_end";
  detail["seed"] = static_cast<double>(o.seed);
  detail["host_workers"] = static_cast<int>(w.host_workers);
  detail["build"] = build_info();
  Result r;
  r.workload = std::string(w.name);
  r.traced = trace;
  r.metrics = trace ? run_traced(run, o, detail)
                    : run_end_to_end(run, o, detail);
  r.attempted = run.checks().attempted();
  r.failed = run.checks().failed();
  detail["fail_ratio"] =
      static_cast<double>(r.failed) / std::max(1, r.attempted);
  print_result(r, std::move(detail));
  return r;
}

/// --smoke: every declared metric is present, finite and in its declared
/// unit for every workload, in both runs, and no check fails.
bool smoke_matches_spec(const std::vector<Result>& results,
                        const std::string& spec_path) {
  std::string err;
  const Json spec = gbdt::obs::read_json_file(spec_path, &err);
  if (spec.is_null()) {
    std::fprintf(stderr, "smoke: cannot read %s: %s\n", spec_path.c_str(),
                 err.c_str());
    return false;
  }
  bool ok = true;
  for (const char* group : {"end_to_end", "per_layer"}) {
    const Json* declared = spec.find(group);
    if (declared == nullptr || declared->size() == 0) {
      std::fprintf(stderr, "smoke: %s declares no %s metrics\n",
                   spec_path.c_str(), group);
      return false;
    }
    const bool trace = std::string_view(group) == "per_layer";
    for (const Result& r : results) {
      if (r.traced != trace) continue;
      std::set<std::string> emitted;
      for (const Metric& m : r.metrics) emitted.insert(m.name);
      for (const Json& d : declared->items()) {
        const Json* n = d.find("name");
        const Json* u = d.find("unit");
        const std::string name = n == nullptr ? "" : n->str_or("");
        const std::string unit = u == nullptr ? "" : u->str_or("");
        const auto it =
            std::find_if(r.metrics.begin(), r.metrics.end(),
                         [&](const Metric& m) { return m.name == name; });
        if (it == r.metrics.end() || it->unit != unit ||
            !std::isfinite(it->value.value_or(0.0))) {
          std::fprintf(stderr, "smoke: %s: metric %s missing, not finite or "
                       "not in %s\n", r.workload.c_str(), name.c_str(),
                       unit.c_str());
          ok = false;
        }
        emitted.erase(name);
      }
      for (const std::string& extra : emitted) {
        std::fprintf(stderr, "smoke: %s: metric %s is not declared in %s\n",
                     r.workload.c_str(), extra.c_str(), spec_path.c_str());
        ok = false;
      }
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_options(argc, argv);
  if (std::string_view(GBDT_BM_BUILD_TYPE) != "Release" || !kOptimized) {
    std::fprintf(stderr,
                 "gbdt_benchmark: refusing to measure a non-Release or "
                 "unoptimized build (build type '%s')\n",
                 GBDT_BM_BUILD_TYPE);
    return 2;
  }
  for (const Workload* w : o.workloads) {
    if (w->host_workers > host_cpus()) {
      std::fprintf(stderr,
                   "gbdt_benchmark: warning: %s uses %u host workers on %u "
                   "CPUs; its wall times are oversubscribed\n",
                   std::string(w->name).c_str(), w->host_workers, host_cpus());
    }
  }

  std::vector<Result> results;
  try {
    for (const Workload* w : o.workloads) {
      if (o.smoke || !o.trace) results.push_back(run_workload(*w, o, false));
      if (o.smoke || o.trace) results.push_back(run_workload(*w, o, true));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gbdt_benchmark: %s\n", e.what());
    return 1;
  }

  bool ok = true;
  for (const Result& r : results) ok = ok && r.failed == 0;
  if (o.smoke) ok = smoke_matches_spec(results, o.spec_path) && ok;
  return ok ? 0 : 1;
}
