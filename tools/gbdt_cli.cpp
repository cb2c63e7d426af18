// gbdt — command-line interface to the GPU-GBDT library.
//
//   gbdt train   --data=train.libsvm --model=out.model [hyper-params...]
//   gbdt predict --data=test.libsvm --model=out.model [--output=pred.txt]
//   gbdt eval    --data=test.libsvm --model=out.model
//   gbdt dump    --model=out.model [--tree=K]
//   gbdt importance --model=out.model [--kind=gain|cover|splits]
//   gbdt synth   --out=data.libsvm --instances=N --attributes=D [...]
//   gbdt serve   --model=out.model --data=requests.libsvm|-  [serving knobs]
//   gbdt loadgen --model=out.model --data=requests.libsvm --rate=R [...]
//
// Run `gbdt help` (or any subcommand with --help) for the full flag list.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/autotune.h"
#include "core/cv.h"
#include "core/gbdt.h"
#include "core/metrics.h"
#include "core/predictor.h"
#include "data/libsvm_io.h"
#include "data/synthetic.h"
#include "device/device_context.h"
#include "multigpu/multi_trainer.h"
#include "number_flag.h"
#include "obs/trace.h"
#include "primitives/transform.h"
#include "serve/percentile.h"
#include "serve/service.h"

namespace {

using namespace gbdt;

/// Minimal --key=value flag parser.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        std::exit(2);
      }
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "1";
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
  }

  [[nodiscard]] std::string str(const std::string& key,
                                const std::string& def = "") const {
    const auto it = values_.find(key);
    if (it != values_.end()) used_.push_back(key);
    return it == values_.end() ? def : it->second;
  }
  /// The whole value of --key as a number of `def`'s type (number_flag.h),
  /// or `def` when the flag is absent.
  template <class T>
  [[nodiscard]] T num(const std::string& key, T def) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return def;
    used_.push_back(key);
    return cli::number_flag<T>(key, it->second);
  }
  [[nodiscard]] bool flag(const std::string& key) const {
    return str(key) == "1" || str(key) == "true";
  }
  [[nodiscard]] std::string require(const std::string& key) const {
    const auto s = str(key);
    if (s.empty()) {
      std::fprintf(stderr, "missing required flag --%s=\n", key.c_str());
      std::exit(2);
    }
    return s;
  }

  /// Exits 2 naming the first flag the subcommand never read, so a typo or
  /// a flag meant for another subcommand cannot be silently ignored.  Call
  /// once every flag the subcommand reads has been read.
  void reject_unused() const {
    for (const auto& [k, v] : values_) {
      if (std::find(used_.begin(), used_.end(), k) == used_.end()) {
        std::fprintf(stderr, "flag --%s is not read by this subcommand\n",
                     k.c_str());
        std::exit(2);
      }
    }
  }

 private:
  std::map<std::string, std::string> values_;
  mutable std::vector<std::string> used_;
};

device::DeviceConfig device_by_name(const std::string& name) {
  if (name == "titanx" || name.empty()) return device::DeviceConfig::titan_x_pascal();
  if (name == "p100") return device::DeviceConfig::tesla_p100();
  if (name == "k20") return device::DeviceConfig::tesla_k20();
  std::fprintf(stderr, "unknown device '%s' (use titanx|p100|k20)\n",
               name.c_str());
  std::exit(2);
}

GBDTParam params_from(const Flags& f) {
  GBDTParam p;
  p.depth = f.num("depth", p.depth);
  p.n_trees = f.num("trees", p.n_trees);
  p.eta = f.num("eta", p.eta);
  p.lambda = f.num("lambda", p.lambda);
  p.gamma = f.num("gamma", p.gamma);
  p.base_score = f.num("base-score", p.base_score);
  p.rle_threshold_r = f.num("rle-threshold", p.rle_threshold_r);
  const std::string loss = f.str("loss", "l2");
  if (loss == "l2" || loss == "squared") {
    p.loss = LossKind::kSquaredError;
  } else if (loss == "logistic" || loss == "binary") {
    p.loss = LossKind::kLogistic;
  } else {
    std::fprintf(stderr, "unknown loss '%s' (use l2|logistic)\n", loss.c_str());
    std::exit(2);
  }
  const std::string objective = f.str("objective", "pointwise");
  if (objective == "ranking") {
    p.objective = ObjectiveKind::kRanking;
  } else if (objective != "pointwise") {
    std::fprintf(stderr, "unknown objective '%s' (use pointwise|ranking)\n",
                 objective.c_str());
    std::exit(2);
  }
  p.ndcg_k = f.num("ndcg-k", p.ndcg_k);
  p.subsample = f.num("subsample", p.subsample);
  const std::string bag = f.str("feature-bag", "all");
  if (bag == "all") {
    p.feature_bag = 0;
  } else if (bag == "sqrt") {
    p.feature_bag = -1;
  } else {
    p.feature_bag = cli::number_flag<std::int64_t>("feature-bag", bag);
    if (p.feature_bag <= 0) {
      std::fprintf(stderr, "bad --feature-bag '%s' (use sqrt|all|N)\n",
                   bag.c_str());
      std::exit(2);
    }
  }
  p.sampling_seed = f.num("sample-seed", p.sampling_seed);
  p.eval_freq = f.num("eval-freq", p.eval_freq);
  if (p.eval_freq < 1) {
    std::fprintf(stderr, "--eval-freq must be >= 1\n");
    std::exit(2);
  }
  const std::string method = f.str("method", "exact");
  if (method == "hist") {
    p.use_hist_trainer = true;
  } else if (method != "exact") {
    std::fprintf(stderr, "unknown method '%s' (use exact|hist)\n",
                 method.c_str());
    std::exit(2);
  }
  p.n_bins = f.num("bins", p.n_bins);
  if (f.flag("no-rle")) p.use_rle = false;
  if (f.flag("force-rle")) p.force_rle = true;
  if (f.flag("no-smartgd")) p.use_smart_gd = false;
  if (f.flag("no-setkey")) p.use_custom_setkey = false;
  if (f.flag("no-idxcomp")) p.use_custom_idxcomp_workload = false;
  if (f.flag("no-direct-rle")) p.use_direct_rle_split = false;
  if (f.flag("autotune")) p.autotune = true;
  return p;
}

/// One span row; `total` is the session's modeled seconds, so the share
/// column shows e.g. find-split's fraction of training (paper §IV-A).  Like
/// the modeled column, the transfer, thread-block and irregular-transaction
/// counts cover the span's subtree.
void print_profile_row(const obs::Span& s, int indent, double total) {
  const double modeled = s.modeled_total_seconds();
  const device::KernelStats k = s.kernel_stats_total();
  std::fprintf(stderr,
               "  %*s%-*s %12.6f %6.1f%% %10.3f %8llu %9llu %10llu %10llu\n",
               indent, "", 30 - indent, s.name().c_str(), modeled,
               total > 0.0 ? 100.0 * modeled / total : 0.0,
               s.stats().wall_seconds,
               static_cast<unsigned long long>(s.stats().invocations),
               static_cast<unsigned long long>(s.transfers_total()),
               static_cast<unsigned long long>(k.blocks),
               static_cast<unsigned long long>(k.irregular_accesses));
  for (const auto& c : s.children()) {
    print_profile_row(*c, indent + 2, total);
  }
}

void print_profile(const obs::ObsSession& session) {
  std::fprintf(stderr, "\nprofile (per training phase):\n");
  std::fprintf(stderr, "  %-30s %12s %7s %10s %8s %9s %10s %10s\n", "phase",
               "modeled(s)", "share", "wall(s)", "calls", "transfers",
               "blocks", "irregular");
  const double total = session.root().modeled_total_seconds();
  for (const auto& c : session.root().children()) {
    print_profile_row(*c, 0, total);
  }
  std::fprintf(stderr, "  peak device memory: %.1f MiB\n",
               static_cast<double>(session.root().peak_device_bytes_total()) /
                   (1 << 20));
}

/// `per` names what the predictions cover: one tree (exact), or the
/// whole training (histogram, which keys its grid at most `depth` times).
void print_tuning(const autotune::TuningReport& t, const char* per) {
  std::fprintf(stderr, "\ntuning (cost-model autotuner):\n");
  std::fprintf(stderr,
               "  setkey: %s, predicted find-split %.6f s/%s "
               "(paper C=1000: %.6f s/%s)\n",
               t.use_custom_setkey
                   ? ("custom C=" + std::to_string(t.setkey_c)).c_str()
                   : "one block per segment",
               t.tuned_find_split_seconds, per, t.baseline_find_split_seconds,
               per);
  std::fprintf(stderr, "  setkey sweep:");
  for (const auto& c : t.candidates) {
    if (c.use_custom_setkey) {
      std::fprintf(stderr, " C=%lld:%.2ems",
                   static_cast<long long>(c.setkey_c),
                   c.find_split_seconds * 1e3);
    } else {
      std::fprintf(stderr, " off:%.2ems", c.find_split_seconds * 1e3);
    }
  }
  std::fprintf(stderr, "\n");
  std::fprintf(stderr,
               "  idxcomp workload: %s (custom %.6f s vs naive %.6f s at the "
               "deepest level)\n",
               t.use_custom_idxcomp_workload ? "custom" : "naive",
               t.partition_custom_seconds, t.partition_naive_seconds);
}

int cmd_train(const Flags& f) {
  const auto data_path = f.require("data");
  const auto model_path = f.require("model");
  device::Device dev(device_by_name(f.str("device")));
  const auto param = params_from(f);
  const auto query_path = f.str("query-file");
  const auto valid_path = f.str("valid");
  const auto valid_query_path = f.str("valid-query-file");
  const int early = f.num("early-stopping", 0);
  const bool profile = f.flag("profile");
  const int gpus = f.num("gpus", 1);
  const std::string link_str = f.str("link", "pcie");
  f.reject_unused();

  auto ds = data::read_libsvm_file(data_path);
  std::fprintf(stderr, "loaded %lld instances x %lld attributes from %s\n",
               static_cast<long long>(ds.n_instances()),
               static_cast<long long>(ds.n_attributes()), data_path.c_str());
  if (!query_path.empty()) {
    data::read_query_file(ds, query_path);
    std::fprintf(stderr, "loaded %lld query groups from %s\n",
                 static_cast<long long>(ds.n_queries()), query_path.c_str());
  }
  if (param.objective == ObjectiveKind::kRanking && !ds.has_queries()) {
    std::fprintf(stderr,
                 "--objective=ranking needs query groups: pass "
                 "--query-file=F (one docs-per-query count per line)\n");
    return 2;
  }

  multigpu::Interconnect link = multigpu::Interconnect::pcie3();
  if (gpus > 1) {
    if (!valid_path.empty()) {
      std::fprintf(stderr,
                   "--gpus>1 does not support --valid/--early-stopping\n");
      return 2;
    }
    if (link_str == "nvlink") {
      link = multigpu::Interconnect::nvlink();
    } else if (link_str != "pcie") {
      std::fprintf(stderr, "unknown link '%s' (use pcie|nvlink)\n",
                   link_str.c_str());
      return 2;
    }
  }

  obs::ObsSession session;
  if (profile) session.activate();
  GBDTModel model;
  TrainReport report;
  if (gpus > 1) {
    multigpu::MultiGpuTrainer trainer(device_by_name(f.str("device")), gpus,
                                      param, link);
    auto r = trainer.train(ds);
    std::fprintf(stderr,
                 "sharded over %d devices: comm %.4f s, %.1f MiB, %llu msgs\n",
                 gpus, r.comm.seconds,
                 static_cast<double>(r.comm.bytes) / (1 << 20),
                 static_cast<unsigned long long>(r.comm.messages));
    model = GBDTModel(param, r.trees, r.base_score, ds.n_attributes());
    report = std::move(r);  // modeled seconds: the critical path
  } else if (!valid_path.empty()) {
    auto valid = data::read_libsvm_file(valid_path);
    if (!valid_query_path.empty()) data::read_query_file(valid, valid_query_path);
    if (param.objective == ObjectiveKind::kRanking && !valid.has_queries()) {
      std::fprintf(stderr,
                   "--objective=ranking scores validation by NDCG: pass "
                   "--valid-query-file=F\n");
      return 2;
    }
    auto [m, r, history] = GBDTModel::train_with_validation(
        dev, ds, valid, param, early);
    model = std::move(m);
    report = std::move(r);
    double best_metric = history.metric.empty() ? 0.0 : history.metric[0];
    for (std::size_t i = 0; i < history.eval_iteration.size(); ++i) {
      if (history.eval_iteration[i] == history.best_iteration) {
        best_metric = history.metric[i];
      }
    }
    std::fprintf(stderr, "validation %s: best %.6f at tree %d%s\n",
                 history.metric_name.c_str(), best_metric,
                 history.best_iteration,
                 history.stopped_early ? " (early stop)" : "");
  } else {
    auto [m, r] = GBDTModel::train(dev, ds, param);
    model = std::move(m);
    report = std::move(r);
  }
  if (profile) {
    session.deactivate();
    print_profile(session);
  }
  if (param.autotune) {
    print_tuning(report.tuning, param.use_hist_trainer ? "training" : "tree");
  }
  model.save(model_path);
  std::fprintf(stderr,
               "trained %zu trees -> %s\n"
               "modeled device time %.4f s, wall %.2f s, "
               "peak device mem %.1f MiB, RLE %s (ratio %.2f)\n",
               model.trees().size(), model_path.c_str(),
               report.modeled_seconds, report.wall_seconds,
               static_cast<double>(report.peak_device_bytes) / (1 << 20),
               report.used_rle ? "on" : "off", report.rle_ratio);
  const double train_rmse = rmse(report.train_scores, ds.labels());
  std::fprintf(stderr, "train rmse %.6f\n", train_rmse);
  return 0;
}

int cmd_predict(const Flags& f) {
  const auto ds = data::read_libsvm_file(f.require("data"));
  const auto model = GBDTModel::load(f.require("model"));
  const auto out_path = f.str("output");
  const bool transform = f.flag("transform");
  device::Device dev(device_by_name(f.str("device")));
  f.reject_unused();

  // Device-resident scoring: the forest and the rows are each uploaded
  // exactly once (predict_on_device would re-upload per call).
  const DeviceForest forest(
      dev, ForestSoA::flatten(model.trees(), model.base_score()));
  const DeviceRows rows(dev, ds);
  auto d_out = dev.alloc<double>(static_cast<std::size_t>(ds.n_instances()));
  prim::fill(dev, d_out, model.base_score());
  predict_resident(dev, forest, rows, d_out, 0, forest.n_trees());
  auto scores = dev.to_host(d_out);
  if (transform) scores = model.transform_scores(scores);
  std::ostream* out = &std::cout;
  std::ofstream file;
  if (!out_path.empty()) {
    file.open(out_path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    out = &file;
  }
  out->precision(9);
  for (double s : scores) *out << s << '\n';
  return 0;
}

int cmd_eval(const Flags& f) {
  const auto ds = data::read_libsvm_file(f.require("data"));
  const auto model = GBDTModel::load(f.require("model"));
  f.reject_unused();
  const auto raw = model.predict(ds);
  const auto prob = model.transform_scores(raw);
  std::printf("instances: %lld\n", static_cast<long long>(ds.n_instances()));
  std::printf("rmse:      %.6f\n", rmse(raw, ds.labels()));
  std::printf("error:     %.6f\n", error_rate(prob, ds.labels()));
  return 0;
}

int cmd_dump(const Flags& f) {
  const auto model = GBDTModel::load(f.require("model"));
  const long which = f.num("tree", -1);
  f.reject_unused();
  for (std::size_t t = 0; t < model.trees().size(); ++t) {
    if (which >= 0 && static_cast<std::size_t>(which) != t) continue;
    std::printf("booster[%zu]:\n%s", t, model.trees()[t].dump().c_str());
  }
  return 0;
}

int cmd_importance(const Flags& f) {
  const auto model = GBDTModel::load(f.require("model"));
  const auto kind_s = f.str("kind", "gain");
  f.reject_unused();
  ImportanceKind kind = ImportanceKind::kGain;
  if (kind_s == "cover") kind = ImportanceKind::kCover;
  else if (kind_s == "splits") kind = ImportanceKind::kSplitCount;
  else if (kind_s != "gain") {
    std::fprintf(stderr, "unknown kind '%s' (gain|cover|splits)\n",
                 kind_s.c_str());
    return 2;
  }
  const auto imp = model.feature_importance(kind);
  std::vector<std::size_t> order(imp.size());
  for (std::size_t i = 0; i < imp.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return imp[a] > imp[b]; });
  for (std::size_t i : order) {
    if (imp[i] <= 0) break;
    std::printf("f%zu\t%.6f\n", i, imp[i]);
  }
  return 0;
}

int cmd_cv(const Flags& f) {
  const auto ds = data::read_libsvm_file(f.require("data"));
  const int folds = f.num("folds", 5);
  const unsigned seed = f.num("seed", 42U);
  device::Device dev(device_by_name(f.str("device")));
  const auto param = params_from(f);
  const int early = f.num("early-stopping", 0);
  f.reject_unused();
  const auto cv = cross_validate(dev, ds, param, folds, seed, early);
  for (std::size_t k = 0; k < cv.fold_metric.size(); ++k) {
    std::printf("fold %zu: %s = %.6f", k, cv.metric_name.c_str(),
                cv.fold_metric[k]);
    if (k < cv.fold_best_iteration.size()) {
      std::printf("  (best tree %d)", cv.fold_best_iteration[k]);
    }
    std::printf("\n");
  }
  std::printf("cv-%s: %.6f +/- %.6f (%d folds)\n", cv.metric_name.c_str(),
              cv.mean, cv.stddev, folds);
  return 0;
}

int cmd_synth(const Flags& f) {
  data::SyntheticSpec spec;
  const auto paper = f.str("paper");
  if (!paper.empty()) {
    spec = data::paper_dataset(paper, f.num("scale", 1.0)).spec;
  } else {
    spec.n_instances = f.num<std::int64_t>("instances", 1000);
    spec.n_attributes = f.num<std::int64_t>("attributes", 20);
    spec.density = f.num("density", 1.0);
    spec.distinct_values = f.num("distinct", 0);
    spec.binary_labels = f.flag("binary");
    spec.seed = f.num("seed", 42U);
  }
  const auto out = f.require("out");
  f.reject_unused();
  data::write_libsvm_file(data::generate(spec), out);
  std::fprintf(stderr, "wrote %s (%lld x %lld)\n", out.c_str(),
               static_cast<long long>(spec.n_instances),
               static_cast<long long>(spec.n_attributes));
  return 0;
}

serve::ServeConfig serve_config_from(const Flags& f) {
  serve::ServeConfig sc;
  sc.queue_capacity = f.num("queue", sc.queue_capacity);
  sc.max_batch = f.num("max-batch", sc.max_batch);
  sc.max_wait_ticks = f.num("max-wait-ticks", sc.max_wait_ticks);
  sc.n_workers = f.num("workers", sc.n_workers);
  sc.n_shards = f.num("shards", sc.n_shards);
  sc.device = device_by_name(f.str("device"));
  const auto mode = f.str("mode", "replicate");
  if (mode == "replicate") {
    sc.mode = serve::ShardMode::kReplicate;
  } else if (mode == "treeshard") {
    sc.mode = serve::ShardMode::kTreeShard;
  } else {
    std::fprintf(stderr, "unknown mode '%s' (use replicate|treeshard)\n",
                 mode.c_str());
    std::exit(2);
  }
  const auto policy = f.str("policy", "block");
  if (policy == "block") {
    sc.policy = serve::OverflowPolicy::kBlock;
  } else if (policy == "reject") {
    sc.policy = serve::OverflowPolicy::kReject;
  } else {
    std::fprintf(stderr, "unknown policy '%s' (use block|reject)\n",
                 policy.c_str());
    std::exit(2);
  }
  return sc;
}

/// Request rows for serve/loadgen: a libsvm file, or stdin when `-`.
data::Dataset read_requests(const std::string& path) {
  if (path == "-") return data::read_libsvm(std::cin);
  return data::read_libsvm_file(path);
}

int cmd_serve(const Flags& f) {
  const auto model = GBDTModel::load(f.require("model"));
  const auto ds = read_requests(f.require("data"));
  const auto out_path = f.str("output");
  const bool transform = f.flag("transform");
  const bool selfcheck = f.flag("selfcheck");
  const bool row_path = f.flag("row-path");
  const auto sc = serve_config_from(f);
  f.reject_unused();

  serve::PredictionService svc(model, sc);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<double> latency;
  latency.reserve(static_cast<std::size_t>(ds.n_instances()));
  std::vector<double> scores;
  scores.reserve(static_cast<std::size_t>(ds.n_instances()));
  std::uint64_t rejected = 0;

  if (row_path) {
    // Single-row fast path: host-side traversal, no queue, no device.
    for (std::int64_t i = 0; i < ds.n_instances(); ++i) {
      const auto sent = std::chrono::steady_clock::now();
      const auto r = svc.predict_row(ds.instance(i));
      scores.push_back(r.score);
      latency.push_back(
          std::chrono::duration<double>(r.completed - sent).count());
    }
  } else {
    std::vector<std::future<serve::Response>> futs;
    std::vector<std::chrono::steady_clock::time_point> sent;
    futs.reserve(static_cast<std::size_t>(ds.n_instances()));
    sent.reserve(futs.capacity());
    for (std::int64_t i = 0; i < ds.n_instances(); ++i) {
      auto row = ds.instance(i);
      sent.push_back(std::chrono::steady_clock::now());
      auto fut = svc.submit({row.begin(), row.end()});
      if (!fut) {
        ++rejected;
        sent.pop_back();
        continue;
      }
      futs.push_back(std::move(*fut));
    }
    svc.shutdown();
    for (std::size_t i = 0; i < futs.size(); ++i) {
      const auto r = futs[i].get();
      scores.push_back(r.score);
      latency.push_back(
          std::chrono::duration<double>(r.completed - sent[i]).count());
    }
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  if (selfcheck) {
    // Replay the same rows through the offline batch predictor; serving
    // must agree bit for bit on every row it admitted.
    device::Device dev(sc.device);
    const auto offline =
        predict_on_device(dev, model.trees(), model.base_score(), ds);
    if (rejected == 0) {
      for (std::size_t i = 0; i < scores.size(); ++i) {
        if (scores[i] != offline[i]) {
          std::fprintf(stderr,
                       "selfcheck FAILED: row %zu served %.17g offline %.17g\n",
                       i, scores[i], offline[i]);
          return 1;
        }
      }
      std::fprintf(stderr, "selfcheck ok: %zu rows bitwise-identical\n",
                   scores.size());
    } else {
      std::fprintf(stderr,
                   "selfcheck skipped: %llu rejected rows misalign the "
                   "comparison\n",
                   static_cast<unsigned long long>(rejected));
    }
  }

  auto printed = scores;
  if (transform) printed = model.transform_scores(printed);
  std::ostream* out = &std::cout;
  std::ofstream file;
  if (!out_path.empty()) {
    file.open(out_path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    out = &file;
  }
  out->precision(9);
  for (double s : printed) *out << s << '\n';

  const auto pcts = serve::percentiles(latency, {50.0, 95.0, 99.0});
  std::fprintf(stderr,
               "served %zu rows (%llu rejected) in %.3f s (%.0f rows/s), "
               "%llu batches, model v%llu\n"
               "latency p50 %.6f ms  p95 %.6f ms  p99 %.6f ms; "
               "modeled device time %.6f s\n",
               scores.size(), static_cast<unsigned long long>(rejected), wall,
               static_cast<double>(scores.size()) / wall,
               static_cast<unsigned long long>(svc.batches()),
               static_cast<unsigned long long>(svc.current_snapshot()->version),
               1e3 * pcts[0], 1e3 * pcts[1], 1e3 * pcts[2],
               svc.modeled_seconds());
  return 0;
}

int cmd_loadgen(const Flags& f) {
  const auto model = GBDTModel::load(f.require("model"));
  const auto ds = read_requests(f.require("data"));
  const double rate = f.num("rate", 1000.0);
  const auto n_requests = f.num("requests", ds.n_instances());
  const bool poisson = f.flag("poisson");
  const unsigned seed = f.num("seed", 42U);
  const auto sc = serve_config_from(f);
  f.reject_unused();
  if (rate <= 0.0 || ds.n_instances() == 0 || n_requests <= 0) {
    std::fprintf(stderr, "--rate must be > 0 and data must be non-empty\n");
    return 2;
  }

  // Open-loop arrivals: request k is *scheduled* at t_k regardless of how
  // the service is keeping up, so queueing delay shows up in the latency —
  // the closed-loop alternative would hide overload.
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> exp_gap(rate);
  std::vector<double> arrival(static_cast<std::size_t>(n_requests));
  double t = 0.0;
  for (auto& a : arrival) {
    t += poisson ? exp_gap(rng) : 1.0 / rate;
    a = t;
  }

  serve::PredictionService svc(model, sc);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::future<serve::Response>> futs;
  std::vector<std::chrono::steady_clock::time_point> sched;
  futs.reserve(arrival.size());
  sched.reserve(arrival.size());
  std::uint64_t rejected = 0;
  for (std::size_t k = 0; k < arrival.size(); ++k) {
    const auto due =
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(arrival[k]));
    std::this_thread::sleep_until(due);
    auto row = ds.instance(static_cast<std::int64_t>(
        k % static_cast<std::size_t>(ds.n_instances())));
    auto fut = svc.submit({row.begin(), row.end()});
    if (!fut) {
      ++rejected;
      continue;
    }
    futs.push_back(std::move(*fut));
    sched.push_back(due);
  }
  svc.shutdown();

  std::vector<double> latency;
  latency.reserve(futs.size());
  for (std::size_t i = 0; i < futs.size(); ++i) {
    const auto r = futs[i].get();
    latency.push_back(
        std::chrono::duration<double>(r.completed - sched[i]).count());
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const auto pcts = serve::percentiles(latency, {50.0, 95.0, 99.0});
  std::printf(
      "loadgen: rate %.0f req/s (%s), %zu completed, %llu rejected, "
      "%.3f s wall (%.0f rows/s)\n"
      "latency p50 %.6f ms  p95 %.6f ms  p99 %.6f ms\n"
      "batches %llu (mean size %.2f), modeled device time %.6f s\n",
      rate, poisson ? "poisson" : "uniform", latency.size(),
      static_cast<unsigned long long>(rejected), wall,
      static_cast<double>(latency.size()) / wall,
      1e3 * pcts[0], 1e3 * pcts[1], 1e3 * pcts[2],
      static_cast<unsigned long long>(svc.batches()),
      svc.batches() > 0
          ? static_cast<double>(svc.completed()) /
                static_cast<double>(svc.batches())
          : 0.0,
      svc.modeled_seconds());
  return 0;
}

void usage() {
  std::puts(
      "gbdt — GPU-GBDT command line (simulated device)\n"
      "\n"
      "subcommands:\n"
      "  train   --data=F --model=F [--valid=F --early-stopping=K\n"
      "           --eval-freq=1]\n"
      "          [--trees=40 --depth=6 --eta=0.3 --lambda=1 --gamma=0\n"
      "           --loss=l2|logistic --device=titanx|p100|k20\n"
      "           --method=exact|hist --bins=64\n"
      "           --objective=pointwise|ranking --query-file=F\n"
      "           --valid-query-file=F --ndcg-k=10\n"
      "           --subsample=1.0 --feature-bag=sqrt|all|N --sample-seed=42\n"
      "           --no-rle --force-rle --no-smartgd --no-setkey\n"
      "           --no-idxcomp --no-direct-rle --autotune --profile]\n"
      "          [--gpus=K --link=pcie|nvlink]  (multi-GPU training)\n"
      "  predict --data=F --model=F [--output=F --transform]\n"
      "  eval    --data=F --model=F\n"
      "  cv      --data=F [--folds=5 --seed=42 --early-stopping=K\n"
      "           + train hyper-params]\n"
      "  dump    --model=F [--tree=K]\n"
      "  importance --model=F [--kind=gain|cover|splits]\n"
      "  synth   --out=F (--paper=NAME [--scale=S] |\n"
      "           --instances=N --attributes=D [--density=1 --distinct=0\n"
      "           --binary --seed=42])\n"
      "  serve   --model=F --data=F|-  (replay requests through the serving\n"
      "          pipeline; `-` reads libsvm rows from stdin)\n"
      "          [--shards=1 --mode=replicate|treeshard --max-batch=64\n"
      "           --max-wait-ticks=4 --workers=1 --queue=1024\n"
      "           --policy=block|reject --row-path --selfcheck\n"
      "           --transform --output=F --device=titanx|p100|k20]\n"
      "  loadgen --model=F --data=F --rate=R (open-loop arrival generator)\n"
      "          [--requests=N --poisson --seed=42 + serve knobs]");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "help" || cmd == "--help") {
    usage();
    return 0;
  }
  const Flags flags(argc, argv, 2);
  try {
    if (cmd == "train") return cmd_train(flags);
    if (cmd == "predict") return cmd_predict(flags);
    if (cmd == "eval") return cmd_eval(flags);
    if (cmd == "cv") return cmd_cv(flags);
    if (cmd == "dump") return cmd_dump(flags);
    if (cmd == "importance") return cmd_importance(flags);
    if (cmd == "synth") return cmd_synth(flags);
    if (cmd == "serve") return cmd_serve(flags);
    if (cmd == "loadgen") return cmd_loadgen(flags);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown subcommand '%s'\n", cmd.c_str());
  usage();
  return 2;
}
