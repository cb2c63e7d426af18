// Reproduces Figure 10b: test error under a training-time budget on susy.
// Both trainers build the same forest (the trees are identical — Table II),
// but GPU-GBDT finishes each tree faster, so for any budget it has more
// trees available and a lower test error.
//
// The error-after-k-trees curve is computed by incremental prediction over
// the held-out split; the budget axis uses each system's modeled seconds,
// distributed uniformly across trees (per-tree cost is constant, Fig 8b).
#include <cmath>

#include "bench_common.h"
#include "core/predictor.h"

int main(int argc, char** argv) {
  using namespace gbdt;
  using namespace gbdt::bench;
  const auto opt =
      Options::parse(argc, argv, /*default_scale=*/0.3, /*trees=*/80);
  print_header("Figure 10b — test error given a time budget (susy)", opt);

  const auto info = data::paper_dataset("susy", opt.scale);
  const auto full = data::generate(info.spec);
  const auto [train, test] = full.split_at(full.n_instances() * 4 / 5);

  BenchJson sink("fig10b", opt);
  BenchCase c(sink, "susy_budget");
  GBDTParam param = paper_param(opt);
  param.loss = LossKind::kLogistic;
  const auto gpu = run_gpu(train, param);
  const auto cpu = run_cpu(train, param);
  const double gpu_total = gpu.modeled_seconds;
  const double cpu40_total = cpu.modeled_seconds(cpu_config(), 40);
  const int n_trees = static_cast<int>(gpu.trees.size());
  c.metric("modeled_seconds", gpu_total);
  c.metric("cpu40_seconds", cpu40_total);
  c.close();

  // Incremental test scores after each tree (forests are identical; compute
  // the error curve once from the GPU forest).
  std::vector<double> score(static_cast<std::size_t>(test.n_instances()),
                            param.base_score);
  std::vector<double> err_after(static_cast<std::size_t>(n_trees) + 1);
  auto error_now = [&]() {
    std::size_t wrong = 0;
    for (std::int64_t i = 0; i < test.n_instances(); ++i) {
      const double p =
          1.0 / (1.0 + std::exp(-score[static_cast<std::size_t>(i)]));
      wrong += (p >= 0.5) !=
               (test.labels()[static_cast<std::size_t>(i)] >= 0.5f);
    }
    return static_cast<double>(wrong) /
           static_cast<double>(test.n_instances());
  };
  err_after[0] = error_now();
  const auto forest = ForestSoA::flatten(gpu.trees, param.base_score);
  for (int t = 0; t < n_trees; ++t) {
    for (std::int64_t i = 0; i < test.n_instances(); ++i) {
      score[static_cast<std::size_t>(i)] +=
          forest.leaf_weight(test.instance(i), t);
    }
    err_after[static_cast<std::size_t>(t) + 1] = error_now();
  }

  // For a budget b, a system with per-tree time c has floor(b/c) trees.
  std::printf("%12s %14s %14s\n", "budget(s)", "GPU-GBDT err", "xgbst-40 err");
  const double gpu_per_tree = gpu_total / n_trees;
  const double cpu_per_tree = cpu40_total / n_trees;
  for (int step = 1; step <= 10; ++step) {
    const double budget = cpu40_total * step / 10.0;
    const int gpu_trees =
        std::min<int>(n_trees, static_cast<int>(budget / gpu_per_tree));
    const int cpu_trees =
        std::min<int>(n_trees, static_cast<int>(budget / cpu_per_tree));
    std::printf("%12.4f %14.4f %14.4f\n", budget,
                err_after[static_cast<std::size_t>(gpu_trees)],
                err_after[static_cast<std::size_t>(cpu_trees)]);
  }
  std::printf("(paper: for the same budget GPU-GBDT reaches clearly lower "
              "test error than XGBoost)\n");
  return 0;
}
