// Reproduces Table II: overall comparison of GPU-GBDT against sequential
// XGBoost (xgbst-1), 40-thread XGBoost (xgbst-40) and the dense GPU plugin
// (xgbst-gpu) on the eight dataset analogs — execution time, speedups, RMSE
// equality, xgbst-gpu failures, and the find-split time share from Section
// IV-A.
//
// The xgbst-gpu column runs behaviourally on the analogs that fit, with its
// memory gate evaluated at the *real* dataset shapes (that is what OOMs on
// the 12 GB Titan X in the paper).  Its tree count is capped and
// extrapolated linearly (tree cost is constant per tree, Figure 8b).
#include <algorithm>
#include <cmath>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace gbdt;
  using namespace gbdt::bench;
  const auto opt = Options::parse(argc, argv, /*default_scale=*/0.4);
  print_header("Table II — overall comparison vs XGBoost", opt);
  BenchJson sink("table2", opt);

  std::printf("%-10s %9s %8s | %8s %8s %8s %-14s | %6s %6s | %7s %7s %9s | %5s\n",
              "dataset", "card", "dim", "ours(s)", "xgb-1(s)", "xgb-40(s)",
              "xgb-gpu", "vs-1", "vs-40", "rmse", "rmse40", "rmse-gpu",
              "paper");
  double find_frac_ours = 0.0, find_frac_cpu = 0.0;
  int counted = 0;

  for (const auto& info : data::paper_datasets(opt.scale)) {
    const auto ds = data::generate(info.spec);
    const auto param = paper_param(opt);

    BenchCase c(sink, info.paper_name);
    const auto gpu = run_gpu(ds, param);
    // Read before the xgbst-gpu run below adds to the same `train` span.
    find_frac_ours += find_split_seconds(c.root()) / gpu.modeled_seconds;
    const auto cpu = run_cpu(ds, param);
    const double ours_s = gpu.modeled_seconds;
    const double cpu1_s = cpu.modeled_seconds(cpu_config(), 1);
    const double cpu40_s = cpu.modeled_seconds(cpu_config(), 40);

    const double rmse_ours = rmse(gpu.train_scores, ds.labels());
    const double rmse_cpu = rmse(cpu.train_scores, ds.labels());

    // xgbst-gpu: gate on the real shape.  Small dense workloads run the full
    // tree count (comparable RMSE); large ones run tree-capped and
    // extrapolate the time (per-tree cost is constant, Figure 8b) with the
    // RMSE marked as from fewer trees.
    GBDTParam dense_param = param;
    const std::size_t dense_cells =
        static_cast<std::size_t>(ds.n_instances()) *
        static_cast<std::size_t>(ds.n_attributes());
    const bool capped = dense_cells > 600'000;
    if (capped) dense_param.n_trees = std::min(param.n_trees, 5);
    const auto dense = baseline::train_xgb_gpu_dense(
        device::DeviceConfig::titan_x_pascal(), ds, dense_param,
        info.paper_cardinality, info.paper_dimension);
    char dense_col[32];
    double rmse_dense = std::nan("");
    if (dense.oom) {
      std::snprintf(dense_col, sizeof dense_col, "OOM(%zuGB)",
                    dense.required_bytes >> 30);
    } else {
      const double dense_s = dense.report.modeled_seconds *
                             static_cast<double>(param.n_trees) /
                             dense_param.n_trees;
      std::snprintf(dense_col, sizeof dense_col, "%.3f%s", dense_s,
                    capped ? "*" : "");
      rmse_dense = rmse(dense.report.train_scores, ds.labels());
    }

    std::printf("%-10s %9lld %8lld | %8.3f %8.3f %8.3f %-14s | %6.1f %6.2f "
                "| %7.4f %7.4f %9s | %5.2f\n",
                info.paper_name.c_str(),
                static_cast<long long>(ds.n_instances()),
                static_cast<long long>(ds.n_attributes()), ours_s, cpu1_s,
                cpu40_s, dense_col, cpu1_s / ours_s, cpu40_s / ours_s,
                rmse_ours, rmse_cpu,
                std::isnan(rmse_dense)
                    ? "-"
                    : std::to_string(rmse_dense).substr(0, 6).c_str(),
                info.paper_speedup_over_xgb40);

    find_frac_cpu += cpu.find_split_fraction(cpu_config());
    ++counted;

    c.metric("modeled_seconds", ours_s);
    c.metric("cpu1_seconds", cpu1_s);
    c.metric("cpu40_seconds", cpu40_s);
    c.metric("rmse", rmse_ours);
  }

  std::printf("----------------------------------------------------------------\n");
  std::printf("'paper' column: Table II speedup over xgbst-40 where legible "
              "(0 = not legible).\n");
  std::printf("'*': xgbst-gpu time extrapolated from %d trees "
              "(linear in trees, cf. Fig 8b).\n",
              std::min(opt.trees, 5));
  std::printf("rmse == rmse40 on every row reproduces 'GPU-GBDT produces "
              "exactly the same RMSE as XGBoost'.\n");
  std::printf("find-split share of training: ours %.0f%%, xgboost %.0f%% "
              "(paper: ~95%% / ~75%%)\n",
              100.0 * find_frac_ours / counted,
              100.0 * find_frac_cpu / counted);
  return 0;
}
