// Exact vs approximate split finding: the paper trains "without
// approximation" and its related work notes that LightGBM "only supports
// finding the best split points approximately".  This bench quantifies the
// trade on the dense/medium-dimensional analogs for the device histogram
// method (core/trainer_hist) at several bin budgets, then sweeps a
// rows x bins grid to chart where its find-split cost crosses below the
// exact trainer's (the `xover_*` cases; EXPERIMENTS.md plots the
// crossover).  Find-split seconds are read from each run's span tree.
#include "bench_common.h"

namespace {

/// One device-hist training run on a fresh simulated Titan X.
gbdt::TrainReport run_device_hist(const gbdt::data::Dataset& ds,
                                  gbdt::GBDTParam param, int bins) {
  param.use_hist_trainer = true;
  param.n_bins = bins;
  gbdt::device::Device dev(gbdt::device::DeviceConfig::titan_x_pascal());
  return gbdt::GpuGbdtTrainer(dev, param).train(ds);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gbdt;
  using namespace gbdt::bench;
  const auto opt =
      Options::parse(argc, argv, /*default_scale=*/0.3, /*trees=*/20);
  print_header("Exact vs histogram (approximate) split finding", opt);
  BenchJson sink("exact_vs_hist", opt);

  std::printf("%-10s | %10s %10s | %7s", "dataset", "exact(s)", "rmse", "");
  for (int bins : {16, 64, 256}) std::printf("  hist%-4d(s)  rmse  ", bins);
  std::printf("\n");

  for (const char* name : {"susy", "higgs", "covtype", "insurance"}) {
    const auto info = data::paper_dataset(name, opt.scale);
    const auto ds = data::generate(info.spec);
    const auto param = paper_param(opt);
    BenchCase c(sink, name);
    const auto exact = run_gpu(ds, param);
    c.metric("modeled_seconds", exact.modeled_seconds);
    c.metric("exact_find_split_seconds", find_split_seconds(c.root()));
    c.metric("rmse", rmse(exact.train_scores, ds.labels()));
    std::printf("%-10s | %10.3f %10.4f | %7s", name, exact.modeled_seconds,
                rmse(exact.train_scores, ds.labels()), "");
    // The histogram runs trace under their own root so their `train` spans
    // stay apart from the exact run's.
    obs::ScopedSpan hist_span("hist_baseline");
    for (int bins : {16, 64, 256}) {
      const auto r = run_device_hist(ds, param, bins);
      c.metric(("hist" + std::to_string(bins) + "_seconds").c_str(),
               r.modeled_seconds);
      std::printf("  %10.3f %6.4f", r.modeled_seconds,
                  rmse(r.train_scores, ds.labels()));
    }
    std::printf("\n");
  }

  // Crossover sweep: where does the device histogram's modeled find-split
  // cost drop below the exact trainer's?  Exact enumerates every present
  // (attribute, value) per level; the histogram method pays one pass over
  // the entry stream plus n_attr * n_bins cells per node — so it wins on
  // many rows / few bins and loses on few rows / many bins.
  std::printf("\n%-18s | %14s %14s | winner\n", "rows x bins",
              "exact fs(s)", "dev-hist fs(s)");
  for (std::int64_t base_rows : {20'000, 80'000, 320'000}) {
    const auto rows = std::max<std::int64_t>(
        200, static_cast<std::int64_t>(static_cast<double>(base_rows) *
                                       opt.scale));
    data::SyntheticSpec spec;
    spec.name = "xover";
    spec.n_instances = rows;
    spec.n_attributes = 16;
    spec.density = 1.0;
    spec.label_noise = 0.1;
    spec.seed = static_cast<unsigned>(1009 + base_rows);
    const auto ds = data::generate(spec);
    const auto param = paper_param(opt);
    // The exact run belongs to no case: trace it in a session of its own.
    double exact_fs = 0.0;
    {
      obs::ObsSession session;
      session.activate();
      (void)run_gpu(ds, param);
      session.deactivate();
      exact_fs = find_split_seconds(session.root());
    }
    for (int bins : {16, 64, 256}) {
      const std::string cname =
          "xover_r" + std::to_string(rows) + "_b" + std::to_string(bins);
      BenchCase c(sink, cname);
      (void)run_device_hist(ds, param, bins);
      const double hist_fs = find_split_seconds(c.root());
      c.metric("modeled_seconds", hist_fs);
      c.metric("exact_find_split_seconds", exact_fs);
      c.metric("dhist_find_split_seconds", hist_fs);
      c.metric("hist_wins", hist_fs < exact_fs ? 1.0 : 0.0);
      std::printf("%8lld x %-6d | %14.4f %14.4f | %s\n",
                  static_cast<long long>(rows), bins, exact_fs, hist_fs,
                  hist_fs < exact_fs ? "hist" : "exact");
    }
  }
  std::printf("(exact split finding pays more time per tree for the best "
              "achievable fit; histograms trade accuracy for speed)\n");
  return 0;
}
