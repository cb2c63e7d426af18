// Reproduces Figure 9: impact of the individual optimizations.  Each of the
// five techniques is disabled in turn and the change in total execution time
// is reported as a percentage increase over the fully-optimized trainer.
//
// Paper findings: SmartGD and Directly-Split-RLE have the largest impact;
// Customized SetKey buys 10-20% on the high-dimensional datasets
// (log1p/news20); RLE matters on compressible datasets.
//
// RLE-dependent toggles (RLE itself, Directly-Split-RLE) are evaluated with
// compression forced on, so the effect is visible even on analogs whose
// dim/cardinality gate would leave RLE off; '-' marks datasets where a
// toggle is not applicable.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace gbdt;
  using namespace gbdt::bench;
  const auto opt =
      Options::parse(argc, argv, /*default_scale=*/0.25, /*trees=*/10);
  print_header("Figure 9 — impact of disabling individual optimizations", opt);
  BenchJson sink("fig9", opt);

  struct Toggle {
    const char* name;
    void (*apply)(GBDTParam&);
    bool needs_rle;
  };
  const std::vector<Toggle> toggles{
      {"Customized SetKey", [](GBDTParam& p) { p.use_custom_setkey = false; },
       false},
      {"Customized IdxComp",
       [](GBDTParam& p) { p.use_custom_idxcomp_workload = false; }, false},
      {"RLE", [](GBDTParam& p) { p.use_rle = false; p.force_rle = false; },
       true},
      {"SmartGD", [](GBDTParam& p) { p.use_smart_gd = false; }, false},
      {"Directly Split RLE",
       [](GBDTParam& p) { p.use_direct_rle_split = false; }, true},
  };

  std::printf("%-10s %10s", "dataset", "full(s)");
  for (const auto& t : toggles) std::printf(" %19s", t.name);
  std::printf(" %19s\n", "Autotune");

  for (const auto& info : data::paper_datasets(opt.scale)) {
    const auto ds = data::generate(info.spec);
    // Compressible analogs exercise the RLE toggles.
    const bool compressible = info.spec.distinct_values > 0;

    GBDTParam base = paper_param(opt);
    base.force_rle = compressible;
    BenchCase c(sink, info.paper_name);
    const auto full = run_gpu(ds, base);
    c.metric("modeled_seconds", full.modeled_seconds);
    std::printf("%-10s %10.3f", info.paper_name.c_str(),
                full.modeled_seconds);

    for (const auto& t : toggles) {
      if (t.needs_rle && !compressible) {
        std::printf(" %18s%%", "-");
        continue;
      }
      GBDTParam p = base;
      t.apply(p);
      const auto ablated = run_gpu(ds, p);
      const double delta =
          100.0 * (ablated.modeled_seconds - full.modeled_seconds) /
          full.modeled_seconds;
      std::printf(" %+18.1f%%", delta);
    }
    // The autotune column is an on/off comparison against the paper's fixed
    // constants, not an ablation: the cost-model search may keep the paper
    // configuration (delta 0) or predict a win and re-tune (delta <= 0).
    {
      GBDTParam p = base;
      p.autotune = true;
      const auto tuned = run_gpu(ds, p);
      c.metric("autotune_seconds", tuned.modeled_seconds);
      const double delta =
          100.0 * (tuned.modeled_seconds - full.modeled_seconds) /
          full.modeled_seconds;
      std::printf(" %+18.1f%%", delta);
    }
    std::printf("\n");
  }
  std::printf("(positive %% = slower without the optimization; paper: "
              "SmartGD and Directly-Split-RLE largest, SetKey 10-20%% on "
              "high-dimensional datasets)\n");
  return 0;
}
