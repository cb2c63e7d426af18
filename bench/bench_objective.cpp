// Objective/sampling subsystem benchmarks (src/objective/): what does
// stochastic GBDT buy and what does it cost?
//
//   * subsample sweep — row-sampling ratios on a paper-analog dataset;
//     masked-out rows carry zero gradients, so find-split still scans the
//     full columns but the fit degrades gracefully while per-tree work on
//     gradient-dependent phases shrinks.
//   * feature bagging — sqrt-bag and combined row+feature sampling; the
//     feature mask prunes whole columns from split enumeration, which DOES
//     cut modeled find-split time.
//   * ranking — LambdaMART vs pointwise squared error on a query-grouped
//     dataset with a query-constant nuisance feature, scored by held-out
//     NDCG@10 (the objective-oracle's ranking leg, at bench scale).
//   * early stopping — validation-driven truncation: trees kept vs budget.
//
// EXPERIMENTS.md renders the subsample and ranking tables from the JSON
// this writes (--json=BENCH_objective.json).
#include <cstdint>
#include <vector>

#include "bench_common.h"
#include "core/gbdt.h"
#include "core/metrics.h"
#include "objective/sampling.h"

namespace {

/// Query-grouped learning-to-rank analog: attr0 is a query-constant bias
/// level that dominates label variance (pointwise bait, carries no ranking
/// information), attr1 is a noisy per-doc relevance signal, attrs 2-3 are
/// noise.  Same construction as the objective oracle's ranking leg.
gbdt::data::Dataset make_ranking_dataset(std::int64_t n_queries,
                                         std::uint64_t seed) {
  std::uint64_t s = seed ^ 0x72616e6b64617461ull;  // "rankdata" stream
  auto unit = [&s] {
    return static_cast<double>(gbdt::objective::splitmix64(s) >> 11) *
           0x1.0p-53;
  };
  gbdt::data::Dataset ds(4);
  std::vector<std::int64_t> offsets{0};
  std::vector<gbdt::data::Entry> row;
  for (std::int64_t q = 0; q < n_queries; ++q) {
    const std::int64_t m =
        8 + static_cast<std::int64_t>(gbdt::objective::splitmix64(s) % 9);
    const auto bias =
        static_cast<int>(gbdt::objective::splitmix64(s) % 16);
    for (std::int64_t i = 0; i < m; ++i) {
      const auto rel =
          static_cast<int>(gbdt::objective::splitmix64(s) % 8);
      row.assign({{0, static_cast<float>(bias)},
                  {1, static_cast<float>(rel + 0.9 * unit())},
                  {2, static_cast<float>(8.0 * unit())},
                  {3, static_cast<float>(8.0 * unit())}});
      ds.add_instance(row, static_cast<float>(rel + 4 * bias));
    }
    offsets.push_back(offsets.back() + m);
  }
  ds.set_query_offsets(std::move(offsets));
  return ds;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gbdt;
  using namespace gbdt::bench;
  const auto opt =
      Options::parse(argc, argv, /*default_scale=*/0.3, /*trees=*/20);
  print_header("Objective layer: sampling cost/quality and LambdaMART", opt);
  BenchJson sink("bench_objective", opt);

  // --- Subsample sweep -------------------------------------------------
  {
    const auto info = data::paper_dataset("higgs", opt.scale);
    const auto ds = data::generate(info.spec);
    std::printf("\n%-22s | %10s %10s %10s\n", "case", "modeled(s)", "rmse",
                "rows kept");
    for (int pct : {100, 90, 70, 50, 30}) {
      auto param = paper_param(opt);
      param.subsample = pct / 100.0;
      param.sampling_seed = 42;
      const std::string name = "subsample_" + std::to_string(pct);
      BenchCase c(sink, name.c_str());
      const auto r = run_gpu(ds, param);
      const double fit = rmse(r.train_scores, ds.labels());
      c.metric("modeled_seconds", r.modeled_seconds);
      c.metric("find_split_seconds", find_split_seconds(c.root()));
      c.metric("rmse", fit);
      c.metric("subsample", param.subsample);
      std::printf("%-22s | %10.3f %10.4f %9d%%\n", name.c_str(),
                  r.modeled_seconds, fit, pct);
    }

    // Feature bagging: sqrt-bag alone, then combined with row sampling.
    for (const auto& [name, sub, bag] :
         {std::tuple<const char*, double, std::int64_t>{"feature_bag_sqrt",
                                                        1.0, -1},
          {"stochastic_70_sqrt", 0.7, -1}}) {
      auto param = paper_param(opt);
      param.subsample = sub;
      param.feature_bag = bag;
      param.sampling_seed = 42;
      BenchCase c(sink, name);
      const auto r = run_gpu(ds, param);
      const double fit = rmse(r.train_scores, ds.labels());
      c.metric("modeled_seconds", r.modeled_seconds);
      c.metric("find_split_seconds", find_split_seconds(c.root()));
      c.metric("rmse", fit);
      c.metric("subsample", sub);
      std::printf("%-22s | %10.3f %10.4f %9.0f%%\n", name,
                  r.modeled_seconds, fit, sub * 100.0);
    }
  }

  // --- Ranking: LambdaMART vs pointwise -------------------------------
  {
    const auto n_queries = std::max<std::int64_t>(
        40, static_cast<std::int64_t>(400 * opt.scale));
    const auto full = make_ranking_dataset(n_queries, 0x9e3779b9u);
    const auto [train_set, valid] = full.split_queries_at(n_queries * 2 / 3);

    // Tight budget on purpose: the query-constant bias needs 4 tree levels
    // to resolve, so a depth-3 forest can't just memorize it — pointwise
    // squared error burns trees chasing the bias residual while LambdaMART
    // ignores it (within-query lambda sums cancel on query-constant splits).
    GBDTParam pointwise = paper_param(opt);
    pointwise.depth = 3;
    pointwise.n_trees = std::max(3, opt.trees / 4);
    pointwise.loss = LossKind::kSquaredError;
    GBDTParam rank = pointwise;
    rank.objective = ObjectiveKind::kRanking;
    rank.ndcg_k = 10;

    std::printf("\n%-22s | %10s %10s\n", "objective", "modeled(s)",
                "ndcg@10");
    for (const auto& [name, param] :
         {std::pair<const char*, const GBDTParam&>{"ranking_pointwise",
                                                   pointwise},
          {"ranking_lambdamart", rank}}) {
      BenchCase c(sink, name);
      device::Device dev(device::DeviceConfig::titan_x_pascal());
      const auto [model, report] = GBDTModel::train(dev, train_set, param);
      const double ndcg = ndcg_at_k(model.predict(valid), valid.labels(),
                                    valid.query_offsets(), 10);
      c.metric("modeled_seconds", report.modeled_seconds);
      c.metric("valid_ndcg_at_10", ndcg);
      std::printf("%-22s | %10.3f %10.4f\n", name, report.modeled_seconds,
                  ndcg);
    }
  }

  // --- Early stopping --------------------------------------------------
  {
    // One draw, row-split 80/20: the synthetic label function depends on
    // the seed, so a separately-seeded "validation set" would measure a
    // different function and stop immediately.
    const auto info = data::paper_dataset("higgs", opt.scale);
    const auto full = data::generate(info.spec);
    const auto [train_set, valid] =
        full.split_at(full.n_instances() * 4 / 5);

    auto param = paper_param(opt);
    param.n_trees = opt.trees * 3;  // give the stopper room to act
    BenchCase c(sink, "early_stop");
    device::Device dev(device::DeviceConfig::titan_x_pascal());
    const auto [model, report, history] = GBDTModel::train_with_validation(
        dev, train_set, valid, param, /*early_stopping_rounds=*/5);
    c.metric("modeled_seconds", report.modeled_seconds);
    c.metric("tree_budget", static_cast<double>(param.n_trees));
    c.metric("trees_kept", static_cast<double>(model.trees().size()));
    c.metric("best_iteration", static_cast<double>(history.best_iteration));
    c.metric("stopped_early", history.stopped_early ? 1.0 : 0.0);
    c.metric("best_valid_rmse",
             history.best_iteration >= 0
                 ? *std::min_element(history.metric.begin(),
                                     history.metric.end())
                 : 0.0);
    std::printf("\nearly stopping: kept %zu of %d trees (best iteration %d, "
                "%s)\n",
                model.trees().size(), param.n_trees, history.best_iteration,
                history.stopped_early ? "stopped early" : "ran to budget");
  }

  std::printf("(row masks zero gradients in place — no compaction — so "
              "quality degrades smoothly; feature bags prune columns from "
              "split enumeration)\n");
  return 0;
}
