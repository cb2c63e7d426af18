#include "testing/oracle.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <future>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "analysis/access_audit.h"
#include "analysis/hb_race.h"
#include "baselines/xgb_exact.h"
#include "core/gbdt.h"
#include "core/metrics.h"
#include "core/out_of_core.h"
#include "core/trainer.h"
#include "core/trainer_detail.h"
#include "core/predictor.h"
#include "multigpu/allreduce.h"
#include "multigpu/multi_trainer.h"
#include "serve/service.h"
#include "testing/invariants.h"

namespace gbdt::testing {

namespace {

using device::Device;
using device::DeviceConfig;

/// Trees + scores of one trainer leg, normalised across report types.
struct LegOutput {
  std::vector<Tree> trees;
  std::vector<double> scores;
  double rle_ratio = 1.0;
};

/// Compares a leg against the reference.  `tol` 0.0 demands bitwise
/// equality (the sparse GPU leg); otherwise exact gain ties broken
/// differently are tolerated when the forests fit identically.
void compare_leg(LegResult& leg, const LegOutput& ref, const LegOutput& got,
                 double tol, const std::vector<float>& labels,
                 double fit_tol = 1e-3) {
  if (got.trees.size() != ref.trees.size()) {
    leg.detail = "forest size " + std::to_string(got.trees.size()) +
                 " != reference " + std::to_string(ref.trees.size());
    return;
  }
  for (std::size_t t = 0; t < ref.trees.size(); ++t) {
    if (!Tree::same_structure(ref.trees[t], got.trees[t], tol)) {
      ++leg.divergent_trees;
      if (leg.detail.empty()) {
        leg.detail = "tree " + std::to_string(t) +
                     " diverges from the reference";
      }
    }
  }
  if (leg.divergent_trees == 0) {
    if (tol == 0.0) {
      // Bitwise score agreement too.
      for (std::size_t i = 0; i < ref.scores.size(); ++i) {
        if (got.scores[i] != ref.scores[i]) {
          leg.detail = "train score " + std::to_string(i) +
                       " differs bitwise (" + std::to_string(got.scores[i]) +
                       " vs " + std::to_string(ref.scores[i]) + ")";
          return;
        }
      }
    }
    leg.exact = true;
    leg.detail.clear();
    return;
  }
  // Tie-break divergence: accept only functional equivalence.
  const double ref_fit = rmse(ref.scores, labels);
  const double got_fit = rmse(got.scores, labels);
  if (tol > 0.0 && std::abs(ref_fit - got_fit) <= fit_tol * (1.0 + ref_fit)) {
    leg.tie_equivalent = true;
    leg.detail += " (exact-gain tie, fits agree: " + std::to_string(ref_fit) +
                  " vs " + std::to_string(got_fit) + ")";
  } else {
    leg.detail += "; fits disagree: rmse " + std::to_string(ref_fit) +
                  " vs " + std::to_string(got_fit);
  }
}

/// Runs one leg, converting invariant violations and trainer errors into a
/// failed LegResult instead of propagating.
LegResult run_leg(const std::string& name,
                  const std::function<LegOutput()>& body, const LegOutput& ref,
                  double tol, const std::vector<float>& labels,
                  double fit_tol = 1e-3) {
  LegResult leg;
  leg.name = name;
  leg.ran = true;
  try {
    const LegOutput got = body();
    leg.rle_ratio = got.rle_ratio;
    compare_leg(leg, ref, got, tol, labels, fit_tol);
  } catch (const InvariantViolation& e) {
    leg.invariant_violation = true;
    leg.detail = e.what();
  } catch (const analysis::RaceViolation& e) {
    leg.invariant_violation = true;
    leg.detail = e.what();
  } catch (const analysis::AuditViolation& e) {
    leg.invariant_violation = true;
    leg.detail = e.what();
  } catch (const std::exception& e) {
    leg.detail = std::string("trainer threw: ") + e.what();
  }
  return leg;
}

/// The hist_vs_exact leg: the device histogram trainer splits on bin
/// boundaries, so structural comparison against the exact reference is
/// meaningless.  Quality equivalence instead: the forest must have the same
/// tree count, every tree must respect the depth budget, and the training
/// fit must land within a multiplicative+additive tolerance of the
/// reference's.  The tolerance is deliberately loose — with few bins on a
/// high-cardinality column the approximation genuinely costs accuracy — but
/// tight enough that a broken trainer (wrong histogram, wrong gain, wrong
/// partition) blows through it.
LegResult hist_leg(const FuzzCase& c, const LegOutput& ref,
                   const data::Dataset& ds) {
  LegResult leg;
  leg.name = "hist_vs_exact";
  leg.ran = true;
  try {
    GBDTParam p = c.base_param();
    p.use_hist_trainer = true;
    p.n_bins = c.n_bins;
    Device dev(DeviceConfig::titan_x_pascal());
    auto r = GpuGbdtTrainer(dev, p).train(ds);
    if (r.trees.size() != ref.trees.size()) {
      leg.detail = "forest size " + std::to_string(r.trees.size()) +
                   " != reference " + std::to_string(ref.trees.size());
      return leg;
    }
    for (std::size_t t = 0; t < r.trees.size(); ++t) {
      if (r.trees[t].depth() > c.depth) {
        leg.detail = "tree " + std::to_string(t) + " depth " +
                     std::to_string(r.trees[t].depth()) +
                     " exceeds the budget " + std::to_string(c.depth);
        return leg;
      }
    }
    const double ref_fit = rmse(ref.scores, ds.labels());
    const double got_fit = rmse(r.train_scores, ds.labels());
    leg.quality_equivalent = got_fit <= ref_fit * 1.5 + 0.1;
    leg.detail = "fit " + std::to_string(got_fit) + " vs exact " +
                 std::to_string(ref_fit) + " (" + std::to_string(c.n_bins) +
                 " bins)";
    if (leg.quality_equivalent) leg.detail.clear();
  } catch (const InvariantViolation& e) {
    leg.invariant_violation = true;
    leg.detail = e.what();
  } catch (const analysis::RaceViolation& e) {
    leg.invariant_violation = true;
    leg.detail = e.what();
  } catch (const analysis::AuditViolation& e) {
    leg.invariant_violation = true;
    leg.detail = e.what();
  } catch (const std::exception& e) {
    leg.detail = std::string("trainer threw: ") + e.what();
  }
  return leg;
}

/// Shared prologue of both oracles: arm invariants, build the dataset and
/// the CPU exact-greedy reference.
LegOutput reference_leg(const data::Dataset& ds, const GBDTParam& base) {
  LegOutput ref;
  auto r = baseline::XgbExactTrainer(base).train(ds);
  ref.trees = std::move(r.trees);
  ref.scores = std::move(r.train_scores);
  return ref;
}

/// Seeded query-grouped ranking data for the ranking_beats_pointwise leg.
/// Attribute 0 is a query-constant bias feature whose level also shifts
/// every label in the query; attribute 1 carries the within-query relevance
/// signal; the rest is noise.  Squared error spends its split budget
/// explaining the bias (it dominates the label variance) while LambdaMART
/// ignores it (within-query lambda sums are zero), so under a tight tree
/// budget the ranking objective orders held-out queries strictly better.
data::Dataset make_ranking_dataset(const FuzzCase& c,
                                   std::int64_t n_queries) {
  std::uint64_t s = c.seed ^ 0x72616e6b64617461ull;  // "rankdata" stream
  auto unit = [&s] {
    return static_cast<double>(splitmix64(s) >> 11) * 0x1.0p-53;
  };
  data::Dataset ds(4);
  std::vector<std::int64_t> offsets{0};
  std::vector<data::Entry> row;
  for (std::int64_t q = 0; q < n_queries; ++q) {
    // 16 bias levels at weight 4: the bias contributes ~64x the label
    // variance of the relevance signal, and resolving 16 levels costs 4
    // full tree levels — more than the leg's depth budget — so squared
    // error keeps chasing the bias residual on every tree.
    const std::int64_t m = static_cast<std::int64_t>(c.query_size) +
                           static_cast<std::int64_t>(splitmix64(s) % 5);
    const auto bias_level = static_cast<int>(splitmix64(s) % 16);
    for (std::int64_t i = 0; i < m; ++i) {
      const auto rel = static_cast<int>(splitmix64(s) % 8);
      row.assign({{0, static_cast<float>(bias_level)},
                  {1, static_cast<float>(rel + 0.9 * unit())},
                  {2, static_cast<float>(8.0 * unit())},
                  {3, static_cast<float>(8.0 * unit())}});
      ds.add_instance(row, static_cast<float>(rel + 4 * bias_level));
    }
    offsets.push_back(offsets.back() + m);
  }
  ds.set_query_offsets(std::move(offsets));
  return ds;
}

/// The ranking_beats_pointwise leg: identical data, identical tree budget,
/// only the objective differs; held-out NDCG@10 decides.
LegResult ranking_leg(const FuzzCase& c) {
  LegResult leg;
  leg.name = "ranking_beats_pointwise";
  leg.ran = true;
  try {
    const std::int64_t n_train_q = 24;
    const std::int64_t n_valid_q = 12;
    const auto full = make_ranking_dataset(c, n_train_q + n_valid_q);
    const auto [train_set, valid] = full.split_queries_at(n_train_q);

    GBDTParam pointwise;
    pointwise.depth = 3;
    pointwise.n_trees = 3;
    pointwise.lambda = 1.0;
    pointwise.loss = LossKind::kSquaredError;
    pointwise.use_rle = false;
    pointwise.force_rle = false;

    GBDTParam rank = pointwise;
    rank.objective = ObjectiveKind::kRanking;
    rank.ndcg_k = 10;

    Device rank_dev(DeviceConfig::titan_x_pascal());
    const auto rank_model = GBDTModel::train(rank_dev, train_set, rank).first;
    Device point_dev(DeviceConfig::titan_x_pascal());
    const auto point_model =
        GBDTModel::train(point_dev, train_set, pointwise).first;

    const double rank_ndcg =
        ndcg_at_k(rank_model.predict(valid), valid.labels(),
                  valid.query_offsets(), 10);
    const double point_ndcg =
        ndcg_at_k(point_model.predict(valid), valid.labels(),
                  valid.query_offsets(), 10);
    leg.exact = rank_ndcg > point_ndcg;
    if (!leg.exact) {
      leg.detail = "held-out ndcg@10: lambdarank " +
                   std::to_string(rank_ndcg) + " does not beat pointwise " +
                   std::to_string(point_ndcg);
    }
  } catch (const InvariantViolation& e) {
    leg.invariant_violation = true;
    leg.detail = e.what();
  } catch (const std::exception& e) {
    leg.detail = std::string("ranking leg threw: ") + e.what();
  }
  return leg;
}

}  // namespace

std::string OracleResult::failure_report() const {
  std::ostringstream os;
  for (const auto& l : legs) {
    if (!l.failed()) continue;
    os << "  leg " << l.name << ": " << l.detail << "\n";
  }
  return os.str();
}

OracleResult run_oracle(const FuzzCase& c, bool check_invariants) {
  OracleResult result;
  result.c = c;

  const bool was_enabled = invariants_enabled();
  set_invariants_enabled(check_invariants);

  const auto ds = data::generate(c.dataset_spec());
  const GBDTParam base = c.base_param();

  // Reference: the exact-greedy CPU baseline.
  const LegOutput ref = reference_leg(ds, base);

  result.legs.push_back(run_leg(
      "gpu_sparse",
      [&] {
        Device dev(DeviceConfig::titan_x_pascal());
        auto r = GpuGbdtTrainer(dev, base).train(ds);
        return LegOutput{std::move(r.trees), std::move(r.train_scores), 1.0};
      },
      ref, 0.0, ds.labels()));

  auto rle_leg = [&](bool direct) {
    GBDTParam p = base;
    p.use_rle = true;
    p.force_rle = true;
    p.use_direct_rle_split = direct;
    Device dev(DeviceConfig::titan_x_pascal());
    auto r = GpuGbdtTrainer(dev, p).train(ds);
    return LegOutput{std::move(r.trees), std::move(r.train_scores),
                     r.rle_ratio};
  };
  result.legs.push_back(run_leg("gpu_rle_direct", [&] { return rle_leg(true); },
                                ref, 1e-7, ds.labels()));
  result.legs.push_back(
      run_leg("gpu_rle_fallback", [&] { return rle_leg(false); }, ref, 1e-7,
              ds.labels()));

  // The two RLE node-split strategies must account compression identically.
  {
    auto& direct = result.legs[result.legs.size() - 2];
    auto& fallback = result.legs.back();
    if (direct.ran && fallback.ran && !direct.invariant_violation &&
        !fallback.invariant_violation &&
        direct.rle_ratio != fallback.rle_ratio) {
      direct.exact = false;
      direct.tie_equivalent = false;
      direct.detail = "rle_ratio accounting differs between Directly-Split (" +
                      std::to_string(direct.rle_ratio) + ") and fallback (" +
                      std::to_string(fallback.rle_ratio) + ")";
    }
  }

  const int n_gpus =
      static_cast<int>(std::min<std::int64_t>(c.n_gpus, c.n_attributes));
  if (n_gpus >= 2) {
    result.legs.push_back(run_leg(
        "multigpu_x" + std::to_string(n_gpus),
        [&] {
          multigpu::MultiGpuTrainer trainer(DeviceConfig::titan_x_pascal(),
                                            n_gpus, base);
          auto r = trainer.train(ds);
          return LegOutput{std::move(r.trees), std::move(r.train_scores), 1.0};
        },
        ref, 1e-7, ds.labels()));
  } else {
    LegResult skipped;
    skipped.name = "multigpu";
    skipped.ran = false;
    skipped.detail = "skipped: fewer than 2 shardable attributes";
    result.legs.push_back(std::move(skipped));
  }

  result.legs.push_back(run_leg(
      "out_of_core",
      [&] {
        Device dev(DeviceConfig::titan_x_pascal());
        OutOfCoreTrainer trainer(dev, base, c.chunk_bytes,
                                 c.ooc_stream_compressed);
        auto r = trainer.train(ds);
        result.ooc_chunks = static_cast<int>(
            chunks_per_level(dev.timeline(), r.trees, base.depth));
        return LegOutput{std::move(r.trees), std::move(r.train_scores), 1.0};
      },
      ref, 1e-7, ds.labels()));

  result.legs.push_back(hist_leg(c, ref, ds));

  set_invariants_enabled(was_enabled);
  return result;
}

OracleResult run_hist_oracle(const FuzzCase& c, bool check_invariants) {
  OracleResult result;
  result.c = c;

  const bool was_enabled = invariants_enabled();
  set_invariants_enabled(check_invariants);

  const auto ds = data::generate(c.dataset_spec());
  const LegOutput ref = reference_leg(ds, c.base_param());
  result.legs.push_back(hist_leg(c, ref, ds));

  set_invariants_enabled(was_enabled);
  return result;
}

OracleResult run_serve_oracle(const FuzzCase& c, bool check_invariants) {
  OracleResult result;
  result.c = c;

  const bool was_enabled = invariants_enabled();
  set_invariants_enabled(check_invariants);

  const auto ds = data::generate(c.dataset_spec());
  const GBDTParam base = c.base_param();

  // The model under serve is the sparse GPU trainer's forest; the offline
  // reference is predict_on_device over the same rows on a fresh device.
  std::optional<GBDTModel> model;
  std::vector<double> ref;
  try {
    Device dev(DeviceConfig::titan_x_pascal());
    model.emplace(GBDTModel::train(dev, ds, base).first);
    Device ref_dev(DeviceConfig::titan_x_pascal());
    ref = model->predict_device(ref_dev, ds);
  } catch (const std::exception& e) {
    LegResult leg;
    leg.name = "serve_setup";
    leg.ran = true;
    leg.detail = std::string("training/reference threw: ") + e.what();
    result.legs.push_back(std::move(leg));
    set_invariants_enabled(was_enabled);
    return result;
  }

  // One serving leg: run `body`, demand bitwise agreement with the offline
  // reference row for row.  Invariant violations (the torn-swap detector)
  // are recorded, not propagated.
  auto serve_leg = [&](const std::string& name,
                       const std::function<std::vector<double>()>& body) {
    LegResult leg;
    leg.name = name;
    leg.ran = true;
    try {
      const std::vector<double> got = body();
      if (got.size() != ref.size()) {
        leg.detail = "scored " + std::to_string(got.size()) + " rows, offline " +
                     std::to_string(ref.size());
        return leg;
      }
      for (std::size_t i = 0; i < ref.size(); ++i) {
        if (got[i] != ref[i]) {
          leg.detail = "row " + std::to_string(i) + " differs bitwise (" +
                       std::to_string(got[i]) + " vs offline " +
                       std::to_string(ref[i]) + ")";
          return leg;
        }
      }
      leg.exact = true;
    } catch (const InvariantViolation& e) {
      leg.invariant_violation = true;
      leg.detail = e.what();
    } catch (const std::exception& e) {
      leg.detail = std::string("serving threw: ") + e.what();
    }
    return leg;
  };

  // Serving knobs derived from the case seed (SplitMix64 finalizer) so the
  // fuzzer sweeps batch sizes, shard counts, modes and worker counts.
  std::uint64_t h = c.seed + 0x9e3779b97f4a7c15ull;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;

  serve::ServeConfig sc;
  sc.max_batch = 1 + static_cast<std::size_t>(h % 32);
  sc.n_shards = 1 + static_cast<int>((h >> 8) % 3);
  sc.mode = ((h >> 16) & 1) != 0 ? serve::ShardMode::kTreeShard
                                 : serve::ShardMode::kReplicate;
  sc.n_workers = 1 + static_cast<int>((h >> 24) % 2);
  sc.queue_capacity = 256;
  sc.policy = serve::OverflowPolicy::kBlock;  // the oracle must score all rows
  sc.max_wait_ticks = 1;

  result.legs.push_back(serve_leg("serve_vs_batch", [&] {
    serve::PredictionService svc(*model, sc);
    const std::uint64_t want_version = svc.current_snapshot()->version;
    std::vector<std::future<serve::Response>> futs;
    futs.reserve(static_cast<std::size_t>(ds.n_instances()));
    for (std::int64_t i = 0; i < ds.n_instances(); ++i) {
      auto row = ds.instance(i);
      auto f = svc.submit({row.begin(), row.end()});
      if (!f) throw std::runtime_error("kBlock submit rejected a request");
      futs.push_back(std::move(*f));
    }
    svc.shutdown();
    std::vector<double> got;
    got.reserve(futs.size());
    for (auto& f : futs) {
      const serve::Response r = f.get();
      if (r.version != want_version) {
        throw std::runtime_error("response attributed to version " +
                                 std::to_string(r.version) + ", published " +
                                 std::to_string(want_version));
      }
      got.push_back(r.score);
    }
    return got;
  }));

  result.legs.push_back(serve_leg("serve_row", [&] {
    serve::ServeConfig row_cfg = sc;
    row_cfg.n_workers = 1;
    row_cfg.n_shards = 1;
    serve::PredictionService svc(*model, row_cfg);
    std::vector<double> got;
    got.reserve(static_cast<std::size_t>(ds.n_instances()));
    for (std::int64_t i = 0; i < ds.n_instances(); ++i) {
      got.push_back(svc.predict_row(ds.instance(i)).score);
    }
    return got;
  }));

  if (model->trees().size() >= 2) {
    result.legs.push_back(serve_leg("serve_relay", [&] {
      auto snap = serve::make_snapshot(*model, 1);
      if (invariants_enabled()) snap->verify();
      const int shards = static_cast<int>(
          std::min<std::size_t>(3, model->trees().size()));
      serve::ShardScorer scorer(snap, shards, serve::ShardMode::kTreeShard,
                                DeviceConfig::titan_x_pascal());
      return scorer.score_batch(ds);
    }));
  } else {
    LegResult skipped;
    skipped.name = "serve_relay";
    skipped.ran = false;
    skipped.detail = "skipped: single-tree forest";
    result.legs.push_back(std::move(skipped));
  }

  set_invariants_enabled(was_enabled);
  return result;
}

OracleResult run_objective_oracle(const FuzzCase& c, bool check_invariants) {
  OracleResult result;
  result.c = c;

  const bool was_enabled = invariants_enabled();
  set_invariants_enabled(check_invariants);

  const auto ds = data::generate(c.dataset_spec());
  const GBDTParam base = c.base_param();

  // Sampled configuration under test: force both masks live so the
  // determinism legs always exercise the sampling machinery, even when the
  // case drew the disabled knobs.
  GBDTParam sampled = base;
  sampled.subsample = c.subsample < 1.0 ? c.subsample : 0.7;
  sampled.feature_bag = c.feature_bag != 0 ? c.feature_bag : -1;
  sampled.sampling_seed = c.sampling_seed;

  auto sparse_run = [&](const GBDTParam& p) {
    Device dev(DeviceConfig::titan_x_pascal());
    auto r = GpuGbdtTrainer(dev, p).train(ds);
    return LegOutput{std::move(r.trees), std::move(r.train_scores), 1.0};
  };

  // Leg: subsample=1.0 + feature_bag=all is the trivially-degenerate plan —
  // it must compile out entirely, whatever the sampling seed.
  {
    bool have_plain = false;
    LegOutput plain;
    try {
      plain = sparse_run(base);
      have_plain = true;
    } catch (const std::exception& e) {
      LegResult leg;
      leg.name = "trivial_plan_bitwise";
      leg.ran = true;
      leg.detail = std::string("baseline trainer threw: ") + e.what();
      result.legs.push_back(std::move(leg));
    }
    if (have_plain) {
      GBDTParam degenerate = base;
      degenerate.subsample = 1.0;
      degenerate.feature_bag = 0;
      degenerate.sampling_seed = c.sampling_seed;
      result.legs.push_back(
          run_leg("trivial_plan_bitwise",
                  [&] { return sparse_run(degenerate); }, plain, 0.0,
                  ds.labels()));
    }
  }

  // Sampled baseline: the sparse path's forest under the case's masks.
  bool have_sampled = false;
  LegOutput sampled_ref;
  try {
    sampled_ref = sparse_run(sampled);
    have_sampled = true;
  } catch (const std::exception& e) {
    LegResult leg;
    leg.name = "sampled_baseline";
    leg.ran = true;
    leg.detail = std::string("sampled trainer threw: ") + e.what();
    result.legs.push_back(std::move(leg));
  }

  if (have_sampled) {
    // Same seed, fresh device: the forest must replay bit for bit.
    result.legs.push_back(run_leg("sampled_replay_bitwise",
                                  [&] { return sparse_run(sampled); },
                                  sampled_ref, 0.0, ds.labels()));

    // The masks are drawn on the host, so every trainer path must see the
    // identical plan.  Masked rows carry zero gradients, which turns whole
    // threshold ranges into exact-gain plateaus; the paths enumerate split
    // candidates in different orders, so tie-break divergence is much more
    // frequent than in the unsampled oracle and the functional-equivalence
    // band is widened to 1e-2 accordingly.
    constexpr double kSampledFitTol = 1e-2;
    result.legs.push_back(run_leg(
        "sampled_rle_vs_sparse",
        [&] {
          GBDTParam p = sampled;
          p.use_rle = true;
          p.force_rle = true;
          return sparse_run(p);
        },
        sampled_ref, 1e-7, ds.labels(), kSampledFitTol));

    const int n_gpus =
        static_cast<int>(std::min<std::int64_t>(c.n_gpus, c.n_attributes));
    if (n_gpus >= 2) {
      result.legs.push_back(run_leg(
          "sampled_multigpu_x" + std::to_string(n_gpus),
          [&] {
            multigpu::MultiGpuTrainer trainer(DeviceConfig::titan_x_pascal(),
                                              n_gpus, sampled);
            auto r = trainer.train(ds);
            return LegOutput{std::move(r.trees), std::move(r.train_scores),
                             1.0};
          },
          sampled_ref, 1e-7, ds.labels(), kSampledFitTol));
    }

    result.legs.push_back(run_leg(
        "sampled_ooc",
        [&] {
          Device dev(DeviceConfig::titan_x_pascal());
          OutOfCoreTrainer trainer(dev, sampled, c.chunk_bytes,
                                   c.ooc_stream_compressed);
          auto r = trainer.train(ds);
          result.ooc_chunks = static_cast<int>(
              chunks_per_level(dev.timeline(), r.trees, sampled.depth));
          return LegOutput{std::move(r.trees), std::move(r.train_scores), 1.0};
        },
        sampled_ref, 1e-7, ds.labels(), kSampledFitTol));

    // The histogram trainer under the same masks: quality equivalence
    // against the sampled exact path (same policy as hist_vs_exact).
    {
      LegResult leg;
      leg.name = "sampled_hist";
      leg.ran = true;
      try {
        GBDTParam p = sampled;
        p.use_hist_trainer = true;
        p.n_bins = c.n_bins;
        Device dev(DeviceConfig::titan_x_pascal());
        auto r = GpuGbdtTrainer(dev, p).train(ds);
        if (r.trees.size() != sampled_ref.trees.size()) {
          leg.detail = "forest size " + std::to_string(r.trees.size()) +
                       " != sampled exact " +
                       std::to_string(sampled_ref.trees.size());
        } else {
          bool depth_ok = true;
          for (const auto& t : r.trees) {
            if (t.depth() > c.depth) {
              leg.detail = "tree depth " + std::to_string(t.depth()) +
                           " exceeds the budget " + std::to_string(c.depth);
              depth_ok = false;
              break;
            }
          }
          if (depth_ok) {
            const double ref_fit = rmse(sampled_ref.scores, ds.labels());
            const double got_fit = rmse(r.train_scores, ds.labels());
            leg.quality_equivalent = got_fit <= ref_fit * 1.5 + 0.1;
            if (!leg.quality_equivalent) {
              leg.detail = "fit " + std::to_string(got_fit) +
                           " vs sampled exact " + std::to_string(ref_fit);
            }
          }
        }
      } catch (const InvariantViolation& e) {
        leg.invariant_violation = true;
        leg.detail = e.what();
      } catch (const std::exception& e) {
        leg.detail = std::string("trainer threw: ") + e.what();
      }
      result.legs.push_back(std::move(leg));
    }
  }

  result.legs.push_back(ranking_leg(c));

  set_invariants_enabled(was_enabled);
  return result;
}

std::string schedule_mismatch(const GBDTParam& p, int n_shards,
                              const multigpu::MultiTrainReport& bandwidth_only,
                              const multigpu::MultiTrainReport& latency_bound) {
  // Every histogram merge of a level carries n_attr·n_bins >= K cells; an
  // exact level's candidate merge one winner record per node of the level.
  bool expect_tree = n_shards >= 4 && p.use_hist_trainer;
  for (const Tree& t : bandwidth_only.trees) {
    std::vector<std::int32_t> level{0};
    for (int d = 0; d < p.depth && !level.empty(); ++d) {
      expect_tree |=
          !p.use_hist_trainer &&
          multigpu::detail::pick_schedule(level.size(), n_shards,
                                          sizeof(gbdt::detail::BestSplit),
                                          kLatencyBoundLink) ==
              multigpu::detail::Schedule::kTree;
      std::vector<std::int32_t> next;
      for (const std::int32_t id : level) {
        const TreeNode& n = t.node(id);
        if (!n.is_leaf()) next.insert(next.end(), {n.left, n.right});
      }
      level = std::move(next);
    }
  }
  // The schedules a run's comm labels show: "ring", "tree" or "ring+tree".
  const auto ran = [](const multigpu::MultiTrainReport& r) {
    std::string out;
    for (const std::string s : {"ring", "tree"}) {
      for (const auto& [label, rec] : r.stream_transfers) {
        if (label.find("_" + s + "_") == std::string::npos) continue;
        out += (out.empty() ? "" : "+") + s;
        break;
      }
    }
    return out;
  };
  const std::string want = expect_tree ? "ring+tree" : "ring";
  if (ran(bandwidth_only) == "ring" && ran(latency_bound) == want) return "";
  return "at K = " + std::to_string(n_shards) +
         " the bandwidth-only link ran '" + ran(bandwidth_only) +
         "' (want 'ring') and the latency-bound link '" + ran(latency_bound) +
         "' (want '" + want + "')";
}

OracleResult run_mgpu_oracle(const FuzzCase& c, bool check_invariants) {
  OracleResult result;
  result.c = c;

  const bool was_enabled = invariants_enabled();
  set_invariants_enabled(check_invariants);

  const auto ds = data::generate(c.dataset_spec());
  const GBDTParam base = c.base_param();
  const int n_gpus =
      static_cast<int>(std::min<std::int64_t>(c.n_gpus, c.n_attributes));

  if (n_gpus < 2) {
    LegResult skipped;
    skipped.name = "mgpu";
    skipped.ran = false;
    skipped.detail = "skipped: fewer than 2 shardable attributes";
    result.legs.push_back(std::move(skipped));
    set_invariants_enabled(was_enabled);
    return result;
  }

  auto mgpu_run = [&](const GBDTParam& p, const multigpu::Interconnect& link) {
    return multigpu::MultiGpuTrainer(DeviceConfig::titan_x_pascal(), n_gpus,
                                     p, link)
        .train(ds);
  };
  // One configuration on both links: the latency-bound run must build the
  // bandwidth-only run's forest bit for bit, and the comm labels must show
  // the schedules each link implies.  The body fills `ref` before run_leg
  // compares against it, so a throw on either link fails the leg.
  const auto two_links_leg = [&](const std::string& name, const GBDTParam& p) {
    multigpu::MultiTrainReport ring;
    multigpu::MultiTrainReport latency;
    LegOutput ref;
    LegResult leg = run_leg(
        name,
        [&] {
          ring = mgpu_run(p, kBandwidthOnlyLink);
          ref = LegOutput{ring.trees, ring.train_scores, 1.0};
          latency = mgpu_run(p, kLatencyBoundLink);
          return LegOutput{latency.trees, latency.train_scores, 1.0};
        },
        ref, 0.0, ds.labels());
    if (!leg.failed()) {
      leg.detail = schedule_mismatch(p, n_gpus, ring, latency);
      leg.exact = leg.detail.empty();
    }
    return leg;
  };
  result.legs.push_back(two_links_leg("latency_vs_bandwidth", base));

  // Histogram-allreduce mode: K-shard hist training vs the single-device
  // histogram method, and on both links, all bitwise.
  GBDTParam hist = base;
  hist.use_hist_trainer = true;
  hist.n_bins = c.n_bins;

  bool have_hist = false;
  LegOutput hist_ref;
  try {
    Device dev(DeviceConfig::titan_x_pascal());
    auto r = GpuGbdtTrainer(dev, hist).train(ds);
    hist_ref = LegOutput{std::move(r.trees), std::move(r.train_scores), 1.0};
    have_hist = true;
  } catch (const std::exception& e) {
    LegResult leg;
    leg.name = "mgpu_hist_single_baseline";
    leg.ran = true;
    leg.detail = std::string("single-device hist trainer threw: ") + e.what();
    result.legs.push_back(std::move(leg));
  }

  if (have_hist) {
    result.legs.push_back(run_leg(
        "mgpu_hist_vs_single",
        [&] {
          auto r = mgpu_run(hist, multigpu::Interconnect::pcie3());
          return LegOutput{std::move(r.trees), std::move(r.train_scores), 1.0};
        },
        hist_ref, 0.0, ds.labels()));
    result.legs.push_back(two_links_leg("hist_latency_vs_bandwidth", hist));
  }

  set_invariants_enabled(was_enabled);
  return result;
}

OracleResult run_race_oracle(const FuzzCase& c, bool check_invariants) {
  // Arm the happens-before detector for every trainer path (a race anywhere
  // fails its leg as an invariant violation), and force real streams so the
  // out-of-core double buffer is actually exercised.
  const bool race_was = analysis::race_detect_enabled();
  const bool async_was = device::stream_async_enabled();
  analysis::set_race_detect_enabled(true);
  device::set_stream_async_enabled(true);

  OracleResult result = run_oracle(c, check_invariants);

  const auto ds = data::generate(c.dataset_spec());
  const GBDTParam base = c.base_param();
  auto ooc_leg = [&](Device& dev) {
    auto r = OutOfCoreTrainer(dev, base, c.chunk_bytes,
                              c.ooc_stream_compressed)
                 .train(ds);
    return LegOutput{std::move(r.trees), std::move(r.train_scores), 1.0};
  };

  // Eager async baseline for the schedule-equivalence legs (the detector
  // stays armed: these runs must also be race-clean).
  bool have_async = false;
  LegOutput async_ref;
  try {
    Device dev(DeviceConfig::titan_x_pascal());
    async_ref = ooc_leg(dev);
    have_async = true;
  } catch (const std::exception& e) {
    LegResult leg;
    leg.name = "ooc_async_baseline";
    leg.ran = true;
    leg.detail = std::string("async pipeline threw: ") + e.what();
    result.legs.push_back(std::move(leg));
  }

  if (have_async) {
    result.legs.push_back(run_leg(
        "ooc_sync_hatch",
        [&] {
          device::set_stream_async_enabled(false);
          try {
            Device dev(DeviceConfig::titan_x_pascal());
            LegOutput out = ooc_leg(dev);
            device::set_stream_async_enabled(true);
            return out;
          } catch (...) {
            device::set_stream_async_enabled(true);
            throw;
          }
        },
        async_ref, 0.0, ds.labels()));

    for (int k = 0; k < 3; ++k) {
      result.legs.push_back(run_leg(
          "ooc_schedule_fuzz_" + std::to_string(k),
          [&] {
            Device dev(DeviceConfig::titan_x_pascal());
            dev.set_schedule_fuzz(c.seed * 1315423911ull +
                                  static_cast<std::uint64_t>(k));
            LegOutput out = ooc_leg(dev);
            dev.clear_schedule_fuzz();
            return out;
          },
          async_ref, 0.0, ds.labels()));
    }
  }

  device::set_stream_async_enabled(async_was);
  analysis::set_race_detect_enabled(race_was);
  return result;
}

FuzzCase minimize_case_with(
    const FuzzCase& failing,
    const std::function<bool(const FuzzCase&)>& still_fails,
    int max_attempts) {
  FuzzCase best = failing;
  int attempts = 0;
  bool shrunk = true;
  while (shrunk && attempts < max_attempts) {
    shrunk = false;
    // Shrink operations, most impactful first.
    const std::vector<std::function<bool(FuzzCase&)>> ops = {
        [](FuzzCase& c) {
          if (c.n_instances <= 10) return false;
          c.n_instances = std::max<std::int64_t>(10, c.n_instances / 2);
          return true;
        },
        [](FuzzCase& c) {
          if (c.n_trees <= 1) return false;
          c.n_trees = std::max(1, c.n_trees / 2);
          return true;
        },
        [](FuzzCase& c) {
          if (c.n_attributes <= 2) return false;
          c.n_attributes = std::max<std::int64_t>(2, c.n_attributes / 2);
          return true;
        },
        [](FuzzCase& c) {
          if (c.depth <= 1) return false;
          c.depth = std::max(1, c.depth / 2);
          return true;
        },
    };
    for (const auto& op : ops) {
      if (attempts >= max_attempts) break;
      FuzzCase candidate = best;
      if (!op(candidate)) continue;
      ++attempts;
      if (still_fails(candidate)) {
        best = candidate;
        shrunk = true;
      }
    }
  }
  return best;
}

FuzzCase minimize_case(const FuzzCase& failing, bool check_invariants,
                       int max_attempts) {
  return minimize_case_with(
      failing,
      [check_invariants](const FuzzCase& c) {
        return !run_oracle(c, check_invariants).pass();
      },
      max_attempts);
}

}  // namespace gbdt::testing
