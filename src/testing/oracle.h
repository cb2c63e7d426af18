// Trainer-path equivalence oracle.
//
// Trains one FuzzCase through every trainer path in the repository — the
// exact-greedy CPU reference (xgb_exact), the sparse GPU path, both RLE
// node-split strategies (Directly-Split and decompress/partition/
// recompress), feature-parallel multi-GPU, and out-of-core streaming — and
// verifies the paper's exactness claim: every path must construct the same
// trees and the same training scores as the reference.
//
// Comparison policy per leg (mirrors the repository's established tests):
//  * gpu_sparse must match the CPU reference bit for bit (trees and
//    scores) — the accumulation orders are deliberately identical;
//  * the other legs must match tree for tree within 1e-7 on split values,
//    except that *exact* gain ties may be broken differently when prefix
//    sums differ in the last ulp; such a divergence is accepted only when
//    the forests are functionally equivalent (same tree count and the same
//    training fit to within 1e-3 RMSE) and is reported separately from a
//    real discrepancy;
//  * the device histogram trainer (hist_vs_exact) splits on bin boundaries,
//    so its trees legitimately differ from the exact reference; the leg
//    demands the same tree count and a training fit within a quality
//    tolerance of the reference instead (quality equivalence, not bitwise).
#pragma once

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "multigpu/multi_trainer.h"
#include "testing/case_gen.h"

namespace gbdt::testing {

/// Outcome of one trainer leg compared against the CPU reference.
struct LegResult {
  std::string name;
  bool ran = false;            // leg skipped (e.g. too few attributes)
  bool exact = false;          // every tree structurally identical
  int divergent_trees = 0;     // trees differing within tie tolerance
  bool tie_equivalent = false; // divergences are functionally equivalent
  bool quality_equivalent = false;  // approximate leg: fit within tolerance
  bool invariant_violation = false;
  double rle_ratio = 1.0;      // RLE legs only
  std::string detail;          // first failure / divergence description

  /// A real discrepancy: ran, and neither exact, tie-equivalent nor
  /// quality-equivalent (or an invariant fired inside the trainer).
  [[nodiscard]] bool failed() const {
    return ran && (invariant_violation ||
                   !(exact || tie_equivalent || quality_equivalent));
  }
};

struct OracleResult {
  FuzzCase c;
  std::vector<LegResult> legs;
  /// Column chunks the out-of-core leg streamed per level, read off its
  /// device's timeline (0: no such leg ran).  With one chunk the double
  /// buffer never alternates slots.
  int ooc_chunks = 0;

  [[nodiscard]] bool pass() const {
    for (const auto& l : legs) {
      if (l.failed()) return false;
    }
    return true;
  }
  [[nodiscard]] int ties() const {
    int t = 0;
    for (const auto& l : legs) t += l.divergent_trees;
    return t;
  }
  /// Multi-line report of the failing legs (empty when pass()).
  [[nodiscard]] std::string failure_report() const;
};

/// Runs every trainer path on the case and compares against the CPU
/// reference.  With check_invariants, the structural invariant hooks inside
/// the trainers are armed for the duration of the run (a violation marks
/// the leg failed instead of propagating).
[[nodiscard]] OracleResult run_oracle(const FuzzCase& c,
                                      bool check_invariants = true);

/// Histogram-only oracle: the CPU reference plus the hist_vs_exact leg (the
/// quality-equivalence comparison the histogram trainer is validated by —
/// approximate splits cannot be compared structurally).  Much cheaper than
/// the full oracle; used by `gbdt_fuzz --hist` and the hist_smoke suite.
[[nodiscard]] OracleResult run_hist_oracle(const FuzzCase& c,
                                           bool check_invariants = true);

/// Serving-path oracle (`gbdt_fuzz --serve`): trains the case's model on
/// the sparse GPU path, computes the offline predict_on_device reference,
/// then routes every row through the serving stack and demands bitwise
/// agreement on three legs:
///  * serve_vs_batch     — the micro-batched queue path (batch size, shard
///    count, shard mode and overflow policy all derived from the seed);
///  * serve_row          — the single-row RowPredictor fast path;
///  * serve_relay        — the tree-shard relay with >= 2 shards (skipped
///    when the forest has a single tree).
/// With check_invariants, the snapshot fingerprint check is armed, so an
/// armed serve_torn_swap fault surfaces as an invariant_violation.
[[nodiscard]] OracleResult run_serve_oracle(const FuzzCase& c,
                                            bool check_invariants = true);

/// Objective/sampling oracle (`gbdt_fuzz --objective`): seeded-sampling
/// determinism plus the ranking objective's quality claim.
///  * trivial_plan_bitwise  — subsample=1.0 + feature_bag=all must be
///    bitwise identical to the same case with no sampling fields set at all
///    (the trivially-degenerate plan compiles out);
///  * sampled_replay_bitwise — replaying a sampled run with the same
///    sampling_seed must reproduce the forest bit for bit;
///  * sampled_rle_vs_sparse / sampled_multigpu / sampled_ooc — the sampled
///    forest must agree across trainer paths (the masks are drawn on the
///    host, so every path sees the identical plan);
///  * sampled_hist — the histogram trainer under the same masks must keep
///    the tree budget and a training fit comparable to the sampled exact
///    path (quality equivalence, like hist_vs_exact);
///  * ranking_beats_pointwise — on seeded query-grouped data whose queries
///    carry a query-constant bias feature, LambdaMART's held-out NDCG@10
///    must beat the squared-error baseline trained on the same data.
[[nodiscard]] OracleResult run_objective_oracle(const FuzzCase& c,
                                                bool check_invariants = true);

/// Multi-GPU collective oracle (`gbdt_fuzz --mgpu`), all bitwise:
///  * latency_vs_bandwidth — exact training on kLatencyBoundLink must
///    build the forest of kBandwidthOnlyLink, and schedule_mismatch must
///    find nothing;
///  * hist_latency_vs_bandwidth — the histogram-allreduce mode, same claims;
///  * mgpu_hist_vs_single — K-shard histogram training must reproduce the
///    single-device histogram trainer (global cuts, quantized int64
///    histogram sums and the merged-histogram splits are all
///    shard-count-invariant).
[[nodiscard]] OracleResult run_mgpu_oracle(const FuzzCase& c,
                                           bool check_invariants = true);

/// No per-message latency: the ring never prices above the tree.
inline constexpr multigpu::Interconnect kBandwidthOnlyLink{12.0, 0.0};
/// Infinite bandwidth, so a leg costs its latency alone: at K >= 4 a
/// payload of at least K elements prices the tree lower (2·ceil(log2 K)
/// legs on the root against the ring's 2(K-1)); below K = 4 it never does.
inline constexpr multigpu::Interconnect kLatencyBoundLink{
    std::numeric_limits<double>::infinity(), 10.0};
/// Empty when the comm labels (MultiTrainReport::stream_transfers) of `p`
/// trained on K shards show the schedules each link implies: the ring alone
/// on kBandwidthOnlyLink; on kLatencyBoundLink the ring, plus the
/// tree exactly when some merge prices it lower (every histogram level at
/// K >= 4, an exact level by its node count).  Otherwise, what differs.
[[nodiscard]] std::string schedule_mismatch(
    const GBDTParam& p, int n_shards,
    const multigpu::MultiTrainReport& bandwidth_only,
    const multigpu::MultiTrainReport& latency_bound);

/// Race-detection oracle (`gbdt_fuzz --race`): the full trainer-path oracle
/// with the happens-before race detector armed (a RaceViolation or
/// AuditViolation inside any leg marks it as an invariant violation), plus
/// stream-specific legs on the out-of-core double-buffer pipeline:
///  * ooc_sync_hatch        — the GBDT_SYNC_STREAMS serial schedule must be
///    bitwise identical to the eager async pipeline;
///  * ooc_schedule_fuzz_<k> — seeded random-but-legal interleavings of the
///    two streams (Device::set_schedule_fuzz) must also be bitwise
///    identical; a schedule-sensitive result means a missing ordering edge.
[[nodiscard]] OracleResult run_race_oracle(const FuzzCase& c,
                                           bool check_invariants = true);

/// Shrinks a failing case by halving rows/columns and dropping trees/depth
/// while `still_fails` keeps returning true; returns the smallest
/// still-failing case.  max_attempts bounds the number of re-runs.
[[nodiscard]] FuzzCase minimize_case_with(
    const FuzzCase& failing,
    const std::function<bool(const FuzzCase&)>& still_fails,
    int max_attempts = 64);

/// minimize_case_with over the full trainer oracle.
[[nodiscard]] FuzzCase minimize_case(const FuzzCase& failing,
                                     bool check_invariants = true,
                                     int max_attempts = 64);

}  // namespace gbdt::testing
