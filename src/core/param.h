// Training hyper-parameters and the GPU-GBDT optimization toggles.
#pragma once

#include <cstdint>

namespace gbdt {

enum class LossKind {
  kSquaredError,  // l = (y - yhat)^2, the paper's experimental loss
  kLogistic,      // binary cross-entropy on logits
};

/// Who produces the per-round gradients (src/objective/).
enum class ObjectiveKind {
  kPointwise,  // per-instance Loss derivatives (regression / binary)
  kRanking,    // pairwise LambdaMART gradients over query groups
};

/// Hyper-parameters of Algorithm 1 plus the GPU-specific knobs.  The `use_*`
/// toggles switch the paper's individual optimizations off for the Figure 9
/// ablation study; all default to the paper's configuration.
struct GBDTParam {
  // ---- Algorithm 1 inputs ------------------------------------------------
  int depth = 6;          // d: maximum tree depth (levels 0..d-1 may split)
  int n_trees = 40;       // T
  double lambda = 1.0;    // regularization constant in the gain formula
  double gamma = 0.0;     // minimum gain for a valid split
  double eta = 0.3;       // shrinkage applied to leaf weights
  double base_score = 0.0;
  LossKind loss = LossKind::kSquaredError;

  // ---- objective / sampling layer (src/objective/) -----------------------
  /// Gradient producer.  kRanking needs query groups on the Dataset.
  ObjectiveKind objective = ObjectiveKind::kPointwise;
  /// Cutoff k of the NDCG@k eval metric and the LambdaMART |dNDCG| weights.
  int ndcg_k = 10;
  /// Per-tree row subsampling ratio in (0, 1]; 1.0 = every row visible
  /// (the no-sampling escape hatch: the SamplingPlan compiles out).
  double subsample = 1.0;
  /// Feature bag size per tree: 0 = all features, -1 = floor(sqrt(F)),
  /// n > 0 = exactly n features.
  std::int64_t feature_bag = 0;
  /// Seed of the per-tree sampling draws (splitmix64 sub-streams), shared by
  /// every trainer path so sampled forests are bitwise-reproducible.
  std::uint64_t sampling_seed = 42;
  /// Validation-metric cadence for early stopping: evaluate every
  /// `eval_freq` trees (the last tree is always evaluated).
  int eval_freq = 1;

  // ---- GPU-GBDT technique knobs -----------------------------------------
  /// R: compress with RLE when dimensionality/cardinality exceeds this.
  double rle_threshold_r = 10.0;
  /// C in the Customized SetKey formula segs/block = 1 + #segs/(#SM * C).
  std::int64_t setkey_c = 1000;

  // ---- Figure 9 ablation toggles ----------------------------------------
  /// Customized SetKey: adaptive segments-per-block (off = 1 seg per block).
  bool use_custom_setkey = true;
  /// Customized IdxComp Workload: adaptive partition thread workload
  /// (off = fixed workload of 16 from prior work).
  bool use_custom_idxcomp_workload = true;
  /// RLE compression (gated by rle_threshold_r unless force_rle).
  bool use_rle = true;
  /// Compress regardless of the estimated ratio (for tests/ablations).
  bool force_rle = false;
  /// SmartGD: gradients from the instance->leaf map left by training
  /// (off = naive per-tree traversal prediction).
  bool use_smart_gd = true;
  /// Directly split RLE elements (off = decompress, partition, recompress).
  bool use_direct_rle_split = true;

  /// Treat the input as a dense matrix with missing values filled as 0 (the
  /// xgbst-gpu layout).  Used by the dense baseline, not by GPU-GBDT.
  bool dense_layout = false;

  /// Search setkey_c and the idxcomp workload against the analytical device
  /// cost model at train start and apply the winners (src/core/autotune.h).
  bool autotune = false;

  // ---- histogram-method knobs -------------------------------------------
  /// Train with the device-side histogram trainer (quantized feature bins +
  /// per-node gradient histograms with the subtraction trick) instead of the
  /// paper's exact sorted-list trainer.  Approximate splits: quality is
  /// equivalent, split points are quantile-bin boundaries.
  bool use_hist_trainer = false;
  /// Maximum quantile buckets per attribute for the histogram method
  /// (both the device trainer and the CPU baseline), in [1, 4096].
  int n_bins = 64;
};

}  // namespace gbdt
