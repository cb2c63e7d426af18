// Randomized trainer-configuration cases for differential fuzzing.
//
// One 64-bit seed deterministically expands into a complete case: dataset
// shape (cardinality, dimensionality, density, value cardinality), loss,
// tree depth/count, regularization, RLE gating, multi-GPU shard count and
// out-of-core chunking.  Replaying the same seed reproduces the same case
// and (because every downstream RNG is derived from it) the same training
// run, which is what makes `gbdt_fuzz --seed` repro commands exact.
#pragma once

#include <cstdint>
#include <string>

#include "core/param.h"
#include "data/synthetic.h"

namespace gbdt::testing {

/// SplitMix64 step: the sub-seed derivation used everywhere in the fuzz
/// harness, so no generator ever touches hidden global RNG state.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// One fuzz case.  All fields are derived from `seed` by FuzzCase::from_seed;
/// the minimizer then shrinks fields directly (the shrunken case is replayed
/// through explicit field overrides, not through the seed).
struct FuzzCase {
  std::uint64_t seed = 0;

  // Dataset shape.
  std::int64_t n_instances = 200;
  std::int64_t n_attributes = 8;
  double density = 1.0;
  int distinct_values = 0;  // 0 = continuous
  bool zipf_values = true;

  // Boosting configuration.
  int depth = 4;
  int n_trees = 2;
  double lambda = 1.0;
  double gamma = 0.0;
  LossKind loss = LossKind::kSquaredError;

  // Path-specific knobs.
  int n_gpus = 2;                  // multi-GPU leg (always <= n_attributes)
  std::size_t chunk_bytes = std::size_t{1} << 17;  // out-of-core leg
  bool ooc_stream_compressed = true;
  int n_bins = 64;                 // histogram-trainer leg bin budget

  // Objective/sampling knobs (gbdt_fuzz --objective legs).  Defaults are the
  // disabled configuration; base_param() never sets them, so the other
  // oracles keep training exactly the pre-objective-layer configuration.
  double subsample = 1.0;
  std::int64_t feature_bag = 0;       // 0 = all, -1 = sqrt, n > 0 = explicit
  std::uint64_t sampling_seed = 42;
  int query_size = 10;                // mean docs per query, ranking leg

  [[nodiscard]] static FuzzCase from_seed(std::uint64_t seed);

  /// The synthetic dataset spec of this case (generation seed derived from
  /// the case seed).
  [[nodiscard]] data::SyntheticSpec dataset_spec() const;

  /// Base hyper-parameters shared by every trainer leg.
  [[nodiscard]] GBDTParam base_param() const;

  /// One-line human-readable summary.
  [[nodiscard]] std::string describe() const;

  /// Command-line that replays exactly this case (including any minimizer
  /// shrinks) through tools/gbdt_fuzz.
  [[nodiscard]] std::string repro_command() const;
};

}  // namespace gbdt::testing
