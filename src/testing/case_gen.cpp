#include "testing/case_gen.h"

#include <sstream>

namespace gbdt::testing {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

/// Uniform pick in [lo, hi] from one splitmix64 draw.
std::int64_t pick(std::uint64_t& state, std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(
                  splitmix64(state) %
                  static_cast<std::uint64_t>(hi - lo + 1));
}

double pick_unit(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

}  // namespace

FuzzCase FuzzCase::from_seed(std::uint64_t seed) {
  FuzzCase c;
  c.seed = seed;
  std::uint64_t s = seed;

  c.n_instances = pick(s, 30, 600);
  c.n_attributes = pick(s, 2, 24);
  // Half the cases dense, half sparse with density in [0.2, 1).
  c.density = pick(s, 0, 1) == 0 ? 1.0 : 0.2 + 0.8 * pick_unit(s);
  // Half continuous, half low-cardinality (the RLE-compressible regime).
  c.distinct_values =
      pick(s, 0, 1) == 0 ? 0 : static_cast<int>(pick(s, 2, 16));
  c.zipf_values = pick(s, 0, 1) == 0;

  c.depth = static_cast<int>(pick(s, 1, 6));
  c.n_trees = static_cast<int>(pick(s, 1, 4));
  c.lambda = pick(s, 0, 1) == 0 ? 1.0 : 0.1 + 10.0 * pick_unit(s);
  c.gamma = pick(s, 0, 3) == 0 ? 0.5 * pick_unit(s) : 0.0;
  c.loss = pick(s, 0, 1) == 0 ? LossKind::kSquaredError : LossKind::kLogistic;

  c.n_gpus = static_cast<int>(
      pick(s, 2, std::min<std::int64_t>(4, c.n_attributes)));
  // 64 KiB (the trainer's minimum) up to 1 MiB.  A chunk holds up to
  // chunk_bytes / 12 entries (5,461 at 64 KiB) and a case at most
  // 600 x 24 = 14,400, so only about 4-5 % of cases stream two or more
  // chunks; the rest run the pipeline on one slot.  gbdt_fuzz prints the
  // count, and test_out_of_core covers multi-chunk streaming directly.
  c.chunk_bytes = static_cast<std::size_t>(1)
                      << static_cast<unsigned>(pick(s, 16, 20));
  c.ooc_stream_compressed = pick(s, 0, 1) == 0;
  // Drawn last so the histogram knob never perturbs the replay of fields
  // earlier cases already depended on.
  c.n_bins = 1 << static_cast<unsigned>(pick(s, 3, 8));  // 8..256
  // Objective/sampling knobs, appended after n_bins for the same
  // replay-stability reason.
  c.subsample = pick(s, 0, 1) == 0 ? 1.0 : 0.5 + 0.45 * pick_unit(s);
  c.feature_bag =
      pick(s, 0, 2) == 0 ? 0 : (pick(s, 0, 1) == 0 ? -1
                                                   : pick(s, 1, c.n_attributes));
  c.sampling_seed = splitmix64(s);
  c.query_size = static_cast<int>(pick(s, 5, 16));
  return c;
}

data::SyntheticSpec FuzzCase::dataset_spec() const {
  data::SyntheticSpec spec;
  spec.name = "fuzz";
  spec.n_instances = n_instances;
  spec.n_attributes = n_attributes;
  spec.density = density;
  spec.distinct_values = distinct_values;
  spec.zipf_values = zipf_values;
  spec.binary_labels = loss == LossKind::kLogistic;
  // The generation seed is derived from the case seed, never from global
  // state, so --seed replays are exact even after the minimizer shrinks
  // other fields.
  std::uint64_t s = seed ^ 0xd1f3a9b5c7e81357ull;
  spec.seed = static_cast<unsigned>(splitmix64(s));
  return spec;
}

GBDTParam FuzzCase::base_param() const {
  GBDTParam p;
  p.depth = depth;
  p.n_trees = n_trees;
  p.lambda = lambda;
  p.gamma = gamma;
  p.loss = loss;
  p.use_rle = false;
  p.force_rle = false;
  return p;
}

std::string FuzzCase::describe() const {
  std::ostringstream os;
  os << "seed=0x" << std::hex << seed << std::dec << " n=" << n_instances
     << " d=" << n_attributes << " density=" << density
     << " distinct=" << distinct_values
     << (zipf_values ? " zipf" : " uniform") << " depth=" << depth
     << " trees=" << n_trees << " lambda=" << lambda << " gamma=" << gamma
     << " loss=" << (loss == LossKind::kSquaredError ? "l2" : "logistic")
     << " gpus=" << n_gpus << " chunk=" << chunk_bytes
     << (ooc_stream_compressed ? " ooc-rle" : " ooc-raw")
     << " bins=" << n_bins << " subsample=" << subsample
     << " bag=" << feature_bag << " qsize=" << query_size;
  return os.str();
}

std::string FuzzCase::repro_command() const {
  const FuzzCase fresh = from_seed(seed);
  std::ostringstream os;
  os << "tools/gbdt_fuzz --seed 0x" << std::hex << seed << std::dec;
  // Only shrunken fields need explicit overrides.
  if (n_instances != fresh.n_instances) os << " --rows " << n_instances;
  if (n_attributes != fresh.n_attributes) os << " --cols " << n_attributes;
  if (n_trees != fresh.n_trees) os << " --trees " << n_trees;
  if (depth != fresh.depth) os << " --depth " << depth;
  return os.str();
}

}  // namespace gbdt::testing
