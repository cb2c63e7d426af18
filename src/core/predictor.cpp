#include "core/predictor.h"

#include <cstdint>

#include "primitives/transform.h"

namespace gbdt {

using device::BlockCtx;
using prim::kBlockDim;

ForestSoA ForestSoA::flatten(std::span<const Tree> trees,
                             double base_score) {
  ForestSoA f;
  f.base_score = base_score;
  f.tree_off.push_back(0);
  for (const auto& t : trees) {
    for (const auto& nd : t.nodes()) {
      f.left.push_back(nd.left);
      f.right.push_back(nd.right);
      f.attr.push_back(nd.attr);
      f.split.push_back(nd.split_value);
      f.def_left.push_back(nd.default_left ? 1 : 0);
      f.weight.push_back(nd.weight);
    }
    f.tree_off.push_back(static_cast<std::int64_t>(f.left.size()));
  }
  return f;
}

std::int64_t ForestSoA::leaf(std::span<const data::Entry> row,
                             std::int64_t t) const {
  const std::int64_t base = tree_off[static_cast<std::size_t>(t)];
  std::int64_t id = base;
  while (left[static_cast<std::size_t>(id)] >= 0) {
    const auto nu = static_cast<std::size_t>(id);
    const std::int32_t want = attr[nu];
    std::int64_t lo = 0, hi = static_cast<std::int64_t>(row.size());
    const float* found = nullptr;
    while (lo < hi) {
      const std::int64_t mid = (lo + hi) / 2;
      const auto mu = static_cast<std::size_t>(mid);
      if (row[mu].attr < want) {
        lo = mid + 1;
      } else if (row[mu].attr > want) {
        hi = mid;
      } else {
        found = &row[mu].value;
        break;
      }
    }
    const bool go_left = found != nullptr ? *found >= split[nu] : def_left[nu] != 0;
    id = base + (go_left ? left[nu] : right[nu]);
  }
  return id - base;
}

DeviceForest::DeviceForest(device::Device& dev, const ForestSoA& host)
    : n_trees_(host.n_trees()),
      base_score_(host.base_score),
      d_tree_off_(dev.to_device<std::int64_t>(host.tree_off)),
      d_left_(dev.to_device<std::int32_t>(host.left)),
      d_right_(dev.to_device<std::int32_t>(host.right)),
      d_attr_(dev.to_device<std::int32_t>(host.attr)),
      d_split_(dev.to_device<float>(host.split)),
      d_def_left_(dev.to_device<std::uint8_t>(host.def_left)),
      d_weight_(dev.to_device<double>(host.weight)) {}

DeviceRows::DeviceRows(device::Device& dev, const data::Dataset& ds)
    : n_rows_(ds.n_instances()), n_attr_(ds.n_attributes()) {
  std::vector<std::int32_t> attrs(static_cast<std::size_t>(ds.n_entries()));
  std::vector<float> vals(static_cast<std::size_t>(ds.n_entries()));
  for (std::size_t k = 0; k < attrs.size(); ++k) {
    attrs[k] = ds.entries()[k].attr;
    vals[k] = ds.entries()[k].value;
  }
  d_offsets_ = dev.to_device<std::int64_t>(ds.row_offsets());
  d_attrs_ = dev.to_device<std::int32_t>(attrs);
  d_values_ = dev.to_device<float>(vals);
}

void predict_resident(device::Device& dev, const DeviceForest& forest,
                      const DeviceRows& rows,
                      device::DeviceBuffer<double>& inout,
                      std::int64_t tree_lo, std::int64_t tree_hi,
                      const char* name) {
  const std::int64_t n = rows.n_rows();
  const std::int64_t n_range = tree_hi - tree_lo;
  if (n <= 0 || n_range <= 0) return;

  const std::int64_t total = n * n_range;
  auto ro = rows.offsets();
  auto ra = rows.attrs();
  auto rv = rows.values();
  auto toff = forest.tree_off();
  const DeviceNodes nodes{forest.left(), forest.right(), forest.attr(),
                          forest.split(), forest.def_left()};
  auto W = forest.weight();
  auto out = inout.span();
  dev.launch(name, device::grid_for(total, kBlockDim), kBlockDim,
             [&](BlockCtx& b) {
               std::uint64_t steps = 0;
               b.for_each_thread([&](std::int64_t x) {
                 if (x >= total) return;
                 const std::int64_t i = x % n;             // instance
                 const std::int64_t t = tree_lo + x / n;   // tree
                 const auto iu = static_cast<std::size_t>(i);
                 const DeviceWalk w =
                     walk_row(ra, rv, ro[iu], ro[iu + 1], rows.n_attr(),
                              nodes, toff[static_cast<std::size_t>(t)]);
                 steps += w.misses + 3 * w.nodes;
                 // One thread per (instance, tree): partial sums accumulate
                 // with a global atomic, as in the paper's prediction kernel.
                 out[iu] += W[static_cast<std::size_t>(w.leaf)];
               });
               b.work(steps);
               b.mem_irregular(steps);
               b.atomic(prim::elems_in_block(b, total));
             });
}

std::vector<double> predict_on_device(device::Device& dev,
                                      const std::vector<Tree>& trees,
                                      double base_score,
                                      const data::Dataset& ds) {
  const DeviceForest forest(dev, ForestSoA::flatten(trees, base_score));
  const DeviceRows rows(dev, ds);

  auto d_out = dev.alloc<double>(static_cast<std::size_t>(ds.n_instances()));
  prim::fill(dev, d_out, base_score);
  predict_resident(dev, forest, rows, d_out, 0, forest.n_trees());
  return dev.to_host(d_out);
}

double RowPredictor::score(std::span<const data::Entry> row) const {
  return partial(row, 0, soa_.n_trees(), soa_.base_score);
}

double RowPredictor::partial(std::span<const data::Entry> row,
                             std::int64_t tree_lo, std::int64_t tree_hi,
                             double seed) const {
  double s = seed;
  for (std::int64_t t = tree_lo; t < tree_hi; ++t) {
    s += soa_.leaf_weight(row, t);
  }
  return s;
}

}  // namespace gbdt
