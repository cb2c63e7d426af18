#include "testing/invariants.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "core/trainer_detail.h"

namespace gbdt::testing {

namespace {

enum class Flag : int { kUnset = -1, kOff = 0, kOn = 1 };

std::atomic<int> g_enabled{static_cast<int>(Flag::kUnset)};

bool env_enabled() {
  const char* v = std::getenv("GBDT_CHECK_INVARIANTS");
  if (v == nullptr) return false;
  return std::strcmp(v, "1") == 0 || std::strcmp(v, "on") == 0 ||
         std::strcmp(v, "true") == 0;
}

[[noreturn]] void fail(const char* where, const std::string& what) {
  throw InvariantViolation(std::string(where) + ": " + what);
}

}  // namespace

bool invariants_enabled() {
  int state = g_enabled.load(std::memory_order_relaxed);
  if (state == static_cast<int>(Flag::kUnset)) {
    state = env_enabled() ? static_cast<int>(Flag::kOn)
                          : static_cast<int>(Flag::kOff);
    g_enabled.store(state, std::memory_order_relaxed);
  }
  return state == static_cast<int>(Flag::kOn);
}

void set_invariants_enabled(bool enabled) {
  g_enabled.store(static_cast<int>(enabled ? Flag::kOn : Flag::kOff),
                  std::memory_order_relaxed);
}

FaultInjection& fault_injection() {
  static FaultInjection fi;
  return fi;
}

void maybe_inject_partition_fault(std::span<const std::int64_t> seg_offsets,
                                  std::span<float> values) {
  if (!invariants_enabled() || !fault_injection().break_partition_order) {
    return;
  }
  // Make the first segment with >= 2 elements ascend instead of descend.
  for (std::size_t s = 0; s + 1 < seg_offsets.size(); ++s) {
    const auto lo = static_cast<std::size_t>(seg_offsets[s]);
    if (seg_offsets[s + 1] - seg_offsets[s] >= 2) {
      values[lo] = values[lo + 1] - 1.f;
      return;
    }
  }
}

namespace {

/// The compact segment table of `n_slots` slots (both layouts): ids
/// strictly ascending, each inside its slot's list range, slot offsets
/// covering the list, element offsets strictly increasing (no empty
/// segment) over [0, n_elems].
void check_segment_table(const detail::TrainState& st, std::int64_t n_slots,
                         const char* where) {
  const detail::SegmentTable& t = st.seg;
  const std::int64_t n_seg = t.size();
  const auto off = t.offsets;
  const auto ids = t.ids;
  const auto so = t.slot_offsets;
  if (static_cast<std::int64_t>(off.size()) != n_seg + 1) {
    fail(where, "seg offsets have " + std::to_string(off.size()) +
                    " entries for " + std::to_string(n_seg) + " segments");
  }
  if (off[0] != 0 || off[static_cast<std::size_t>(n_seg)] != st.n_elems) {
    fail(where, "seg offsets cover [" + std::to_string(off[0]) + ", " +
                    std::to_string(off[static_cast<std::size_t>(n_seg)]) +
                    "), expected [0, " + std::to_string(st.n_elems) + ")");
  }
  if (static_cast<std::int64_t>(so.size()) != n_slots + 1 || so[0] != 0 ||
      so[static_cast<std::size_t>(n_slots)] != n_seg) {
    fail(where, "slot offsets do not cover the " + std::to_string(n_seg) +
                    "-segment list over " + std::to_string(n_slots) +
                    " slots");
  }
  for (std::int64_t slot = 0; slot < n_slots; ++slot) {
    const auto su = static_cast<std::size_t>(slot);
    if (so[su] > so[su + 1]) {
      fail(where, "slot offsets not monotone at slot " + std::to_string(slot));
    }
    for (std::int64_t s = so[su]; s < so[su + 1]; ++s) {
      if (ids[static_cast<std::size_t>(s)] / st.n_attr != slot) {
        fail(where, "segment " + std::to_string(s) + " (id " +
                        std::to_string(ids[static_cast<std::size_t>(s)]) +
                        ") listed under slot " + std::to_string(slot));
      }
    }
  }
  for (std::int64_t s = 0; s < n_seg; ++s) {
    const auto u = static_cast<std::size_t>(s);
    if (s > 0 && !(ids[u - 1] < ids[u])) {
      fail(where, "segment ids not strictly ascending at segment " +
                      std::to_string(s));
    }
    if (!(off[u] < off[u + 1])) {
      fail(where, "listed segment " + std::to_string(s) + " (id " +
                      std::to_string(ids[u]) + ") is empty");
    }
  }
}

}  // namespace

void check_sparse_layout(const detail::TrainState& st, std::int64_t n_slots,
                         const char* where) {
  if (!invariants_enabled()) return;
  check_segment_table(st, n_slots, where);
  const auto off = st.seg.offsets;
  const std::int64_t n_seg = st.seg.size();
  const auto values = st.values.span();
  const auto inst = st.inst.span();
  for (std::int64_t s = 0; s < n_seg; ++s) {
    const auto u = static_cast<std::size_t>(s);
    for (std::int64_t e = off[u]; e < off[u + 1]; ++e) {
      const auto eu = static_cast<std::size_t>(e);
      if (e > off[u] && values[eu - 1] < values[eu]) {
        fail(where, "segment " + std::to_string(s) +
                        " not sorted descending at element " +
                        std::to_string(e) + " (" +
                        std::to_string(values[eu - 1]) + " < " +
                        std::to_string(values[eu]) + ")");
      }
      if (inst[eu] < 0 || inst[eu] >= st.n_inst) {
        fail(where, "instance id " + std::to_string(inst[eu]) +
                        " out of range at element " + std::to_string(e));
      }
    }
  }
}

void check_rle_layout(const detail::TrainState& st, std::int64_t n_slots,
                      const char* where) {
  if (!invariants_enabled()) return;
  check_segment_table(st, n_slots, where);
  const std::int64_t n_seg = st.seg.size();
  const std::int64_t n_runs = st.n_runs;
  const auto starts = st.run_starts.span();
  const auto roff = st.run_seg_offsets.span();
  const auto eoff = st.seg.offsets;
  const auto rv = st.run_values.span();
  if (static_cast<std::int64_t>(starts.size()) != n_runs + 1) {
    fail(where, "run_starts has " + std::to_string(starts.size()) +
                    " entries, expected " + std::to_string(n_runs + 1));
  }
  if (static_cast<std::int64_t>(roff.size()) != n_seg + 1) {
    fail(where, "run segment offsets sized for " +
                    std::to_string(roff.size() - 1) + " segments, expected " +
                    std::to_string(n_seg));
  }
  if (starts[0] != 0 ||
      starts[static_cast<std::size_t>(n_runs)] != st.n_elems) {
    fail(where, "run starts cover [" + std::to_string(starts[0]) + ", " +
                    std::to_string(starts[static_cast<std::size_t>(n_runs)]) +
                    "), expected [0, " + std::to_string(st.n_elems) + ")");
  }
  for (std::int64_t r = 0; r < n_runs; ++r) {
    const auto u = static_cast<std::size_t>(r);
    if (starts[u + 1] <= starts[u]) {
      fail(where, "run " + std::to_string(r) + " has non-positive length " +
                      std::to_string(starts[u + 1] - starts[u]));
    }
  }
  if (roff[0] != 0 || roff[static_cast<std::size_t>(n_seg)] != n_runs) {
    fail(where, "run segment offsets do not cover all runs");
  }
  for (std::int64_t s = 0; s < n_seg; ++s) {
    const auto u = static_cast<std::size_t>(s);
    if (roff[u] >= roff[u + 1]) {
      fail(where, "listed segment " + std::to_string(s) + " holds no run");
    }
    // Element-domain boundary of the segment must be the start of its first
    // run.
    if (starts[static_cast<std::size_t>(roff[u])] != eoff[u]) {
      fail(where, "segment " + std::to_string(s) +
                      ": run/element boundaries disagree (" +
                      std::to_string(starts[static_cast<std::size_t>(roff[u])]) +
                      " vs " + std::to_string(eoff[u]) + ")");
    }
    for (std::int64_t r = roff[u] + 1; r < roff[u + 1]; ++r) {
      const auto ru = static_cast<std::size_t>(r);
      if (!(rv[ru - 1] > rv[ru])) {
        fail(where, "segment " + std::to_string(s) +
                        ": run values not strictly descending at run " +
                        std::to_string(r) + " (" + std::to_string(rv[ru - 1]) +
                        " then " + std::to_string(rv[ru]) + ")");
      }
    }
  }
}

void check_rle_roundtrip(device::Device& dev, const rle::DeviceRle& compressed,
                         const device::DeviceBuffer<float>& original,
                         const char* where) {
  if (!invariants_enabled()) return;
  if (compressed.n_elements !=
      static_cast<std::int64_t>(original.size())) {
    fail(where, "compressed element count " +
                    std::to_string(compressed.n_elements) + " != original " +
                    std::to_string(original.size()));
  }
  auto restored = dev.alloc<float>(original.size());
  rle::decompress(dev, compressed, restored);
  const auto a = restored.span();
  const auto b = original.span();
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (a[i] != b[i]) {
      fail(where, "decompress(compress(x)) differs from x at element " +
                      std::to_string(i) + " (" + std::to_string(a[i]) +
                      " vs " + std::to_string(b[i]) + ")");
    }
  }
}

namespace {

/// node_of must hold each listed (tree node, count) pair's count.
void check_instance_counts(
    std::span<const std::int32_t> node_of,
    std::span<const std::pair<std::int32_t, std::int64_t>> expected,
    const char* where) {
  if (expected.empty()) return;
  std::int32_t max_id = 0;
  for (const auto& [id, cnt] : expected) max_id = std::max(max_id, id);
  std::vector<std::int64_t> counts(static_cast<std::size_t>(max_id) + 1, 0);
  for (const std::int32_t id : node_of) {
    if (id >= 0 && id <= max_id) ++counts[static_cast<std::size_t>(id)];
  }
  for (const auto& [id, cnt] : expected) {
    if (counts[static_cast<std::size_t>(id)] != cnt) {
      fail(where, "instance->node map holds " +
                      std::to_string(counts[static_cast<std::size_t>(id)]) +
                      " instances for node " + std::to_string(id) +
                      ", expected " + std::to_string(cnt));
    }
  }
}

}  // namespace

void check_level_conservation(const detail::TrainState& st,
                              const char* where) {
  if (!invariants_enabled()) return;
  std::vector<std::pair<std::int32_t, std::int64_t>> expected;
  for (std::int64_t s = 0; s < st.n_slots; ++s) {
    const TreeNode& parent =
        st.nodes[static_cast<std::size_t>(st.level_base + s)];
    if (parent.is_leaf()) continue;
    const TreeNode& left = st.nodes[static_cast<std::size_t>(parent.left)];
    const TreeNode& right = st.nodes[static_cast<std::size_t>(parent.right)];
    std::int64_t left_count = left.n_instances;
    if (fault_injection().break_child_counts && left_count > 0) {
      left_count -= 1;
    }
    if (left_count <= 0 || right.n_instances <= 0) {
      fail(where, "slot " + std::to_string(s) + " split produced an empty " +
                      "child (" + std::to_string(left_count) + " / " +
                      std::to_string(right.n_instances) + ")");
    }
    if (left_count + right.n_instances != parent.n_instances) {
      fail(where, "slot " + std::to_string(s) + " child counts " +
                      std::to_string(left_count) + " + " +
                      std::to_string(right.n_instances) + " != parent " +
                      std::to_string(parent.n_instances));
    }
    const double scale =
        1.0 + std::abs(parent.sum_g) + std::abs(parent.sum_h);
    if (std::abs(left.sum_g + right.sum_g - parent.sum_g) > 1e-6 * scale ||
        std::abs(left.sum_h + right.sum_h - parent.sum_h) > 1e-6 * scale) {
      fail(where, "slot " + std::to_string(s) +
                      " child gradient sums do not conserve the parent");
    }
    expected.emplace_back(parent.left, left_count);
    expected.emplace_back(parent.right, right.n_instances);
  }
  check_instance_counts(st.node_of.span(), expected, where);
}

void check_row_index(std::span<const std::int32_t> rows,
                     std::span<const std::int64_t> slot_rows,
                     std::span<const std::int32_t> node_of,
                     std::span<const std::int32_t> nodes, const char* where) {
  if (!invariants_enabled()) return;
  std::vector<std::int64_t> count(nodes.size(), 0);
  std::vector<std::size_t> slot_of_node;
  for (std::size_t s = 0; s < nodes.size(); ++s) {
    const auto id = static_cast<std::size_t>(nodes[s]);
    if (slot_of_node.size() <= id) slot_of_node.resize(id + 1, nodes.size());
    slot_of_node[id] = s;
  }
  for (const std::int32_t id : node_of) {
    const auto u = static_cast<std::size_t>(id);
    if (id >= 0 && u < slot_of_node.size() && slot_of_node[u] < nodes.size()) {
      ++count[slot_of_node[u]];
    }
  }
  for (std::size_t s = 0; s < nodes.size(); ++s) {
    const std::int64_t lo = slot_rows[s];
    const std::int64_t hi = slot_rows[s + 1];
    const std::string slot = "row index slot " + std::to_string(s);
    if (hi - lo != count[s]) {
      fail(where, slot + " holds " + std::to_string(hi - lo) +
                      " rows, node " + std::to_string(nodes[s]) + " has " +
                      std::to_string(count[s]));
    }
    for (std::int64_t k = lo; k < hi; ++k) {
      const std::int32_t r = rows[static_cast<std::size_t>(k)];
      if (node_of[static_cast<std::size_t>(r)] != nodes[s]) {
        fail(where, slot + " holds row " + std::to_string(r) +
                        " of node " +
                        std::to_string(node_of[static_cast<std::size_t>(r)]) +
                        ", expected node " + std::to_string(nodes[s]));
      }
      if (k > lo && r <= rows[static_cast<std::size_t>(k - 1)]) {
        fail(where, slot + " is not in ascending row order at position " +
                        std::to_string(k));
      }
    }
  }
}

namespace {

/// Host traversal mirroring the trainer's split convention: present value
/// >= split goes left, missing goes to the learned default child.
std::int32_t traverse(const Tree& tree, std::span<const data::Entry> row) {
  std::int32_t id = 0;
  while (!tree.node(id).is_leaf()) {
    const TreeNode& n = tree.node(id);
    const float* found = nullptr;
    std::size_t lo = 0, hi = row.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (row[mid].attr < n.attr) {
        lo = mid + 1;
      } else if (row[mid].attr > n.attr) {
        hi = mid;
      } else {
        found = &row[mid].value;
        break;
      }
    }
    const bool go_left =
        found != nullptr ? *found >= n.split_value : n.default_left;
    id = go_left ? n.left : n.right;
  }
  return id;
}

}  // namespace

void check_leaf_map(std::span<const std::int32_t> node_of, const Tree& tree,
                    const data::Dataset& ds, const char* where) {
  if (!invariants_enabled()) return;
  for (std::int64_t i = 0; i < ds.n_instances(); ++i) {
    const std::int32_t expected = traverse(tree, ds.instance(i));
    const std::int32_t got = node_of[static_cast<std::size_t>(i)];
    if (got != expected) {
      std::ostringstream os;
      os << "instance " << i << " maps to node " << got
         << " but tree traversal reaches leaf " << expected
         << " (SmartGD would gather the wrong leaf weight)";
      fail(where, os.str());
    }
  }
}

}  // namespace gbdt::testing
