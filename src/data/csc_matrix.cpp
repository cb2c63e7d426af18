#include "data/csc_matrix.h"

#include <algorithm>
#include <cassert>

#include "primitives/sort.h"
#include "primitives/transform.h"

namespace gbdt::data {

CscMatrix build_csc_host(const Dataset& ds) {
  CscMatrix csc;
  csc.n_instances = ds.n_instances();
  csc.n_attributes = ds.n_attributes();

  // Count entries per column.
  std::vector<std::int64_t> counts(static_cast<std::size_t>(csc.n_attributes), 0);
  for (const auto& e : ds.entries()) ++counts[static_cast<std::size_t>(e.attr)];

  csc.col_offsets.assign(static_cast<std::size_t>(csc.n_attributes) + 1, 0);
  for (std::int64_t a = 0; a < csc.n_attributes; ++a) {
    csc.col_offsets[static_cast<std::size_t>(a) + 1] =
        csc.col_offsets[static_cast<std::size_t>(a)] +
        counts[static_cast<std::size_t>(a)];
  }

  const auto n = static_cast<std::size_t>(ds.n_entries());
  csc.values.resize(n);
  csc.inst_ids.resize(n);

  // Bucket entries into columns in instance order, then sort each column by
  // value descending with a stable sort so ties keep ascending instance ids
  // (identical to the stable device radix sort on the composite key).
  std::vector<std::int64_t> cursor(csc.col_offsets.begin(),
                                   csc.col_offsets.end() - 1);
  for (std::int64_t i = 0; i < ds.n_instances(); ++i) {
    for (const auto& e : ds.instance(i)) {
      const auto pos = static_cast<std::size_t>(cursor[static_cast<std::size_t>(e.attr)]++);
      csc.values[pos] = e.value;
      csc.inst_ids[pos] = static_cast<std::int32_t>(i);
    }
  }
  std::vector<std::int32_t> order;
  for (std::int64_t a = 0; a < csc.n_attributes; ++a) {
    const auto lo = static_cast<std::size_t>(csc.col_offsets[static_cast<std::size_t>(a)]);
    const auto hi = static_cast<std::size_t>(csc.col_offsets[static_cast<std::size_t>(a) + 1]);
    order.resize(hi - lo);
    for (std::size_t k = 0; k < order.size(); ++k) {
      order[k] = static_cast<std::int32_t>(k);
    }
    std::stable_sort(order.begin(), order.end(),
                     [&](std::int32_t x, std::int32_t y) {
                       return csc.values[lo + static_cast<std::size_t>(x)] >
                              csc.values[lo + static_cast<std::size_t>(y)];
                     });
    std::vector<float> v(order.size());
    std::vector<std::int32_t> id(order.size());
    for (std::size_t k = 0; k < order.size(); ++k) {
      v[k] = csc.values[lo + static_cast<std::size_t>(order[k])];
      id[k] = csc.inst_ids[lo + static_cast<std::size_t>(order[k])];
    }
    std::copy(v.begin(), v.end(), csc.values.begin() + static_cast<std::ptrdiff_t>(lo));
    std::copy(id.begin(), id.end(), csc.inst_ids.begin() + static_cast<std::ptrdiff_t>(lo));
  }
  return csc;
}

DeviceCsc build_csc_device(device::Device& dev, const Dataset& ds) {
  DeviceCsc out;
  out.n_instances = ds.n_instances();
  out.n_attributes = ds.n_attributes();
  const std::int64_t n = ds.n_entries();

  // Ship the raw sparse entries over PCI-e: (attr, value) pairs plus the
  // instance id of each entry.
  std::vector<std::int32_t> h_attr(static_cast<std::size_t>(n));
  std::vector<float> h_val(static_cast<std::size_t>(n));
  std::vector<std::int32_t> h_inst(static_cast<std::size_t>(n));
  {
    std::size_t k = 0;
    for (std::int64_t i = 0; i < ds.n_instances(); ++i) {
      for (const auto& e : ds.instance(i)) {
        h_attr[k] = e.attr;
        h_val[k] = e.value;
        h_inst[k] = static_cast<std::int32_t>(i);
        ++k;
      }
    }
  }
  auto d_attr = dev.to_device<std::int32_t>(h_attr);
  auto d_val = dev.to_device<float>(h_val);
  auto d_inst = dev.to_device<std::int32_t>(h_inst);

  // Composite sort keys: attribute ascending, value descending.  The radix
  // sort is stable and entries arrive in ascending instance order, so equal
  // (attr, value) pairs keep ascending instance ids.
  auto keys = dev.alloc<std::uint64_t>(static_cast<std::size_t>(n));
  auto payload = dev.alloc<std::uint32_t>(static_cast<std::size_t>(n));
  {
    auto a = d_attr.span();
    auto v = d_val.span();
    auto k = keys.span();
    auto p = payload.span();
    dev.launch("csc_make_keys", device::grid_for(n, prim::kBlockDim),
               prim::kBlockDim, [&](device::BlockCtx& b) {
                 b.for_each_thread([&](std::int64_t i) {
                   if (i < n) {
                     const auto u = static_cast<std::size_t>(i);
                     k[u] = prim::column_desc_key(
                         static_cast<std::uint32_t>(a[u]), v[u]);
                     p[u] = static_cast<std::uint32_t>(i);
                   }
                 });
                 b.mem_coalesced(prim::elems_in_block(b, n) * 20);
               });
  }
  prim::radix_sort_pairs(dev, keys, payload, 64);

  // Permute values and instance ids by the sorted payload.
  out.values = dev.alloc<float>(static_cast<std::size_t>(n));
  out.inst_ids = dev.alloc<std::int32_t>(static_cast<std::size_t>(n));
  {
    auto p = payload.span();
    auto v_in = d_val.span();
    auto i_in = d_inst.span();
    auto v_out = out.values.span();
    auto i_out = out.inst_ids.span();
    dev.launch("csc_permute", device::grid_for(n, prim::kBlockDim),
               prim::kBlockDim, [&](device::BlockCtx& b) {
                 b.for_each_thread([&](std::int64_t i) {
                   if (i < n) {
                     const auto u = static_cast<std::size_t>(i);
                     const auto src = static_cast<std::size_t>(p[u]);
                     v_out[u] = v_in[src];
                     i_out[u] = i_in[src];
                   }
                 });
                 const auto m = prim::elems_in_block(b, n);
                 b.mem_coalesced(m * 12);
                 b.mem_irregular(m * 2);  // payload-directed gathers
               });
  }

  // Column offsets from the sorted attribute sequence (single-block sweep;
  // runs once per dataset).
  out.col_offsets = dev.alloc<std::int64_t>(
      static_cast<std::size_t>(out.n_attributes) + 1);
  {
    auto k = keys.span();
    auto off = out.col_offsets.span();
    const std::int64_t n_attr = out.n_attributes;
    dev.launch("csc_offsets", 1, prim::kBlockDim, [&](device::BlockCtx& b) {
      std::int64_t e = 0;
      for (std::int64_t a = 0; a <= n_attr; ++a) {
        while (e < n &&
               static_cast<std::int64_t>(k[static_cast<std::size_t>(e)] >> 32) < a) {
          ++e;
        }
        off[static_cast<std::size_t>(a)] = e;
      }
      b.work(static_cast<std::uint64_t>(n + n_attr));
      b.mem_coalesced(static_cast<std::uint64_t>(n) * 8 +
                      static_cast<std::uint64_t>(n_attr + 1) * 8);
    });
  }
  return out;
}

}  // namespace gbdt::data
