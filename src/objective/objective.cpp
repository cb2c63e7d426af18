#include "objective/objective.h"

#include <stdexcept>

#include "obs/trace.h"
#include "objective/ranking.h"
#include "objective/sampling.h"
#include "primitives/transform.h"

namespace gbdt::objective {

using device::BlockCtx;
using prim::kBlockDim;

std::unique_ptr<Objective> make_objective(device::Device& dev,
                                          const GBDTParam& param,
                                          const data::Dataset& ds) {
  switch (param.objective) {
    case ObjectiveKind::kPointwise:
      return std::make_unique<PointwiseObjective>();
    case ObjectiveKind::kRanking:
      return std::make_unique<RankingObjective>(dev, param, ds);
  }
  throw std::invalid_argument("unknown objective kind");
}

RoundDriver::RoundDriver(device::Device& dev, const GBDTParam& param,
                         const data::Dataset& ds, int n_shards,
                         int shard_index)
    : dev_(dev), param_(param),
      objective_(make_objective(dev, param, ds)),
      global_n_attr_(ds.n_attributes()), n_shards_(n_shards),
      shard_index_(shard_index) {
  if (n_shards_ < 1 || shard_index_ < 0 || shard_index_ >= n_shards_) {
    throw std::invalid_argument("bad shard spec");
  }
  sampling_enabled_ =
      param.subsample < 1.0 ||
      resolve_feature_bag(param.feature_bag, global_n_attr_) < global_n_attr_;
}

void RoundDriver::begin_round(detail::TrainState& st,
                              const device::DeviceBuffer<float>& labels,
                              int tree_index) {
  st.feature_mask = {};
  if (param_.objective == ObjectiveKind::kPointwise) {
    // Same call the trainers used to make directly: bitwise identical and
    // span-free on the default path.
    objective_->gradients(st, labels);
  } else {
    obs::ScopedSpan span("objective_gradients");
    objective_->gradients(st, labels);
  }
  if (!sampling_enabled_) return;

  obs::ScopedSpan span("sampling_plan");
  const SamplingPlan plan =
      SamplingPlan::make(param_, tree_index, st.n_inst, global_n_attr_);

  if (plan.rows_masked()) {
    if (d_row_mask_.size() == 0) {
      d_row_mask_ =
          dev_.alloc<std::uint8_t>(static_cast<std::size_t>(st.n_inst));
    }
    dev_.copy_to_device<std::uint8_t>(plan.row_mask(), d_row_mask_);
    const std::int64_t n = st.n_inst;
    auto mask = d_row_mask_.span();
    auto gh = st.gh.span();
    dev_.launch("sample_mask_gradients", device::grid_for(n, kBlockDim),
                kBlockDim, [&](BlockCtx& b) {
                  b.for_each_thread([&](std::int64_t i) {
                    if (i >= n) return;
                    const auto u = static_cast<std::size_t>(i);
                    if (mask[u] == 0) gh[u] = detail::GHPair{};
                  });
                  b.reads_tile(mask, n);
                  b.writes_tile(gh, n);
                  // mask byte read + up to one (g, h) pair write per row
                  b.mem_coalesced(prim::elems_in_block(b, n) * 17);
                });
  }

  if (plan.features_masked()) {
    const std::vector<std::uint8_t> local =
        n_shards_ == 1 ? plan.feature_mask()
                       : plan.shard_feature_mask(n_shards_, shard_index_);
    if (d_feature_mask_.size() == 0) {
      d_feature_mask_ = dev_.alloc<std::uint8_t>(local.size());
    }
    dev_.copy_to_device<std::uint8_t>(local, d_feature_mask_);
    st.feature_mask = d_feature_mask_.span();
  }
}

}  // namespace gbdt::objective
