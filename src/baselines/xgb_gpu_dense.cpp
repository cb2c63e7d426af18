#include "baselines/xgb_gpu_dense.h"

#include <vector>

#include "device/device_memory.h"

namespace gbdt::baseline {

std::size_t dense_gpu_footprint_bytes(std::int64_t cardinality,
                                      std::int64_t dimension, int depth) {
  const auto cells = static_cast<std::size_t>(cardinality) *
                     static_cast<std::size_t>(dimension);
  // value (4 B) + sorted position (4 B) + instance id (4 B), double-buffered
  // for the partition passes.
  const std::size_t dense = cells * 12 * 2;
  // Node interleaving: one (g, h) copy per node of the widest level.
  const std::size_t widest =
      std::size_t{1} << static_cast<std::size_t>(std::min(depth - 1, 20));
  const std::size_t interleave =
      static_cast<std::size_t>(cardinality) * 16 * widest;
  return dense + interleave;
}

data::Dataset densify(const data::Dataset& ds) {
  data::Dataset out(ds.n_attributes());
  std::vector<data::Entry> row(static_cast<std::size_t>(ds.n_attributes()));
  for (std::int64_t i = 0; i < ds.n_instances(); ++i) {
    for (std::int64_t a = 0; a < ds.n_attributes(); ++a) {
      row[static_cast<std::size_t>(a)] = {static_cast<std::int32_t>(a), 0.f};
    }
    for (const auto& e : ds.instance(i)) {
      row[static_cast<std::size_t>(e.attr)].value = e.value;
    }
    out.add_instance(row, ds.labels()[static_cast<std::size_t>(i)]);
  }
  return out;
}

DenseGpuOutcome train_xgb_gpu_dense(const device::DeviceConfig& cfg,
                                    const data::Dataset& ds, GBDTParam param,
                                    std::int64_t paper_cardinality,
                                    std::int64_t paper_dimension) {
  DenseGpuOutcome out;
  out.budget_bytes = cfg.global_mem_bytes;
  const std::int64_t card =
      paper_cardinality > 0 ? paper_cardinality : ds.n_instances();
  const std::int64_t dim =
      paper_dimension > 0 ? paper_dimension : ds.n_attributes();
  out.required_bytes = dense_gpu_footprint_bytes(card, dim, param.depth);
  if (out.required_bytes > out.budget_bytes) {
    out.oom = true;
    out.note = "dense representation needs " +
               std::to_string(out.required_bytes >> 20) + " MiB, device has " +
               std::to_string(out.budget_bytes >> 20) + " MiB";
    return out;
  }

  param.dense_layout = true;
  param.use_rle = false;  // the plugin supports only the dense layout
  param.force_rle = false;
  param.use_hist_trainer = false;  // xgbst-gpu is an exact trainer
  device::Device dev(cfg);
  try {
    const auto dense = densify(ds);
    GpuGbdtTrainer trainer(dev, param);
    out.report = trainer.train(dense);
    out.ran = true;
    out.note = "ok (missing values treated as 0)";
  } catch (const device::DeviceOutOfMemory& e) {
    out.oom = true;
    out.note = e.what();
  }
  return out;
}

}  // namespace gbdt::baseline
