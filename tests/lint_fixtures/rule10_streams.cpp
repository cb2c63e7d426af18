// gbdt_lint fixture for rule 10 (never compiled): an async launch without a
// `stream_`-prefixed label, and an event wait that names no happens-before
// edge.  The lint_rule10_async_label and lint_rule10_wait_event tests expect
// gbdt_lint to report each of them.
#include "device/device_context.h"

namespace gbdt {

void overlap_chunk(device::Device& dev, device::StreamId copy,
                   device::StreamId compute) {
  const auto ready = dev.record_event(copy);
  dev.wait_event(compute, ready);
  dev.launch_async("consume_chunk", compute, 1, 256,
                   [](device::BlockCtx& b) { b.work(1); });
}

}  // namespace gbdt
