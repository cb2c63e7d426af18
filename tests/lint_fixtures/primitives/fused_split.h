// gbdt_lint fixture for rule 7 (never compiled): a fused find-split pass
// whose launch label lacks the `fused_` prefix.  Only the file name matters
// to the rule; the lint_rule7_fused_label test expects gbdt_lint to report
// the launch below.
#pragma once

#include "device/device_context.h"

namespace gbdt::prim {

inline void scan_carries(device::Device& dev) {
  dev.launch("scan_carries", 1, 256, [](device::BlockCtx& b) { b.work(1); });
}

}  // namespace gbdt::prim
