// gbdt_lint fixture for rule 8 (never compiled): a histogram kernel whose
// launch label lacks the `hist_` prefix.  The lint_rule8_hist_label test
// expects gbdt_lint to report the launch below.
#pragma once

#include "device/device_context.h"

namespace gbdt::prim {

inline void build_bins(device::Device& dev) {
  dev.launch("build_bins", 1, 256, [](device::BlockCtx& b) { b.work(1); });
}

}  // namespace gbdt::prim
