// gbdt_lint fixture for rule 11 (never compiled): an objective kernel whose
// launch label lacks the `obj_` / `sample_` prefix, and a row mask drawn
// from an unseeded source.  The lint_rule11_label and lint_rule11_random
// tests expect gbdt_lint to report each of them.
#include <random>

#include "device/device_context.h"

namespace gbdt::objective {

unsigned draw_mask_seed(device::Device& dev) {
  dev.launch("mask_rows", 1, 256, [](device::BlockCtx& b) { b.work(1); });
  std::random_device rd;
  return rd();
}

}  // namespace gbdt::objective
