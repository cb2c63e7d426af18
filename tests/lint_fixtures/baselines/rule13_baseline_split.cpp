// gbdt_lint fixture for rule 13 (never compiled): a second CPU baseline
// with its own copy of the split decision.  Only baselines/xgb_exact.cpp,
// the oracle's reference, is exempt, so the lint_rule13_baseline_split
// test expects gbdt_lint to report the call below.
#include "core/tree.h"

namespace gbdt::baseline {

void forked_split(Tree& tree, double gain, double gamma) {
  if (gain > gamma) (void)tree.split(0, 1, 0.5f, true, gain);
}

}  // namespace gbdt::baseline
