// gbdt_lint fixture for rule 13 (never compiled): the level driver splitting
// a host tree.  Every path decides its levels on the device, so only the
// host reference decision (testing/host_decision.h) may split a Tree;
// the lint_rule13_split test expects gbdt_lint to report the call below
// even in core/level_driver.cpp.
#include "core/tree.h"

namespace gbdt::detail {

void host_split(Tree& tree, double gain, double gamma) {
  if (gain > gamma) (void)tree.split(0, 1, 0.5f, true, gain);
}

}  // namespace gbdt::detail
