// gbdt_lint fixture for rule 13 (never compiled): a trainer that splits a
// tree node with its own copy of the split decision instead of going
// through the level driver.  The lint_rule13_split test expects gbdt_lint
// to report the call below.
#include "core/tree.h"

namespace gbdt {

void forked_split(Tree& tree, double gain, double gamma) {
  if (gain > gamma) (void)tree.split(0, 1, 0.5f, true, gain);
}

}  // namespace gbdt
