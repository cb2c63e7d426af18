// gbdt_lint fixture for rule 13 (never compiled): a trainer that writes a
// leaf with its own copy of the leaf rule instead of going through the
// level driver.  The lint_rule13_leaf_weight test expects gbdt_lint to
// report the call below.
#include "core/loss.h"

namespace gbdt {

double forked_leaf(double g, double h, const GBDTParam& p) {
  return p.eta * leaf_weight(g, h, p.lambda);
}

}  // namespace gbdt
