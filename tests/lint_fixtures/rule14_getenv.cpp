// gbdt_lint fixture for rule 14 (never compiled): a trainer knob read from
// the environment instead of GBDTParam.  The lint_rule14_getenv test
// expects gbdt_lint to report the call below.
#include <cstdlib>

namespace gbdt {

bool forced_knob() {
  // An environment override of what trains.
  return std::getenv("GBDT_SOME_KNOB") != nullptr;
}

}  // namespace gbdt
