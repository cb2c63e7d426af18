// gbdt_lint fixture for rule 6 (never compiled): a trace span whose name is
// built at run time, so the span vocabulary stops being greppable.  The
// lint_rule6_dynamic_span test expects gbdt_lint to report the span below.
#include <string>

#include "obs/trace.h"

namespace gbdt {

void traced_level(int level) {
  const std::string name = "level_" + std::to_string(level);
  obs::ScopedSpan span(name.c_str());
}

}  // namespace gbdt
