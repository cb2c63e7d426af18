// gbdt_lint fixture for rule 9 (never compiled): request-path device work
// whose launch label and trace span lack the `serve_` prefix.  The
// lint_rule9_launch and lint_rule9_span tests expect gbdt_lint to report
// each of them.
#include "device/device_context.h"
#include "obs/trace.h"

namespace gbdt::serve {

void score_batch(device::Device& dev) {
  obs::ScopedSpan span("score_batch");
  dev.launch("score_rows", 1, 256, [](device::BlockCtx& b) { b.work(1); });
}

}  // namespace gbdt::serve
