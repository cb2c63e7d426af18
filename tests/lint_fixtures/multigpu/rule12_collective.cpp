// gbdt_lint fixture for rule 12 (never compiled): a collective and a direct
// peer transfer whose labels lack the `comm_` prefix.  The
// lint_rule12_allreduce and lint_rule12_peer tests expect gbdt_lint to
// report each of them.
#include "multigpu/allreduce.h"

namespace gbdt::multigpu {

void merge_gains(Link& link, std::vector<Link>& links, std::span<double> v) {
  (void)allreduce<double>("gains", link, Algo::kRing, links, v);
  link.dev->peer_transfer_async("gains_leg", link.comm_stream, 1e-6, 64, 0);
}

}  // namespace gbdt::multigpu
