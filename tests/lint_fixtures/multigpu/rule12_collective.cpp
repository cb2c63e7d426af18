// gbdt_lint fixture for rule 12 (never compiled): a collective and a direct
// peer transfer whose labels lack the `comm_` prefix.  The
// lint_rule12_allreduce and lint_rule12_peer tests expect gbdt_lint to
// report each of them.
#include "multigpu/allreduce.h"

namespace gbdt::multigpu {

void merge_gains(Interconnect& net, std::vector<ShardLink>& links, V& v) {
  (void)allreduce<double>("gains", net, links, v, Max{});
  links[0].dev->peer_transfer_async("gains_leg", 1, 1e-6, 64, 0);
}

}  // namespace gbdt::multigpu
