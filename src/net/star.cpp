#include "net/topologies.hpp"

namespace rvma::net {

StarTopology::StarTopology(const NetworkConfig& config)
    : config_(config), nodes_(config.nodes_hint < 1 ? 1 : config.nodes_hint) {}

void StarTopology::build(Fabric& fabric) {
  const int sw = fabric.add_switch(config_.switch_latency,
                                   config_.link.bw.scaled(config_.xbar_factor));
  for (NodeId n = 0; n < nodes_; ++n) {
    fabric.attach_node(sw, n, config_.link);
  }
}

int StarTopology::route(Fabric&, int, Packet&, Routing) {
  // Unreachable: every destination is attached to the single switch, so the
  // fabric always takes the ejection path before consulting the router.
  return -1;
}

}  // namespace rvma::net
