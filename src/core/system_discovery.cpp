// Discovery-backend plumbing (see system.h "discovery backend
// plumbing"): the ground-truth LookupService and the configured
// LookupBackend mutate in lockstep through the wrappers below, and the
// backend's deterministic cost accounting drains into SystemCounters.
#include "core/system.h"

namespace p2pex {

void System::init_discovery() {
  backend_ = discovery::make_backend(cfg_.discovery, cfg_.lookup_fraction,
                                     lookup_, rng_, cfg_.seed, *this);
}

bool System::peer_online(PeerId p) const { return peers_[p.value].online; }

std::uint32_t System::component(PeerId p) const {
  return faults_.component(p);
}

void System::set_online(Peer& p, bool online) {
  // p2pex-lint: no-graph-effect (callers touch the graph for the flip)
  p.online = online;
  bump_world_epoch();
}

void System::lookup_add_owner(ObjectId o, PeerId p) {
  // p2pex-lint: no-graph-effect (lookup/backend state feeds discovery,
  // not the request-graph snapshot; call sites touch the graph where
  // edges actually move)
  lookup_.add_owner(o, p);
  backend_->add_owner(o, p, sim_.now());
  drain_discovery_costs();
}

void System::lookup_remove_owner(ObjectId o, PeerId p) {
  // p2pex-lint: no-graph-effect (see lookup_add_owner)
  lookup_.remove_owner(o, p);
  backend_->remove_owner(o, p, sim_.now());
  drain_discovery_costs();
}

void System::lookup_remove_peer(PeerId p) {
  // p2pex-lint: no-graph-effect (see lookup_add_owner)
  lookup_.remove_peer(p);
  backend_->remove_peer(p, sim_.now());
  drain_discovery_costs();
}

void System::drain_discovery_costs() {
  const discovery::DiscoveryCosts c = backend_->drain_costs();
  counters_.lookup_wire_bytes += c.wire_bytes;
  counters_.dht_hops += c.hops;
  counters_.gossip_rounds += c.gossip_rounds;
}

}  // namespace p2pex
