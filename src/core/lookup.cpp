#include "core/lookup.h"

#include <algorithm>

#include "util/contracts.h"

namespace p2pex {

LookupService::LookupService(std::size_t num_objects, std::size_t num_peers)
    : owners_(num_objects), by_peer_(num_peers) {}

void LookupService::add_owner(ObjectId object, PeerId peer) {
  P2PEX_ASSERT(object.valid() && peer.valid());
  if (object.value >= owners_.size()) owners_.resize(object.value + 1);
  std::vector<PeerId>& owners = owners_[object.value];
  const auto it = std::lower_bound(owners.begin(), owners.end(), peer);
  if (it != owners.end() && *it == peer) return;
  owners.insert(it, peer);
  if (peer.value >= by_peer_.size()) by_peer_.resize(peer.value + 1);
  by_peer_[peer.value].push_back(object);
}

void LookupService::remove_owner(ObjectId object, PeerId peer) {
  if (object.value >= owners_.size()) return;
  std::vector<PeerId>& owners = owners_[object.value];
  const auto it = std::lower_bound(owners.begin(), owners.end(), peer);
  if (it == owners.end() || *it != peer) return;
  owners.erase(it);
  std::vector<ObjectId>& held = by_peer_[peer.value];
  const auto h = std::find(held.begin(), held.end(), object);
  P2PEX_INVARIANT(h != held.end());
  *h = held.back();
  held.pop_back();
}

void LookupService::remove_peer(PeerId peer) {
  if (peer.value >= by_peer_.size()) return;
  for (const ObjectId o : by_peer_[peer.value]) {
    std::vector<PeerId>& owners = owners_[o.value];
    owners.erase(std::lower_bound(owners.begin(), owners.end(), peer));
  }
  by_peer_[peer.value].clear();
}

std::vector<PeerId> LookupService::owners(ObjectId object,
                                          PeerId except) const {
  const std::span<const PeerId> all = owners_of(object);
  std::vector<PeerId> out;
  out.reserve(all.size());
  for (PeerId p : all)
    if (p != except) out.push_back(p);
  return out;
}

bool LookupService::has_owner(ObjectId object, PeerId peer) const {
  return std::ranges::binary_search(owners_of(object), peer);
}

std::size_t LookupService::objects_owned(PeerId peer) const {
  return peer.value < by_peer_.size() ? by_peer_[peer.value].size() : 0;
}

}  // namespace p2pex
