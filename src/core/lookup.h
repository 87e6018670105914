// Idealized object-lookup service (paper Section III).
//
// The paper deliberately abstracts object lookup: "our approach can work
// with several known search mechanisms including broadcast in
// Gnutella-like networks or a DHT query"; a requester can "locate up to a
// certain fraction of peers that currently have the object". We model
// this with a global ownership index that the simulation keeps current
// (sharing peers only), sampled with per-owner discovery probability
// `lookup_fraction`.
//
// Since the LookupBackend redesign (src/discovery/) this index is the
// *ground truth* behind every discovery backend: OracleBackend samples it
// directly (the paper's model), while the decentralized backends (PEX
// gossip, DHT) maintain their own partial views and are audited against
// it under P2PEX_LOOKUP_AUDIT.
#pragma once

#include <span>
#include <vector>

#include "util/types.h"

namespace p2pex {

/// Global object -> sharing-owners index, dense over object and peer ids.
class LookupService {
 public:
  /// An empty index that grows to the largest id it is given.
  LookupService() = default;

  /// An empty index sized for ids below `num_objects` and `num_peers`
  /// (System passes its catalog and population, which never grow).
  LookupService(std::size_t num_objects, std::size_t num_peers);

  /// Registers that `peer` (a sharing peer) now serves `object`.
  void add_owner(ObjectId object, PeerId peer);

  /// Removes an ownership fact (eviction or peer departure).
  void remove_owner(ObjectId object, PeerId peer);

  /// Drops every ownership fact for `peer`. O(objects held by `peer`)
  /// via the peer -> objects reverse index — crash storms used to pay a
  /// full-map scan per departure.
  void remove_peer(PeerId peer);

  /// All current owners of `object` except `except` (unsampled; the
  /// oracle backend samples this list), in ascending peer order.
  [[nodiscard]] std::vector<PeerId> owners(ObjectId object,
                                           PeerId except) const;

  [[nodiscard]] std::size_t owner_count(ObjectId object) const {
    return owners_of(object).size();
  }

  /// Whether `peer` currently owns `object` (a binary search of the
  /// object's owners; the discovery audit and staleness accounting
  /// check backend results against this).
  [[nodiscard]] bool has_owner(ObjectId object, PeerId peer) const;

  /// Number of objects `peer` currently owns.
  [[nodiscard]] std::size_t objects_owned(PeerId peer) const;

 private:
  [[nodiscard]] std::span<const PeerId> owners_of(ObjectId object) const {
    if (object.value >= owners_.size()) return {};
    return owners_[object.value];
  }

  /// owners_[o]: the peers serving object o, ascending.
  std::vector<std::vector<PeerId>> owners_;
  /// Reverse index: by_peer_[p] lists the objects p serves, in no
  /// particular order, kept in lockstep with owners_ so remove_peer
  /// touches only that peer's facts.
  std::vector<std::vector<ObjectId>> by_peer_;
};

}  // namespace p2pex
