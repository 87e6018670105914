// PexBackend: peer-exchange gossip discovery (ROADMAP: modeled on the
// torrent-style PEX manager designs).
//
// Every peer keeps (a) the set of objects it currently serves (its own
// adverts, maintained by the upkeep calls) and (b) a bounded FIFO cache
// of provider entries it has *heard about*. On a deterministic schedule
// (SimConfig::discovery.gossip_interval, one tick per round), each
// online peer exchanges a bounded digest with one ring partner:
// own-object adverts first (rotating through the storage so a
// small digest still cycles full coverage), then its freshest relayed
// entries. The partner offset is drawn per round from the backend's own
// salted stream, so gossip never perturbs the main stream and replays
// bit-exact.
//
// Knowledge is therefore partial (nothing is known until gossip has
// carried it over), second-hand (entries relay with their original
// learn time) and stale (entries expire after pex_entry_ttl but are
// never re-validated — evicted or crashed providers keep being proposed
// until their entries age out). Queries are free on the wire: the cost
// was paid by the gossip rounds, which charge per-entry wire bytes.
#pragma once

#include <vector>

#include "discovery/lookup_backend.h"
#include "util/rng.h"

namespace p2pex::discovery {

class PexBackend final : public LookupBackend {
 public:
  PexBackend(const DiscoveryConfig& cfg, std::uint64_t seed,
             const WorldView& world);

  [[nodiscard]] BackendKind kind() const override { return BackendKind::kPex; }

  void add_owner(ObjectId object, PeerId peer, SimTime now) override;
  void remove_owner(ObjectId object, PeerId peer, SimTime now) override;
  void remove_peer(PeerId peer, SimTime now) override;

  [[nodiscard]] LookupResult query(const LookupQuery& q) override;

  [[nodiscard]] SimTime tick_interval() const override {
    return cfg_.gossip_interval;
  }
  void tick(SimTime now) override;

  /// Gossip rounds executed so far (tests).
  [[nodiscard]] std::uint64_t rounds() const { return round_; }
  /// Cached entries `peer` currently holds (tests).
  [[nodiscard]] std::size_t cache_size(PeerId peer) const {
    return cache_[peer.value].size();
  }

  /// Modeled wire cost per digest entry / per message header, bytes.
  static constexpr std::uint64_t kEntryBytes = 16;
  static constexpr std::uint64_t kMessageBytes = 24;

 private:
  /// One relayed provider fact: "at `origin`, `provider` served
  /// `object`". Relays keep the origin, so age is end-to-end.
  struct Entry {
    ObjectId object;
    PeerId provider;
    SimTime origin = 0.0;
  };

  [[nodiscard]] bool expired(const Entry& e, SimTime now) const {
    return now - e.origin > cfg_.pex_entry_ttl;
  }

  /// Sends one digest from `from` to `to` and merges it (one gossip
  /// direction); returns the entries shipped (wire accounting).
  std::size_t send_digest(PeerId from, PeerId to, SimTime now);
  void merge_entry(PeerId receiver, const Entry& e);

  DiscoveryConfig cfg_;
  const WorldView* world_;
  Rng rng_;  ///< salted fork: gossip draws never touch the main stream
  std::vector<std::vector<ObjectId>> own_;  ///< per-peer advertised objects
  std::vector<std::vector<Entry>> cache_;   ///< per-peer learned entries, FIFO
  std::uint64_t round_ = 0;
  std::vector<Entry> digest_scratch_;
};

}  // namespace p2pex::discovery
