// LookupBackend: the discovery API redesign (ROADMAP: decentralized
// discovery backends).
//
// The engine used to call the concrete LookupService directly, threading
// `lookup_fraction` and the main Rng through every call site and getting
// a bare std::vector<PeerId> back. Discovery is now an interface:
// query(LookupQuery) -> LookupResult, where the result carries
// *provenance* — how many routing hops the lookup walked, how many wire
// bytes it charged, and how old each returned entry is — so the engine
// and metrics can account for discovery cost like any other traffic.
//
// Three backends ship:
//   OracleBackend  the paper's idealized model (LookupService sampled at
//                  lookup_fraction on the main stream) — bit-exact with
//                  the pre-redesign path, so every existing golden pins
//                  it;
//   PexBackend     ring-partner gossip of bounded provider digests on a
//                  deterministic schedule; entries age out, knowledge is
//                  partial and stale (pex_backend.h);
//   DhtBackend     Kademlia-style bucketed XOR-distance routing with
//                  per-hop accounting and a hop budget (dht_backend.h).
//
// Determinism contract: backends draw randomness only from their own
// salted forked streams (seed ^ backend salt) or from deterministic key
// hashes, every mutation happens on the coordinator (upkeep calls and
// scheduled ticks), and every result is sorted ascending — so runs are
// bit-identical across thread counts 1/2/8 for every backend, which the
// replay CI matrix enforces.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "discovery/discovery_config.h"
#include "util/types.h"

namespace p2pex {
class LookupService;
class Rng;
}  // namespace p2pex
namespace p2pex::fault {
class FaultInjector;
}

namespace p2pex::discovery {

/// What a backend may observe about the world. Implemented by System;
/// kept abstract so src/discovery depends only on util/.
///
/// Epoch contract: world_epoch() changes whenever any peer_online() or
/// component() answer may change. An implementation calls
/// bump_world_epoch() after every such write (System: each Peer::online
/// write and each partition change), so a backend may cache those
/// answers and trust the cache for as long as the epoch it read them at
/// is still current. Forgetting a bump makes caches serve a stale world;
/// audit builds (P2PEX_LOOKUP_AUDIT) check the DHT's cache node by node.
class WorldView {
 public:
  virtual ~WorldView() = default;
  [[nodiscard]] virtual std::size_t num_peers() const = 0;
  [[nodiscard]] virtual bool peer_online(PeerId p) const = 0;
  /// The partition side `p` is on: `a` and `b` can currently
  /// communicate exactly when their components are equal (fault-model
  /// partitions confine gossip and routing to each side). Defined for
  /// offline peers too. Never kNoComponent.
  [[nodiscard]] virtual std::uint32_t component(PeerId p) const = 0;
  /// Whether `a` and `b` can currently communicate.
  [[nodiscard]] bool peers_reachable(PeerId a, PeerId b) const {
    return component(a) == component(b);
  }
  /// Changes whenever any peer_online/component answer may change.
  [[nodiscard]] std::uint64_t world_epoch() const { return epoch_; }

  /// Reserved: backends use it to mark offline nodes in cached masks.
  static constexpr std::uint32_t kNoComponent = 0xFFFFFFFFu;

 protected:
  void bump_world_epoch() { ++epoch_; }

 private:
  std::uint64_t epoch_ = 0;
};

/// One lookup request.
struct LookupQuery {
  ObjectId object;
  PeerId requester;
  SimTime now = 0.0;
};

/// One lookup answer, with provenance.
struct LookupResult {
  /// Proposed providers: ascending peer order, deduplicated, never
  /// containing the requester. May be empty (a miss).
  std::vector<PeerId> providers;
  /// Age of each entry (seconds since the backend learned/recorded it),
  /// parallel to `providers`. Empty means "all authoritative" (age 0
  /// for every entry) — the oracle uses this to stay allocation-lean.
  std::vector<SimTime> ages;
  /// Routing hops this query walked (0 for oracle/PEX cache reads).
  std::uint32_t hops = 0;
  /// Wire bytes charged to this query (0 when the cost was paid
  /// elsewhere, e.g. by gossip rounds).
  std::uint64_t wire_bytes = 0;
};

/// Deterministic cost accounting accrued since the last drain: query
/// walks, gossip rounds, publish traffic. System drains these into
/// SystemCounters (lookup_wire_bytes / dht_hops / gossip_rounds) after
/// every backend interaction.
struct DiscoveryCosts {
  std::uint64_t wire_bytes = 0;
  std::uint64_t hops = 0;
  std::uint64_t gossip_rounds = 0;
};

/// Abstract discovery backend.
class LookupBackend {
 public:
  virtual ~LookupBackend() = default;

  [[nodiscard]] virtual BackendKind kind() const = 0;

  // --- ownership upkeep ---
  //
  // System calls these in lockstep with the ground-truth LookupService
  // mutations. The oracle ignores them (it reads the truth index
  // directly); PEX updates the owner's advertised set; the DHT
  // publishes/unpublishes provider records (charging wire bytes).
  // Crash staleness composes naturally: a crashed peer's remove_peer is
  // deferred by the fault model's stale-TTL machinery, so its entries
  // linger in every backend exactly as they do in the truth index.
  virtual void add_owner(ObjectId object, PeerId peer, SimTime now) = 0;
  virtual void remove_owner(ObjectId object, PeerId peer, SimTime now) = 0;
  virtual void remove_peer(PeerId peer, SimTime now) = 0;

  // --- discovery ---
  [[nodiscard]] virtual LookupResult query(const LookupQuery& q) = 0;

  // --- periodic maintenance ---
  /// Seconds between maintenance ticks; 0 = the backend never ticks
  /// (System schedules a periodic only for a positive interval, so the
  /// oracle adds no events and stays bit-exact with the old path).
  [[nodiscard]] virtual SimTime tick_interval() const { return 0.0; }
  /// One maintenance round (PEX gossip). Runs on the coordinator.
  virtual void tick(SimTime now) { static_cast<void>(now); }

  /// Costs accrued since the last drain (see DiscoveryCosts). Virtual so
  /// decorators (the audit wrapper) can forward to the wrapped backend.
  [[nodiscard]] virtual DiscoveryCosts drain_costs() {
    const DiscoveryCosts c = costs_;
    costs_ = DiscoveryCosts{};
    return c;
  }

 protected:
  DiscoveryCosts costs_;
};

/// Builds the configured backend. `truth` is the ground-truth owner
/// index (oracle reads; audit checks), `main_rng` the System stream the
/// oracle samples on (bit-exactness), `seed` the run seed the
/// decentralized backends salt into their own streams/keys. Under
/// P2PEX_LOOKUP_AUDIT every non-oracle backend comes wrapped in an
/// AuditBackend (audit_backend.h).
[[nodiscard]] std::unique_ptr<LookupBackend> make_backend(
    const DiscoveryConfig& cfg, double lookup_fraction,
    const LookupService& truth, Rng& main_rng, std::uint64_t seed,
    const WorldView& world);

}  // namespace p2pex::discovery
