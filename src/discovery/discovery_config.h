// Discovery-backend selection and per-backend parameters.
//
// Lives in its own header (no core/ dependencies) so core/config.h can
// embed a DiscoveryConfig without an include cycle, and so the scenario
// layer and the backends themselves agree on one parameter struct.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace p2pex::discovery {

/// Which LookupBackend a System builds (see lookup_backend.h).
enum class BackendKind : std::uint8_t {
  kOracle,  ///< the paper's model: global index sampled at lookup_fraction
  kPex,     ///< ring-partner gossip of bounded provider digests
  kDht,     ///< Kademlia-style iterative XOR-distance lookup
};

/// Canonical lowercase name ("oracle" | "pex" | "dht").
[[nodiscard]] std::string to_string(BackendKind kind);

/// Discovery parameters (SimConfig::discovery). Defaults keep the
/// oracle backend, which is bit-exact with the pre-redesign
/// LookupService path: a config that never touches this struct replays
/// every pre-existing golden unchanged.
struct DiscoveryConfig {
  BackendKind backend = BackendKind::kOracle;

  // --- PEX gossip (backend == kPex) ---
  /// Seconds between gossip rounds (one deterministic tick
  /// exchanges digests between every online peer and its ring partner).
  double gossip_interval = 30.0;
  /// Max provider entries per digest message (bounds per-round wire
  /// bytes; own-object adverts take priority over relayed entries).
  std::size_t gossip_digest_cap = 32;
  /// Max learned entries a peer caches; the oldest entry is evicted
  /// first (FIFO), so knowledge is partial by construction.
  std::size_t pex_cache_cap = 256;
  /// Seconds before a learned entry expires. Entries are never
  /// re-validated, so anything younger than this can be stale — the
  /// window in which evicted/crashed providers keep being proposed.
  double pex_entry_ttl = 600.0;

  // --- Kademlia DHT (backend == kDht) ---
  /// Bucket size k: provider records replicate to the k nodes whose ids
  /// are XOR-closest to the object key, and each routing step sees at
  /// most k candidates per bucket.
  std::size_t dht_bucket_size = 8;
  /// Parallel lookups per hop (alpha). Charged as wire bytes per hop;
  /// the walk itself is modeled as the best single path.
  std::size_t dht_alpha = 3;
  /// Iterative-lookup hop budget; a walk cut here reports a miss.
  std::size_t dht_hop_budget = 64;

  friend bool operator==(const DiscoveryConfig&,
                         const DiscoveryConfig&) = default;
};

}  // namespace p2pex::discovery
