// DhtBackend: Kademlia-flavored DHT discovery (ROADMAP: modeled on the
// torrent-style dht_routing_table / dht_manager designs — bucketed ids,
// iterative lookup with hop accounting).
//
// Every peer and object gets a 64-bit key (splitmix-mixed from the run
// seed, so the id space is deterministic per seed and never draws from
// any stream). Provider records for an object live at the k nodes whose
// keys are XOR-closest to the object key (`dht_bucket_size`). A query
// walks iteratively from the requester toward the object key: at each
// hop the current node consults the bucket of nodes sharing one more
// key-prefix bit with the target (at most k visible per bucket, chosen
// deterministically by key order; offline nodes punch holes in it) and
// forwards to the XOR-closest online, reachable candidate. Every hop
// charges `dht_alpha` messages of wire bytes; a walk that exhausts
// `dht_hop_budget` or hits a routing hole reports a miss — even though
// the object may well have owners (lookup_misses counts exactly this).
//
// Publishes (add_owner) walk from the owner to the store set and charge
// replication traffic; remove_owner unpublishes synchronously, so DHT
// answers are always a subset of the ground truth *except* for crashed
// owners, whose retraction the fault model's stale-TTL machinery delays
// — those records are served stale until the late retraction fires.
//
// Routing cache: walks read liveness and reachability from a key-ordered
// mask refreshed once per world epoch (WorldView epoch contract), and
// whole walk outcomes are memoized until the next world change. Both are
// exact: hops, wire bytes and providers equal the uncached walk's.
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "discovery/lookup_backend.h"

namespace p2pex::discovery {

class DhtBackend final : public LookupBackend {
 public:
  DhtBackend(const DiscoveryConfig& cfg, std::uint64_t seed,
             const WorldView& world);

  [[nodiscard]] BackendKind kind() const override { return BackendKind::kDht; }

  void add_owner(ObjectId object, PeerId peer, SimTime now) override;
  void remove_owner(ObjectId object, PeerId peer, SimTime now) override;
  void remove_peer(PeerId peer, SimTime now) override;

  [[nodiscard]] LookupResult query(const LookupQuery& q) override;

  /// Node key of `peer` (tests).
  [[nodiscard]] std::uint64_t node_key(PeerId peer) const {
    return key_[peer.value];
  }
  /// Key of `object` in the same id space (tests).
  [[nodiscard]] std::uint64_t object_key(ObjectId object) const;
  /// The store set of `object`: the k peers XOR-closest to its key,
  /// ascending peer order (tests).
  [[nodiscard]] std::vector<PeerId> store_peers(ObjectId object) const;
  /// Whether `peer` is in `object`'s store set, answered through the
  /// cached boundary the walks use (tests).
  [[nodiscard]] bool stores(ObjectId object, PeerId peer);

  /// Routing-cache activity since construction (tests, profiling). Not
  /// model output: nothing reports it.
  struct CacheStats {
    std::uint64_t walks = 0;       ///< query and publish walks
    std::uint64_t local = 0;       ///< of those, ended at the requester
    std::uint64_t memo_hits = 0;   ///< of the rest, answered by the memo
    std::uint64_t refreshes = 0;   ///< liveness-mask refreshes
  };
  [[nodiscard]] const CacheStats& cache_stats() const { return stats_; }

  /// Modeled wire cost per routing message / stored record, bytes.
  static constexpr std::uint64_t kMessageBytes = 48;
  static constexpr std::uint64_t kRecordBytes = 16;
  /// Walk-memo slots (direct-mapped, indexed by the top kMemoBits bits
  /// of a key hash).
  static constexpr int kMemoBits = 11;
  static constexpr std::size_t kMemoSlots = std::size_t{1} << kMemoBits;

 private:
  /// One published provider record: "`provider` served the object,
  /// published/refreshed at `origin`".
  struct Record {
    PeerId provider;
    SimTime origin = 0.0;
  };

  /// Store-set size: min(k, population).
  [[nodiscard]] std::size_t store_size() const {
    return std::min(cfg_.dht_bucket_size, key_.size());
  }
  /// Peer indices of the k nodes XOR-closest to `target`, in (XOR
  /// distance, peer index) order.
  [[nodiscard]] std::vector<std::uint32_t> closest(std::uint64_t target) const;
  /// The last (k-th) node of `object`'s store set in (XOR distance, peer
  /// index) order. Requires store_size() > 0.
  [[nodiscard]] std::uint32_t boundary(ObjectId object);
  /// Whether `idx` ranks at or before `bound` in (XOR distance to
  /// `target`, peer index) order — i.e. is in the store set `bound`
  /// closes.
  [[nodiscard]] bool within(std::uint32_t idx, std::uint64_t target,
                            std::uint32_t bound) const {
    const std::uint64_t d = key_[idx] ^ target;
    const std::uint64_t db = key_[bound] ^ target;
    return d < db || (d == db && idx <= bound);
  }
  /// Iterative walk from `from` toward `target` until a member of the
  /// store set closed by `bound` is reached. Charges the wire bytes of
  /// every hop taken; returns the hop count or, on miss (routing hole /
  /// budget exhausted), `kWalkFailed`. Callers charge successful hops.
  [[nodiscard]] std::uint32_t walk(PeerId from, std::uint64_t target,
                                   std::uint32_t bound);
  static constexpr std::uint32_t kWalkFailed = 0xFFFFFFFFu;
  /// boundary_ entry not computed yet (never a peer index: n < 2^32).
  static constexpr std::uint32_t kNoBoundary = 0xFFFFFFFFu;

  /// How a walk that left the requester ended.
  struct Route {
    std::uint8_t hops = 0;  ///< taken, hence wire-charged; <= 64, as
                            ///< every hop lengthens the shared prefix
    bool failed = false;    ///< routing hole or hop budget spent
    friend bool operator==(const Route&, const Route&) = default;
  };
  /// The walk after its first step: from a node sharing `cpl` prefix
  /// bits with `target`, through nodes whose sorted position `pos`
  /// satisfies `live(pos)`. Everything the requester contributes is in
  /// `cpl` and in `live` (its component), which is what makes the memo
  /// key exact.
  template <class Live>
  [[nodiscard]] Route route(int cpl, std::uint64_t target, std::uint32_t bound,
                            Live live) const;
  /// Re-reads every node's liveness and component into mask_ and opens
  /// a new memo generation. O(population); once per world epoch.
  void refresh_mask();

  /// One memoized walk outcome, valid while `gen` is current.
  struct MemoEntry {
    std::uint64_t target = 0;
    std::uint64_t gen = 0;  ///< 0: never filled (generations start at 1)
    std::uint32_t component = 0;
    std::uint8_t cpl = 0;
    Route route;
  };

  DiscoveryConfig cfg_;
  const WorldView* world_;
  std::uint64_t seed_;
  std::vector<std::uint64_t> key_;       ///< peer index -> node key
  std::vector<std::uint32_t> by_key_;    ///< peer indices sorted by key
  std::vector<std::uint64_t> sorted_keys_;  ///< key_[by_key_[i]]
  /// Liveness mask in key order: mask_[i] is by_key_[i]'s component
  /// while it is online, WorldView::kNoComponent while it is offline, so
  /// "online and reachable from a requester in component c" is one
  /// comparison. Valid for world epoch mask_epoch_ once gen_ > 0.
  std::vector<std::uint32_t> mask_;
  std::uint64_t mask_epoch_ = 0;
  /// Memo generation: bumped by every refresh_mask(), so a world change
  /// invalidates every entry at once.
  std::uint64_t gen_ = 0;
  /// Direct-mapped walk memo keyed by (target, starting cpl, requester
  /// component); 24 B x kMemoSlots = 48 KB.
  std::vector<MemoEntry> memo_;
  CacheStats stats_;
  /// ObjectId::value -> boundary(object), or kNoBoundary. Filled lazily
  /// on first add_owner/query and never invalidated: node keys and the
  /// population are fixed for the backend's life, so an object's store
  /// set is a constant. 4 B per object id up to the largest queried.
  std::vector<std::uint32_t> boundary_;
  /// Published records per object (the store set's shared contents; the
  /// population is fixed, so the set of responsible nodes is static and
  /// one record list per object models all k replicas). Keyed access
  /// only — never iterated.
  std::unordered_map<ObjectId, std::vector<Record>> store_;
  /// provider -> published objects (reverse index for remove_peer).
  std::vector<std::vector<ObjectId>> published_;
};

}  // namespace p2pex::discovery
