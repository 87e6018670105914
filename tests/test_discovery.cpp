// Discovery-backend suite (src/discovery).
//
// Unit coverage for the LookupBackend redesign: the ground-truth
// LookupService reverse index (and the dense index against the hash-map
// one it replaced), oracle bit-exactness against the old query path, PEX gossip semantics (spread, TTL, digest bounds,
// staleness, determinism), DHT routing (store sets, publish/query
// walks, holes, budgets, unpublish, the routing cache against the
// uncached reference walk) and the oracle-backed audit
// decorator — plus system-level runs per backend and pinned output
// digests per backend and tree mode.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/lookup.h"
#include "core/system.h"
#include "discovery/audit_backend.h"
#include "discovery/dht_backend.h"
#include "discovery/lookup_backend.h"
#include "discovery/oracle_backend.h"
#include "discovery/pex_backend.h"
#include "support/run_digest.h"
#include "support/scenario.h"
#include "util/assert.h"
#include "util/contracts.h"
#include "util/rng.h"

namespace p2pex {
namespace {

using discovery::AuditBackend;
using discovery::BackendKind;
using discovery::DhtBackend;
using discovery::DiscoveryConfig;
using discovery::DiscoveryCosts;
using discovery::LookupBackend;
using discovery::LookupQuery;
using discovery::LookupResult;
using discovery::OracleBackend;
using discovery::PexBackend;
using discovery::WorldView;

/// Minimal world: everyone online and reachable unless told otherwise;
/// an optional id-space split mirrors the fault model's partitions.
/// Every setter bumps the world epoch (WorldView epoch contract).
class TestWorld final : public WorldView {
 public:
  explicit TestWorld(std::size_t n) : online_(n, true) {}
  [[nodiscard]] std::size_t num_peers() const override {
    return online_.size();
  }
  [[nodiscard]] bool peer_online(PeerId p) const override {
    return online_[p.value];
  }
  [[nodiscard]] std::uint32_t component(PeerId p) const override {
    return split_ != 0 && p.value >= split_ ? 1u : 0u;
  }
  void set_online(PeerId p, bool on) {
    online_[p.value] = on;
    bump_world_epoch();
  }
  void set_split(std::uint32_t s) {
    split_ = s;
    bump_world_epoch();
  }

 private:
  std::vector<bool> online_;
  std::uint32_t split_ = 0;
};

// --- LookupService reverse index (remove_peer must not scan the map) ---

TEST(LookupReverseIndex, RemovePeerDropsEveryEntry) {
  LookupService l;
  for (std::uint32_t o = 0; o < 50; ++o) {
    l.add_owner(ObjectId{o}, PeerId{1});
    l.add_owner(ObjectId{o}, PeerId{2});
  }
  EXPECT_EQ(l.objects_owned(PeerId{1}), 50u);
  l.remove_peer(PeerId{1});
  EXPECT_EQ(l.objects_owned(PeerId{1}), 0u);
  for (std::uint32_t o = 0; o < 50; ++o) {
    EXPECT_FALSE(l.has_owner(ObjectId{o}, PeerId{1}));
    EXPECT_TRUE(l.has_owner(ObjectId{o}, PeerId{2}));
    EXPECT_EQ(l.owner_count(ObjectId{o}), 1u);
  }
  // Idempotent, and re-adding after removal works.
  l.remove_peer(PeerId{1});
  l.add_owner(ObjectId{7}, PeerId{1});
  EXPECT_TRUE(l.has_owner(ObjectId{7}, PeerId{1}));
  EXPECT_EQ(l.objects_owned(PeerId{1}), 1u);
}

TEST(LookupReverseIndex, RemoveOwnerMaintainsBothSides) {
  LookupService l;
  l.add_owner(ObjectId{1}, PeerId{4});
  l.add_owner(ObjectId{2}, PeerId{4});
  l.remove_owner(ObjectId{1}, PeerId{4});
  EXPECT_FALSE(l.has_owner(ObjectId{1}, PeerId{4}));
  EXPECT_EQ(l.objects_owned(PeerId{4}), 1u);
  l.remove_peer(PeerId{4});
  EXPECT_EQ(l.owner_count(ObjectId{2}), 0u);
}

/// The hash-map LookupService the dense index replaced, kept verbatim
/// (minus its sampled query) as the reference for the differential test.
class HashLookupReference {
 public:
  void add_owner(ObjectId object, PeerId peer) {
    owners_[object].insert(peer);
    by_peer_[peer].insert(object);
  }
  void remove_owner(ObjectId object, PeerId peer) {
    const auto it = owners_.find(object);
    if (it == owners_.end()) return;
    it->second.erase(peer);
    if (it->second.empty()) owners_.erase(it);
    const auto rit = by_peer_.find(peer);
    if (rit != by_peer_.end()) {
      rit->second.erase(object);
      if (rit->second.empty()) by_peer_.erase(rit);
    }
  }
  void remove_peer(PeerId peer) {
    const auto rit = by_peer_.find(peer);
    if (rit == by_peer_.end()) return;
    for (ObjectId o : rit->second) {
      const auto it = owners_.find(o);
      if (it == owners_.end()) continue;
      it->second.erase(peer);
      if (it->second.empty()) owners_.erase(it);
    }
    by_peer_.erase(rit);
  }
  [[nodiscard]] std::vector<PeerId> owners(ObjectId object,
                                           PeerId except) const {
    std::vector<PeerId> out;
    const auto it = owners_.find(object);
    if (it == owners_.end()) return out;
    out.reserve(it->second.size());
    for (PeerId p : it->second)
      if (p != except) out.push_back(p);
    std::sort(out.begin(), out.end());
    return out;
  }
  [[nodiscard]] std::size_t owner_count(ObjectId object) const {
    const auto it = owners_.find(object);
    return it == owners_.end() ? 0 : it->second.size();
  }
  [[nodiscard]] bool has_owner(ObjectId object, PeerId peer) const {
    const auto it = owners_.find(object);
    return it != owners_.end() && it->second.contains(peer);
  }
  [[nodiscard]] std::size_t objects_owned(PeerId peer) const {
    const auto it = by_peer_.find(peer);
    return it == by_peer_.end() ? 0 : it->second.size();
  }

 private:
  std::unordered_map<ObjectId, std::unordered_set<PeerId>> owners_;
  std::unordered_map<PeerId, std::unordered_set<ObjectId>> by_peer_;
};

/// First difference between `got` and `want` over every object below
/// `objects` and every peer below `peers`, or "" when they agree.
/// owners() is compared both unfiltered and without `except`.
std::string index_mismatch(const LookupService& got,
                           const HashLookupReference& want,
                           std::uint32_t objects, std::uint32_t peers,
                           PeerId except) {
  for (std::uint32_t p = 0; p < peers; ++p)
    if (got.objects_owned(PeerId{p}) != want.objects_owned(PeerId{p}))
      return "objects_owned of peer " + std::to_string(p);
  for (std::uint32_t o = 0; o < objects; ++o) {
    const ObjectId object{o};
    const std::string at = " of object " + std::to_string(o);
    if (got.owner_count(object) != want.owner_count(object))
      return "owner_count" + at;
    if (got.owners(object, PeerId{}) != want.owners(object, PeerId{}))
      return "owners" + at;
    if (got.owners(object, except) != want.owners(object, except))
      return "owners except the last peer" + at;
    for (std::uint32_t p = 0; p < peers; ++p)
      if (got.has_owner(object, PeerId{p}) !=
          want.has_owner(object, PeerId{p}))
        return "has_owner of peer " + std::to_string(p) + at;
  }
  return "";
}

TEST(LookupReverseIndex, DenseIndexMatchesHashMapReference) {
  // Seeded random upkeep over 64 objects x 32 peers, mirrored into the
  // old hash-map index. Ids run past both sizes, so removals of absent
  // facts and lazy growth happen; adds repeat, and removed peers are
  // drawn again and re-added. Both a System-sized and a default
  // (lazily growing) index must match the reference after every call.
  constexpr std::uint32_t kObjects = 64;
  constexpr std::uint32_t kPeers = 32;
  constexpr std::uint32_t kObjectIds = kObjects + 8;
  constexpr std::uint32_t kPeerIds = kPeers + 4;
  std::size_t duplicate_adds = 0;
  std::size_t absent_removals = 0;
  std::size_t readded_peers = 0;
  std::size_t peak_facts = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    LookupService sized(kObjects, kPeers);
    LookupService lazy;
    HashLookupReference ref;
    std::vector<bool> dropped(kPeerIds, false);
    std::size_t facts = 0;
    for (int step = 0; step < 2000; ++step) {
      const ObjectId o{narrow_u32(rng.index(kObjectIds))};
      const PeerId p{narrow_u32(rng.index(kPeerIds))};
      const double op = rng.uniform01();
      if (op < 0.6) {
        if (ref.has_owner(o, p)) ++duplicate_adds;
        if (dropped[p.value]) ++readded_peers;
        dropped[p.value] = false;
        for (LookupService* l : {&sized, &lazy}) l->add_owner(o, p);
        ref.add_owner(o, p);
      } else if (op < 0.98) {
        if (!ref.has_owner(o, p)) ++absent_removals;
        for (LookupService* l : {&sized, &lazy}) l->remove_owner(o, p);
        ref.remove_owner(o, p);
      } else {
        dropped[p.value] = ref.objects_owned(p) > 0;
        for (LookupService* l : {&sized, &lazy}) l->remove_peer(p);
        ref.remove_peer(p);
      }
      ASSERT_EQ(index_mismatch(sized, ref, kObjectIds, kPeerIds, p), "")
          << "sized index, seed " << seed << " step " << step;
      ASSERT_EQ(index_mismatch(lazy, ref, kObjectIds, kPeerIds, p), "")
          << "lazy index, seed " << seed << " step " << step;
      facts = 0;
      for (std::uint32_t q = 0; q < kPeerIds; ++q)
        facts += ref.objects_owned(PeerId{q});
      peak_facts = std::max(peak_facts, facts);
    }
  }
  // The sequences did exercise what the test claims to cover.
  EXPECT_GT(duplicate_adds, 100u);
  EXPECT_GT(absent_removals, 100u);
  EXPECT_GT(readded_peers, 50u);
  EXPECT_GT(peak_facts, 500u);
}

// --- OracleBackend: bit-exact with the pre-redesign query path ---

/// The sampled lookup that LookupService::query ran before the oracle
/// backend took it over: each owner other than `except` is kept with
/// probability `fraction`, one draw per owner in ascending peer order,
/// and no draw at all at fraction 1.
std::vector<PeerId> sampled_owners(const LookupService& l, ObjectId object,
                                   PeerId except, double fraction, Rng& rng) {
  std::vector<PeerId> all = l.owners(object, except);
  if (fraction >= 1.0) return all;
  std::vector<PeerId> out;
  out.reserve(all.size());
  for (PeerId p : all)
    if (rng.chance(fraction)) out.push_back(p);
  return out;
}

TEST(OracleBackend, ReproducesLookupServiceDrawForDraw) {
  LookupService truth;
  for (std::uint32_t p = 0; p < 20; ++p)
    for (std::uint32_t o = 0; o < 5; ++o)
      if ((p + o) % 3 != 0) truth.add_owner(ObjectId{o}, PeerId{p});

  for (const double fraction : {0.3, 0.7, 1.0}) {
    Rng a(99);
    Rng b(99);
    OracleBackend oracle(truth, fraction, b);
    for (std::uint32_t i = 0; i < 40; ++i) {
      const ObjectId o{i % 5};
      const PeerId req{i % 20};
      const std::vector<PeerId> want =
          sampled_owners(truth, o, req, fraction, a);
      const LookupResult got = oracle.query({o, req, static_cast<double>(i)});
      EXPECT_EQ(got.providers, want) << "fraction " << fraction << " i " << i;
      EXPECT_TRUE(got.ages.empty());  // authoritative answers
      EXPECT_EQ(got.hops, 0u);
      EXPECT_EQ(got.wire_bytes, 0u);
    }
    // The oracle charges nothing: discovery is free by assumption.
    const DiscoveryCosts costs = oracle.drain_costs();
    EXPECT_EQ(costs.wire_bytes, 0u);
    EXPECT_EQ(costs.hops, 0u);
    EXPECT_EQ(costs.gossip_rounds, 0u);
  }
}

// --- PexBackend ---

DiscoveryConfig pex_config() {
  DiscoveryConfig cfg;
  cfg.backend = BackendKind::kPex;
  return cfg;
}

/// Gossips `rounds` ticks at cfg.gossip_interval spacing from t0.
SimTime run_gossip(PexBackend& pex, const DiscoveryConfig& cfg,
                   std::size_t rounds, SimTime t0 = 0.0) {
  SimTime now = t0;
  for (std::size_t i = 0; i < rounds; ++i) {
    now += cfg.gossip_interval;
    pex.tick(now);
  }
  return now;
}

TEST(PexBackend, GossipSpreadsKnowledge) {
  const DiscoveryConfig cfg = pex_config();
  TestWorld world(8);
  PexBackend pex(cfg, 7, world);
  pex.add_owner(ObjectId{1}, PeerId{0}, 0.0);

  // Before any gossip nobody knows anything.
  EXPECT_TRUE(pex.query({ObjectId{1}, PeerId{5}, 0.0}).providers.empty());

  const SimTime now = run_gossip(pex, cfg, 20);
  std::size_t informed = 0;
  for (std::uint32_t q = 1; q < 8; ++q) {
    const LookupResult r = pex.query({ObjectId{1}, PeerId{q}, now});
    if (r.providers == std::vector<PeerId>{PeerId{0}}) {
      ++informed;
      ASSERT_EQ(r.ages.size(), 1u);
      EXPECT_GE(r.ages[0], 0.0);
      EXPECT_LE(r.ages[0], cfg.pex_entry_ttl);
    }
  }
  EXPECT_GE(informed, 5u) << "gossip failed to spread in 20 rounds";

  const DiscoveryCosts costs = pex.drain_costs();
  EXPECT_EQ(costs.gossip_rounds, 20u);
  EXPECT_GT(costs.wire_bytes, 0u);
  EXPECT_EQ(pex.rounds(), 20u);
}

TEST(PexBackend, EntriesExpireAfterTtl) {
  const DiscoveryConfig cfg = pex_config();
  TestWorld world(6);
  PexBackend pex(cfg, 11, world);
  pex.add_owner(ObjectId{2}, PeerId{0}, 0.0);
  const SimTime now = run_gossip(pex, cfg, 15);

  // Somebody learned the fact; long after the TTL it is gone again —
  // with no further gossip, expiry is the only change.
  std::uint32_t informed_peer = 0;
  for (std::uint32_t q = 1; q < 6; ++q) {
    if (!pex.query({ObjectId{2}, PeerId{q}, now}).providers.empty()) {
      informed_peer = q;
      break;
    }
  }
  ASSERT_NE(informed_peer, 0u);
  const SimTime later = now + cfg.pex_entry_ttl + 1.0;
  EXPECT_TRUE(
      pex.query({ObjectId{2}, PeerId{informed_peer}, later}).providers.empty());
}

TEST(PexBackend, RetractedAdvertsLingerAsStaleEntries) {
  const DiscoveryConfig cfg = pex_config();
  TestWorld world(6);
  PexBackend pex(cfg, 13, world);
  pex.add_owner(ObjectId{3}, PeerId{0}, 0.0);
  const SimTime now = run_gossip(pex, cfg, 15);

  std::uint32_t informed_peer = 0;
  for (std::uint32_t q = 1; q < 6; ++q) {
    if (!pex.query({ObjectId{3}, PeerId{q}, now}).providers.empty()) {
      informed_peer = q;
      break;
    }
  }
  ASSERT_NE(informed_peer, 0u);

  // The owner retracts (eviction); relayed cache entries are not
  // recalled — the receiver keeps proposing the ex-owner until TTL.
  pex.remove_owner(ObjectId{3}, PeerId{0}, now);
  EXPECT_EQ(pex.query({ObjectId{3}, PeerId{informed_peer}, now + 1.0})
                .providers,
            std::vector<PeerId>{PeerId{0}});
}

TEST(PexBackend, DigestCapBoundsWireBytes) {
  DiscoveryConfig cfg = pex_config();
  cfg.gossip_digest_cap = 4;
  TestWorld world(4);
  PexBackend pex(cfg, 21, world);
  // One hoarder with far more adverts than one digest can carry.
  for (std::uint32_t o = 0; o < 40; ++o)
    pex.add_owner(ObjectId{o}, PeerId{0}, 0.0);
  pex.tick(cfg.gossip_interval);
  const DiscoveryCosts costs = pex.drain_costs();
  // 4 pairs x 2 directions, each at most one header + cap entries.
  const std::uint64_t worst =
      4 * (2 * PexBackend::kMessageBytes +
           2 * cfg.gossip_digest_cap * PexBackend::kEntryBytes);
  EXPECT_GT(costs.wire_bytes, 0u);
  EXPECT_LE(costs.wire_bytes, worst);
}

TEST(PexBackend, DeterministicAcrossInstances) {
  const DiscoveryConfig cfg = pex_config();
  TestWorld world(10);
  PexBackend a(cfg, 31, world);
  PexBackend b(cfg, 31, world);
  for (std::uint32_t p = 0; p < 10; ++p) {
    a.add_owner(ObjectId{p % 3}, PeerId{p}, 0.0);
    b.add_owner(ObjectId{p % 3}, PeerId{p}, 0.0);
  }
  SimTime now = 0.0;
  for (int i = 0; i < 25; ++i) {
    now += cfg.gossip_interval;
    a.tick(now);
    b.tick(now);
  }
  for (std::uint32_t q = 0; q < 10; ++q) {
    const LookupQuery query{ObjectId{q % 3}, PeerId{q}, now};
    const LookupResult ra = a.query(query);
    const LookupResult rb = b.query(query);
    EXPECT_EQ(ra.providers, rb.providers) << "requester " << q;
    EXPECT_EQ(ra.ages, rb.ages) << "requester " << q;
  }
}

TEST(PexBackend, PartitionConfinesGossip) {
  const DiscoveryConfig cfg = pex_config();
  TestWorld world(8);
  world.set_split(4);  // {0..3} | {4..7} from the start
  PexBackend pex(cfg, 17, world);
  pex.add_owner(ObjectId{1}, PeerId{0}, 0.0);
  const SimTime now = run_gossip(pex, cfg, 30);
  for (std::uint32_t q = 4; q < 8; ++q)
    EXPECT_TRUE(pex.query({ObjectId{1}, PeerId{q}, now}).providers.empty())
        << "fact crossed the partition to " << q;
}

// --- DhtBackend ---

DiscoveryConfig dht_config() {
  DiscoveryConfig cfg;
  cfg.backend = BackendKind::kDht;
  return cfg;
}

TEST(DhtBackend, StoreSetIsKClosestAndDeterministic) {
  const DiscoveryConfig cfg = dht_config();
  TestWorld world(64);
  DhtBackend dht(cfg, 5, world);
  const std::vector<PeerId> store = dht.store_peers(ObjectId{9});
  EXPECT_EQ(store.size(), cfg.dht_bucket_size);
  EXPECT_EQ(store, dht.store_peers(ObjectId{9}));  // pure function
  for (std::size_t i = 1; i < store.size(); ++i)
    EXPECT_LT(store[i - 1], store[i]);  // ascending peer order
  // A different seed permutes the key space, hence the placement.
  DhtBackend other(cfg, 6, world);
  EXPECT_NE(other.store_peers(ObjectId{9}), store);
}

TEST(DhtBackend, PublishQueryRoundtrip) {
  const DiscoveryConfig cfg = dht_config();
  TestWorld world(64);
  DhtBackend dht(cfg, 5, world);
  dht.add_owner(ObjectId{9}, PeerId{3}, 10.0);
  dht.add_owner(ObjectId{9}, PeerId{40}, 20.0);
  (void)dht.drain_costs();  // publish traffic, tested separately

  // Pick a requester that is not itself a store node, so the walk must
  // route at least one hop.
  const std::vector<PeerId> store = dht.store_peers(ObjectId{9});
  PeerId requester{};
  for (std::uint32_t p = 0; p < 64; ++p) {
    const PeerId cand{p};
    if (std::find(store.begin(), store.end(), cand) == store.end() &&
        cand != PeerId{3} && cand != PeerId{40}) {
      requester = cand;
      break;
    }
  }
  const LookupResult r = dht.query({ObjectId{9}, requester, 30.0});
  EXPECT_EQ(r.providers, (std::vector<PeerId>{PeerId{3}, PeerId{40}}));
  ASSERT_EQ(r.ages.size(), 2u);
  EXPECT_DOUBLE_EQ(r.ages[0], 20.0);  // published at 10, queried at 30
  EXPECT_DOUBLE_EQ(r.ages[1], 10.0);
  EXPECT_GT(r.hops, 0u);
  EXPECT_GT(r.wire_bytes, 0u);
  const DiscoveryCosts costs = dht.drain_costs();
  EXPECT_EQ(costs.hops, r.hops);
  EXPECT_GT(costs.wire_bytes, 0u);
}

TEST(DhtBackend, PublishChargesWire) {
  const DiscoveryConfig cfg = dht_config();
  TestWorld world(64);
  DhtBackend dht(cfg, 5, world);
  dht.add_owner(ObjectId{9}, PeerId{3}, 0.0);
  const DiscoveryCosts costs = dht.drain_costs();
  EXPECT_GT(costs.wire_bytes, 0u);  // replication records at least
}

TEST(DhtBackend, UnpublishAndRemovePeer) {
  const DiscoveryConfig cfg = dht_config();
  TestWorld world(64);
  DhtBackend dht(cfg, 5, world);
  dht.add_owner(ObjectId{9}, PeerId{3}, 0.0);
  dht.add_owner(ObjectId{9}, PeerId{40}, 0.0);
  dht.add_owner(ObjectId{12}, PeerId{40}, 0.0);

  dht.remove_owner(ObjectId{9}, PeerId{3}, 1.0);
  LookupResult r = dht.query({ObjectId{9}, PeerId{50}, 2.0});
  EXPECT_EQ(r.providers, std::vector<PeerId>{PeerId{40}});

  dht.remove_peer(PeerId{40}, 3.0);
  EXPECT_TRUE(dht.query({ObjectId{9}, PeerId{50}, 4.0}).providers.empty());
  EXPECT_TRUE(dht.query({ObjectId{12}, PeerId{50}, 4.0}).providers.empty());
}

TEST(DhtBackend, OfflineStoreSetIsARoutingHole) {
  const DiscoveryConfig cfg = dht_config();
  TestWorld world(64);
  DhtBackend dht(cfg, 5, world);
  dht.add_owner(ObjectId{9}, PeerId{3}, 0.0);
  for (const PeerId p : dht.store_peers(ObjectId{9})) world.set_online(p, false);
  // Records exist, but no live node can answer for that key range.
  const LookupResult r = dht.query({ObjectId{9}, PeerId{50}, 1.0});
  EXPECT_TRUE(r.providers.empty());
}

TEST(DhtBackend, HopBudgetCutsWalks) {
  DiscoveryConfig strict = dht_config();
  strict.dht_hop_budget = 1;
  DiscoveryConfig roomy = dht_config();
  TestWorld world(256);
  DhtBackend cut(strict, 5, world);
  DhtBackend free_walk(roomy, 5, world);

  // With 256 peers most walks need several hops (some object keys land
  // so close to their bucket's edge that every walk resolves in one —
  // scan a few objects); find an (object, requester) whose unbudgeted
  // walk takes >1 hop and assert the budgeted one misses.
  for (std::uint32_t o = 0; o < 16; ++o) {
    cut.add_owner(ObjectId{o}, PeerId{3}, 0.0);
    free_walk.add_owner(ObjectId{o}, PeerId{3}, 0.0);
    for (std::uint32_t p = 0; p < 256; ++p) {
      const LookupResult full = free_walk.query({ObjectId{o}, PeerId{p}, 1.0});
      if (full.hops > 1) {
        const LookupResult r = cut.query({ObjectId{o}, PeerId{p}, 1.0});
        EXPECT_TRUE(r.providers.empty()) << "budget 1 walked " << full.hops;
        return;
      }
    }
  }
  FAIL() << "no multi-hop (object, requester) pair in a 256-peer world";
}

/// Brute-force store set: every node ranked by (XOR distance to the
/// object key, peer index), the first k kept, in ascending peer order.
std::vector<PeerId> reference_store(const DhtBackend& dht, ObjectId object,
                                    std::size_t n, std::size_t k) {
  const std::uint64_t target = dht.object_key(object);
  std::vector<std::uint32_t> ranked(n);
  for (std::size_t i = 0; i < n; ++i) ranked[i] = narrow_u32(i);
  std::sort(ranked.begin(), ranked.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const std::uint64_t da = dht.node_key(PeerId{a}) ^ target;
              const std::uint64_t db = dht.node_key(PeerId{b}) ^ target;
              return da != db ? da < db : a < b;
            });
  ranked.resize(std::min(k, n));
  std::sort(ranked.begin(), ranked.end());
  std::vector<PeerId> out;
  for (const std::uint32_t idx : ranked) out.push_back(PeerId{idx});
  return out;
}

TEST(DhtBackend, StoreSetMatchesBruteForceRanking) {
  const DiscoveryConfig cfg = dht_config();
  const std::size_t k = cfg.dht_bucket_size;
  for (const std::size_t n : {std::size_t{1}, k - 1, k, k + 1, std::size_t{64},
                              std::size_t{1000}}) {
    TestWorld world(n);
    DhtBackend dht(cfg, 5, world);
    // Object ids out of order, so the lazily grown boundary table is
    // filled from the middle as well as the end.
    for (std::uint32_t i = 0; i < 200; ++i) {
      const ObjectId o{(i * 7919u) % 4001u};
      const std::vector<PeerId> want = reference_store(dht, o, n, k);
      ASSERT_EQ(dht.store_peers(o), want) << "n " << n << " object " << o.value;
      for (std::uint32_t p = 0; p < n; ++p) {
        const bool member =
            std::binary_search(want.begin(), want.end(), PeerId{p});
        ASSERT_EQ(dht.stores(o, PeerId{p}), member)
            << "n " << n << " object " << o.value << " peer " << p;
      }
    }
  }
}

/// FNV-1a over the eight bytes of `v`, little end first.
std::uint64_t fnv_fold(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ULL;
  }
  return h;
}

// Every (hops, wire_bytes, providers) answer over a 32-object x
// 64-requester grid, under three world states, folded into one pinned
// checksum. The pin was recorded with the store set recomputed (ranked
// afresh) on every walk; the cached boundary must route identically.
TEST(DhtBackend, WalkCostGridIsPinned) {
  DiscoveryConfig cfg = dht_config();
  cfg.dht_hop_budget = 2;  // walks here take ~2 hops: some get cut
  constexpr std::uint32_t kPeers = 256;
  TestWorld world(kPeers);
  DhtBackend dht(cfg, 17, world);
  // Even objects get two owners; odd ones are never published, like
  // most objects the engine queries.
  for (std::uint32_t o = 0; o < 32; o += 2) {
    dht.add_owner(ObjectId{o}, PeerId{(o * 37u + 1u) % kPeers}, 0.0);
    dht.add_owner(ObjectId{o}, PeerId{(o * 101u + 7u) % kPeers}, 0.0);
  }
  const DiscoveryCosts publish = dht.drain_costs();
  std::uint64_t h = fnv_fold(0xCBF29CE484222325ULL, publish.hops);
  h = fnv_fold(h, publish.wire_bytes);

  std::uint64_t hops = 0;
  std::uint64_t empty = 0;
  for (int state = 0; state < 3; ++state) {
    // 0: all online; 1: a quarter offline; 2: an id-space split.
    for (std::uint32_t p = 0; p < kPeers; ++p)
      world.set_online(PeerId{p}, state != 1 || p % 4 != 3);
    world.set_split(state == 2 ? kPeers / 2 : 0);
    for (std::uint32_t o = 0; o < 32; ++o) {
      for (std::uint32_t r = 0; r < 64; ++r) {
        const LookupResult res =
            dht.query({ObjectId{o}, PeerId{r * 4u + r % 3u}, 5.0});
        h = fnv_fold(h, res.hops);
        h = fnv_fold(h, res.wire_bytes);
        h = fnv_fold(h, res.providers.size());
        hops += res.hops;
        if (res.providers.empty()) ++empty;
      }
    }
    const DiscoveryCosts costs = dht.drain_costs();
    h = fnv_fold(h, costs.hops);
    h = fnv_fold(h, costs.wire_bytes);
  }
  EXPECT_EQ(hops, 6059u);
  EXPECT_EQ(empty, 4109u);  // 3072 unpublished + 1037 failed walks
  EXPECT_EQ(h, 15488789123633261063ULL);
}

/// DhtBackend as it was before the routing cache: every walk asks the
/// WorldView about each scanned node and brackets each bucket with a
/// lower_bound/upper_bound pair; nothing is memoized. Built from the
/// backend's public key accessors and the brute-force store set, it
/// must charge exactly what the cached backend charges.
class ReferenceDht {
 public:
  ReferenceDht(const DhtBackend& dht, const DiscoveryConfig& cfg,
               const WorldView& world)
      : dht_(dht), cfg_(cfg), world_(world) {
    const std::size_t n = world.num_peers();
    for (std::size_t i = 0; i < n; ++i) by_key_.push_back(narrow_u32(i));
    std::sort(by_key_.begin(), by_key_.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                const std::uint64_t ka = key(a);
                const std::uint64_t kb = key(b);
                return ka != kb ? ka < kb : a < b;
              });
    for (const std::uint32_t idx : by_key_) sorted_keys_.push_back(key(idx));
  }

  void add_owner(ObjectId object, PeerId peer, SimTime now) {
    const std::uint32_t hops = walk(peer, object);
    if (hops != kFailed) costs_.hops += hops;
    costs_.wire_bytes += store_of(object).size() * DhtBackend::kRecordBytes;
    records_[object].emplace_back(peer, now);
  }

  LookupResult query(const LookupQuery& q) {
    LookupResult r;
    const std::uint32_t hops = walk(q.requester, q.object);
    if (hops == kFailed) return r;
    r.hops = hops;
    costs_.hops += hops;
    const std::uint64_t route_bytes =
        std::uint64_t{hops} * cfg_.dht_alpha * DhtBackend::kMessageBytes;
    const auto it = records_.find(q.object);
    if (it == records_.end()) {
      r.wire_bytes = route_bytes;
      return r;
    }
    std::vector<std::pair<PeerId, SimTime>> recs = it->second;
    std::sort(recs.begin(), recs.end());
    for (const auto& [provider, origin] : recs) {
      if (provider == q.requester) continue;
      r.providers.push_back(provider);
      r.ages.push_back(q.now - origin);
    }
    if (hops > 0) {
      const std::uint64_t record_bytes =
          r.providers.size() * DhtBackend::kRecordBytes;
      r.wire_bytes = route_bytes + record_bytes;
      costs_.wire_bytes += record_bytes;
    }
    return r;
  }

  DiscoveryCosts drain_costs() {
    const DiscoveryCosts c = costs_;
    costs_ = DiscoveryCosts{};
    return c;
  }

 private:
  static constexpr std::uint32_t kFailed = 0xFFFFFFFFu;

  [[nodiscard]] std::uint64_t key(std::uint32_t idx) const {
    return dht_.node_key(PeerId{idx});
  }
  const std::vector<PeerId>& store_of(ObjectId object) {
    auto it = stores_.find(object);
    if (it == stores_.end()) {
      it = stores_
               .emplace(object,
                        reference_store(dht_, object, world_.num_peers(),
                                        cfg_.dht_bucket_size))
               .first;
    }
    return it->second;
  }
  bool in_store(ObjectId object, std::uint32_t idx) {
    const std::vector<PeerId>& s = store_of(object);
    return std::binary_search(s.begin(), s.end(), PeerId{idx});
  }

  std::uint32_t walk(PeerId from, ObjectId object) {
    const std::uint64_t target = dht_.object_key(object);
    std::uint32_t cur = from.value;
    if (in_store(object, cur)) return 0;
    const std::size_t k = std::max<std::size_t>(cfg_.dht_bucket_size, 1);
    std::uint32_t hops = 0;
    int cpl = std::countl_zero(key(cur) ^ target);
    while (true) {
      if (hops >= cfg_.dht_hop_budget) return kFailed;
      if (cpl >= 64) return kFailed;
      const std::uint64_t mask = ~std::uint64_t{0} << (64 - (cpl + 1));
      const std::uint64_t plo = target & mask;
      const std::uint64_t phi = plo | ~mask;
      const auto first =
          std::lower_bound(sorted_keys_.begin(), sorted_keys_.end(), plo);
      const auto last =
          std::upper_bound(sorted_keys_.begin(), sorted_keys_.end(), phi);
      std::uint32_t best = 0;
      std::uint64_t best_dist = ~std::uint64_t{0};
      bool found = false;
      std::size_t live = 0;
      for (auto it = first; it != last && live < k; ++it) {
        const std::uint32_t idx =
            by_key_[static_cast<std::size_t>(it - sorted_keys_.begin())];
        const PeerId node{idx};
        if (!world_.peer_online(node)) continue;
        if (!world_.peers_reachable(from, node)) continue;
        ++live;
        const std::uint64_t dist = key(idx) ^ target;
        if (!found || dist < best_dist || (dist == best_dist && idx < best)) {
          best = idx;
          best_dist = dist;
          found = true;
        }
      }
      if (!found) return kFailed;
      ++hops;
      costs_.wire_bytes += cfg_.dht_alpha * DhtBackend::kMessageBytes;
      cur = best;
      if (in_store(object, cur)) return hops;
      cpl = std::countl_zero(key(cur) ^ target);
    }
  }

  const DhtBackend& dht_;
  DiscoveryConfig cfg_;
  const WorldView& world_;
  std::vector<std::uint32_t> by_key_;
  std::vector<std::uint64_t> sorted_keys_;
  std::map<ObjectId, std::vector<PeerId>> stores_;
  std::map<ObjectId, std::vector<std::pair<PeerId, SimTime>>> records_;
  DiscoveryCosts costs_;
};

void expect_same_costs(DiscoveryCosts got, DiscoveryCosts want,
                       const std::string& what) {
  EXPECT_EQ(got.hops, want.hops) << what;
  EXPECT_EQ(got.wire_bytes, want.wire_bytes) << what;
  EXPECT_EQ(got.gossip_rounds, want.gossip_rounds) << what;
}

// The routing cache (liveness mask + walk memo) against the uncached
// reference walk, query by query, while the online set and the split
// change between batches. Each batch asks every (object, requester)
// pair twice: the first pass fills the memo (requesters sharing a
// prefix length and a side hit each other's entries), the second
// repeats every walk, and the next batch's world change makes every
// entry stale.
TEST(DhtBackend, RoutingCacheMatchesReferenceWalk) {
  const DiscoveryConfig cfg = dht_config();
  constexpr std::uint32_t kPeers = 128;
  constexpr std::uint32_t kObjects = 200;
  TestWorld world(kPeers);
  DhtBackend dht(cfg, 23, world);
  ReferenceDht ref(dht, cfg, world);

  // Even objects get two owners, odd ones are never published.
  for (std::uint32_t o = 0; o < kObjects; o += 2) {
    for (const std::uint32_t p : {(o * 37u + 1u) % kPeers,
                                  (o * 101u + 7u) % kPeers}) {
      dht.add_owner(ObjectId{o}, PeerId{p}, 0.0);
      ref.add_owner(ObjectId{o}, PeerId{p}, 0.0);
    }
  }
  expect_same_costs(dht.drain_costs(), ref.drain_costs(), "publish");

  Rng rng(29);
  std::uint64_t missed = 0;     // published object, no provider returned
  std::uint64_t delivered = 0;  // published object, providers returned
  for (int batch = 0; batch < 8; ++batch) {
    // Batch 0 keeps the initial world and batch 4 repeats batch 3's,
    // so their memo generations span a batch boundary.
    if (batch > 0 && batch != 4) {
      for (std::uint32_t p = 0; p < kPeers; ++p)
        world.set_online(PeerId{p}, !rng.chance(0.3));
      const std::array<std::uint32_t, 3> splits = {0, kPeers / 2, kPeers / 3};
      world.set_split(splits[static_cast<std::size_t>(batch) % 3]);
    }
    const DhtBackend::CacheStats before = dht.cache_stats();
    std::uint64_t local = 0;  // queries asked at a store node
    for (int pass = 0; pass < 2; ++pass) {
      for (std::uint32_t o = 0; o < kObjects; ++o) {
        for (std::uint32_t r = 0; r < kPeers; ++r) {
          const LookupQuery q{ObjectId{o}, PeerId{r}, 5.0 + batch};
          const LookupResult want = ref.query(q);
          const LookupResult got = dht.query(q);
          ASSERT_EQ(got.hops, want.hops)
              << "batch " << batch << " object " << o << " requester " << r;
          ASSERT_EQ(got.wire_bytes, want.wire_bytes)
              << "batch " << batch << " object " << o << " requester " << r;
          ASSERT_EQ(got.providers, want.providers)
              << "batch " << batch << " object " << o << " requester " << r;
          ASSERT_EQ(got.ages, want.ages)
              << "batch " << batch << " object " << o << " requester " << r;
          if (o % 2 == 0) {
            if (got.providers.empty())
              ++missed;
            else
              ++delivered;
          }
          if (dht.stores(ObjectId{o}, PeerId{r})) ++local;
        }
      }
      if (pass == 0 && batch != 4) {
        // A new generation: hits so far came from other requesters.
        EXPECT_GT(dht.cache_stats().memo_hits, before.memo_hits)
            << "batch " << batch;
      }
    }
    expect_same_costs(dht.drain_costs(), ref.drain_costs(),
                      "batch " + std::to_string(batch));
    const DhtBackend::CacheStats after = dht.cache_stats();
    EXPECT_EQ(after.walks - before.walks, 2u * kObjects * kPeers);
    EXPECT_EQ(after.local - before.local, local) << "batch " << batch;
    // One lazy refresh per changed world, however many flips it took.
    EXPECT_EQ(after.refreshes - before.refreshes,
              batch == 0 || batch == 4 ? 0u : 1u)
        << "batch " << batch;
  }
  // Both outcomes were exercised: routing holes and delivered records.
  EXPECT_GT(missed, 0u);
  EXPECT_GT(delivered, 0u);
}

#ifdef P2PEX_EXPENSIVE_INVARIANTS_ENABLED
/// A world whose online flips forget the epoch bump.
class ForgetfulWorld final : public WorldView {
 public:
  explicit ForgetfulWorld(std::size_t n) : online_(n, true) {}
  [[nodiscard]] std::size_t num_peers() const override {
    return online_.size();
  }
  [[nodiscard]] bool peer_online(PeerId p) const override {
    return online_[p.value];
  }
  [[nodiscard]] std::uint32_t component(PeerId) const override { return 0; }
  void set_online_silently(PeerId p, bool on) { online_[p.value] = on; }

 private:
  std::vector<bool> online_;
};

// Audit builds compare the cached liveness of every scanned node, and
// every memo hit, with the world: a flip that skips the epoch throws
// instead of routing through a stale mask.
TEST(DhtBackend, AuditCatchesFlipWithoutEpoch) {
  const DiscoveryConfig cfg = dht_config();
  ForgetfulWorld world(64);
  DhtBackend dht(cfg, 5, world);
  // A requester outside both objects' store sets, so its walks route.
  PeerId requester{0};
  while (dht.stores(ObjectId{9}, requester) ||
         dht.stores(ObjectId{10}, requester))
    requester = PeerId{requester.value + 1};
  const LookupQuery q{ObjectId{9}, requester, 1.0};
  EXPECT_GT(dht.query(q).hops, 0u);
  for (std::uint32_t p = 0; p < 64; ++p)
    world.set_online_silently(PeerId{p}, false);
  EXPECT_THROW((void)dht.query(q), AssertionError);  // memo hit re-walk
  EXPECT_THROW((void)dht.query({ObjectId{10}, requester, 1.0}),
               AssertionError);  // fresh walk over the stale mask
}
#endif

// --- AuditBackend ---

/// Canned inner backend: answers every query with a fixed provider
/// list, ignoring upkeep — the audit's mirror is the only bookkeeping.
class CannedBackend final : public LookupBackend {
 public:
  explicit CannedBackend(std::vector<PeerId> answer)
      : answer_(std::move(answer)) {}
  [[nodiscard]] BackendKind kind() const override { return BackendKind::kPex; }
  void add_owner(ObjectId, PeerId, SimTime) override {}
  void remove_owner(ObjectId, PeerId, SimTime) override {}
  void remove_peer(PeerId, SimTime) override {}
  [[nodiscard]] LookupResult query(const LookupQuery&) override {
    LookupResult r;
    r.providers = answer_;
    return r;
  }

 private:
  std::vector<PeerId> answer_;
};

TEST(AuditBackend, AcceptsTruthfulAnswers) {
  AuditBackend audit(std::make_unique<CannedBackend>(
                         std::vector<PeerId>{PeerId{2}, PeerId{5}}),
                     /*horizon=*/0.0);
  audit.add_owner(ObjectId{1}, PeerId{2}, 0.0);
  audit.add_owner(ObjectId{1}, PeerId{5}, 0.0);
  const LookupResult r = audit.query({ObjectId{1}, PeerId{9}, 1.0});
  EXPECT_EQ(r.providers.size(), 2u);
}

TEST(AuditBackend, RejectsInventedProvider) {
  AuditBackend audit(
      std::make_unique<CannedBackend>(std::vector<PeerId>{PeerId{7}}),
      /*horizon=*/0.0);
  audit.add_owner(ObjectId{1}, PeerId{2}, 0.0);  // 7 was never an owner
  EXPECT_THROW((void)audit.query({ObjectId{1}, PeerId{9}, 1.0}),
               AssertionError);
}

TEST(AuditBackend, HorizonAllowsDeclaredStalenessOnly) {
  AuditBackend audit(
      std::make_unique<CannedBackend>(std::vector<PeerId>{PeerId{2}}),
      /*horizon=*/100.0);
  audit.add_owner(ObjectId{1}, PeerId{2}, 0.0);
  audit.remove_owner(ObjectId{1}, PeerId{2}, 10.0);
  // Inside the horizon: a declared-stale answer, accepted.
  EXPECT_EQ(audit.query({ObjectId{1}, PeerId{9}, 50.0}).providers.size(), 1u);
  // Past it: the backend should have forgotten long ago.
  EXPECT_THROW((void)audit.query({ObjectId{1}, PeerId{9}, 200.0}),
               AssertionError);
}

TEST(AuditBackend, RejectsUnsortedAnswers) {
  AuditBackend audit(std::make_unique<CannedBackend>(
                         std::vector<PeerId>{PeerId{5}, PeerId{2}}),
                     /*horizon=*/0.0);
  audit.add_owner(ObjectId{1}, PeerId{2}, 0.0);
  audit.add_owner(ObjectId{1}, PeerId{5}, 0.0);
  EXPECT_THROW((void)audit.query({ObjectId{1}, PeerId{9}, 1.0}),
               AssertionError);
}

TEST(AuditBackend, RejectsSelfProposal) {
  AuditBackend audit(
      std::make_unique<CannedBackend>(std::vector<PeerId>{PeerId{9}}),
      /*horizon=*/0.0);
  audit.add_owner(ObjectId{1}, PeerId{9}, 0.0);
  EXPECT_THROW((void)audit.query({ObjectId{1}, PeerId{9}, 1.0}),
               AssertionError);
}

// --- factory ---

TEST(MakeBackend, BuildsTheConfiguredKind) {
  LookupService truth;
  Rng rng(1);
  TestWorld world(8);
  for (const BackendKind kind :
       {BackendKind::kOracle, BackendKind::kPex, BackendKind::kDht}) {
    DiscoveryConfig cfg;
    cfg.backend = kind;
    const std::unique_ptr<LookupBackend> b =
        discovery::make_backend(cfg, 0.5, truth, rng, 42, world);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->kind(), kind);
  }
  EXPECT_EQ(discovery::to_string(BackendKind::kOracle), "oracle");
  EXPECT_EQ(discovery::to_string(BackendKind::kPex), "pex");
  EXPECT_EQ(discovery::to_string(BackendKind::kDht), "dht");
}

// --- system-level runs per backend ---

SimConfig backend_config(BackendKind kind, std::uint64_t seed) {
  test::Scenario s = test::Scenario::small(seed);
  s.raw().discovery.backend = kind;
  return s.build();
}

TEST(SystemDiscovery, OracleChargesNothing) {
  System system(backend_config(BackendKind::kOracle, 42));
  system.run();
  const SystemCounters& c = system.counters();
  EXPECT_EQ(system.discovery_backend().kind(), BackendKind::kOracle);
  EXPECT_EQ(c.lookup_wire_bytes, 0u);
  EXPECT_EQ(c.gossip_rounds, 0u);
  EXPECT_EQ(c.dht_hops, 0u);
  EXPECT_EQ(c.lookup_misses, 0u);
  EXPECT_EQ(c.stale_entries_served, 0u);
}

TEST(SystemDiscovery, PexRunGossipsAndCharges) {
  System system(backend_config(BackendKind::kPex, 42));
  system.run();
  system.check_invariants();
  const SystemCounters& c = system.counters();
  EXPECT_EQ(system.discovery_backend().kind(), BackendKind::kPex);
  EXPECT_GT(c.gossip_rounds, 0u);
  EXPECT_GT(c.lookup_wire_bytes, 0u);
  EXPECT_EQ(c.dht_hops, 0u);
  EXPECT_GT(c.requests_issued, 0u);  // partial knowledge still sustains work
}

TEST(SystemDiscovery, DhtRunWalksAndCharges) {
  System system(backend_config(BackendKind::kDht, 42));
  system.run();
  system.check_invariants();
  const SystemCounters& c = system.counters();
  EXPECT_EQ(system.discovery_backend().kind(), BackendKind::kDht);
  EXPECT_GT(c.dht_hops, 0u);
  EXPECT_GT(c.lookup_wire_bytes, 0u);
  EXPECT_EQ(c.gossip_rounds, 0u);
  EXPECT_GT(c.requests_issued, 0u);
}

// --- backend equivalence: every backend x tree mode reproduces its
// pinned output with several threads configured (the knob is inert; the
// pins were recorded when 1, 2 and 8 threads ran a speculative parallel
// engine and agreed bit for bit) ---

struct EquivalenceCase {
  BackendKind kind;
  TreeMode tree;
};

/// Pinned test::run_digest of backend_config(kind, 1234) in `tree` mode.
std::string equivalence_digest(const EquivalenceCase& c) {
  const bool bloom = c.tree == TreeMode::kBloom;
  switch (c.kind) {
    case BackendKind::kOracle:
      return bloom ? "54dc390816dccfcf" : "fb8d4db743fc7cd6";
    case BackendKind::kPex:
      return bloom ? "b6a4e3b8eac668a6" : "303ff135320d153e";
    case BackendKind::kDht:
      return bloom ? "406a6f1a10c5f721" : "2b0790846ec085f4";
  }
  return {};
}

class BackendEquivalence : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(BackendEquivalence, IdenticalAcrossThreadCounts) {
  const EquivalenceCase param = GetParam();
  SimConfig c = backend_config(param.kind, 1234);
  c.tree_mode = param.tree;
  c.threads = 8;
  System system(c);
  system.run();
  system.check_invariants();
  EXPECT_EQ(test::run_digest(system), equivalence_digest(param));
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, BackendEquivalence,
    ::testing::Values(
        EquivalenceCase{BackendKind::kOracle, TreeMode::kFullTree},
        EquivalenceCase{BackendKind::kOracle, TreeMode::kBloom},
        EquivalenceCase{BackendKind::kPex, TreeMode::kFullTree},
        EquivalenceCase{BackendKind::kPex, TreeMode::kBloom},
        EquivalenceCase{BackendKind::kDht, TreeMode::kFullTree},
        EquivalenceCase{BackendKind::kDht, TreeMode::kBloom}),
    [](const ::testing::TestParamInfo<EquivalenceCase>& tpi) {
      return discovery::to_string(tpi.param.kind) + "_" +
             std::string(tpi.param.tree == TreeMode::kBloom ? "bloom"
                                                            : "full");
    });

}  // namespace
}  // namespace p2pex
