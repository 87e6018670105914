#include "discovery/dht_backend.h"

#include <algorithm>
#include <bit>

#include "util/contracts.h"

namespace p2pex::discovery {

namespace {

/// Distinct salts for the two key populations so peer i and object i
/// never land on the same id by construction.
constexpr std::uint64_t kDhtPeerKeySalt = 0xD47000FEEDB0B5ULL;
constexpr std::uint64_t kDhtObjectKeySalt = 0xD47CA7A10906B1ULL;
constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

/// splitmix64 finalizer: deterministic, seed-salted id hashing. Keys
/// are pure functions of (seed, index) — no stream is ever consumed.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

DhtBackend::DhtBackend(const DiscoveryConfig& cfg, std::uint64_t seed,
                       const WorldView& world)
    : cfg_(cfg),
      world_(&world),
      seed_(seed),
      memo_(kMemoSlots),
      published_(world.num_peers()) {
  const std::size_t n = world.num_peers();
  key_.resize(n);
  by_key_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    key_[i] = mix64((seed_ ^ kDhtPeerKeySalt) + kGolden * (i + 1));
    by_key_[i] = narrow_u32(i);
  }
  std::sort(by_key_.begin(), by_key_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (key_[a] != key_[b]) return key_[a] < key_[b];
              return a < b;  // 64-bit collisions: break ties stably
            });
  sorted_keys_.resize(n);
  for (std::size_t i = 0; i < n; ++i) sorted_keys_[i] = key_[by_key_[i]];
}

std::uint64_t DhtBackend::object_key(ObjectId object) const {
  return mix64((seed_ ^ kDhtObjectKeySalt) +
               kGolden * (static_cast<std::uint64_t>(object.value) + 1));
}

std::vector<std::uint32_t> DhtBackend::closest(std::uint64_t target) const {
  const std::size_t n = sorted_keys_.size();
  const std::size_t k = store_size();
  if (k == 0) return {};
  // Nodes sharing an L-bit key prefix with `target` are contiguous in
  // key order, and everything inside a longer shared prefix is
  // XOR-closer than anything outside it. Descend to the longest prefix
  // whose range still holds >= k nodes, then rank that range by XOR
  // distance (with random keys the range is O(k) long in expectation).
  std::size_t lo = 0;
  std::size_t hi = n;
  for (int len = 1; len <= 64; ++len) {
    const std::uint64_t mask = ~std::uint64_t{0} << (64 - len);
    const std::uint64_t plo = target & mask;
    const std::uint64_t phi = plo | ~mask;
    const auto first = std::lower_bound(sorted_keys_.begin(),
                                        sorted_keys_.end(), plo);
    const auto last =
        std::upper_bound(sorted_keys_.begin(), sorted_keys_.end(), phi);
    const auto count = static_cast<std::size_t>(last - first);
    if (count < k) break;
    lo = static_cast<std::size_t>(first - sorted_keys_.begin());
    hi = lo + count;
  }
  std::vector<std::uint32_t> range(by_key_.begin() +
                                       static_cast<std::ptrdiff_t>(lo),
                                   by_key_.begin() +
                                       static_cast<std::ptrdiff_t>(hi));
  std::sort(range.begin(), range.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const std::uint64_t da = key_[a] ^ target;
              const std::uint64_t db = key_[b] ^ target;
              if (da != db) return da < db;
              return a < b;
            });
  range.resize(k);
  return range;
}

std::vector<PeerId> DhtBackend::store_peers(ObjectId object) const {
  std::vector<std::uint32_t> set = closest(object_key(object));
  std::sort(set.begin(), set.end());  // ascending peer order
  std::vector<PeerId> out;
  for (const std::uint32_t idx : set) out.push_back(PeerId{idx});
  return out;
}

bool DhtBackend::stores(ObjectId object, PeerId peer) {
  if (store_size() == 0) return false;
  return within(peer.value, object_key(object), boundary(object));
}

std::uint32_t DhtBackend::boundary(ObjectId object) {
  // Queries for never-published objects dominate DHT traffic; with the
  // boundary cached they walk without recomputing the store set.
  if (object.value >= boundary_.size())
    boundary_.resize(static_cast<std::size_t>(object.value) + 1, kNoBoundary);
  std::uint32_t& b = boundary_[object.value];
  if (b == kNoBoundary) b = closest(object_key(object)).back();
  return b;
}

void DhtBackend::refresh_mask() {
  const std::size_t n = by_key_.size();
  mask_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const PeerId node{by_key_[i]};
    const std::uint32_t c = world_->component(node);
    P2PEX_INVARIANT_MSG(c != WorldView::kNoComponent,
                        "WorldView::component returned the reserved value");
    mask_[i] = world_->peer_online(node) ? c : WorldView::kNoComponent;
  }
  mask_epoch_ = world_->world_epoch();
  ++gen_;
  ++stats_.refreshes;
}

template <class Live>
DhtBackend::Route DhtBackend::route(int cpl, std::uint64_t target,
                                    std::uint32_t bound, Live live) const {
  const std::size_t k = std::max<std::size_t>(cfg_.dht_bucket_size, 1);
  const std::size_t n = sorted_keys_.size();
  std::uint8_t hops = 0;
  while (true) {
    if (hops >= cfg_.dht_hop_budget) return {hops, true};  // budget cut
    if (cpl >= 64) return {hops, true};  // defensive: key == target hole
    // The next bucket: nodes sharing one more prefix bit with the
    // target than the current node does. Contiguous in key order; scan
    // it in key order and keep the first k live candidates
    // (offline/unreachable nodes punch holes that the scan skips past).
    const std::uint64_t mask = ~std::uint64_t{0} << (64 - (cpl + 1));
    const std::uint64_t plo = target & mask;
    const std::uint64_t phi = plo | ~mask;
    std::size_t pos = static_cast<std::size_t>(
        std::lower_bound(sorted_keys_.begin(), sorted_keys_.end(), plo) -
        sorted_keys_.begin());
    std::uint32_t best = 0;
    std::uint64_t best_dist = ~std::uint64_t{0};
    bool found = false;
    for (std::size_t seen = 0; pos < n && sorted_keys_[pos] <= phi && seen < k;
         ++pos) {
      if (!live(pos)) continue;
      ++seen;
      const std::uint32_t idx = by_key_[pos];
      const std::uint64_t dist = sorted_keys_[pos] ^ target;
      if (!found || dist < best_dist || (dist == best_dist && idx < best)) {
        best = idx;
        best_dist = dist;
        found = true;
      }
    }
    if (!found) return {hops, true};  // routing hole: bucket has no one alive
    ++hops;
    if (within(best, target, bound)) return {hops, false};
    cpl = std::countl_zero(key_[best] ^ target);  // strictly grew: no cycles
  }
}

std::uint32_t DhtBackend::walk(PeerId from, std::uint64_t target,
                               std::uint32_t bound) {
  ++stats_.walks;
  // The requester may host the records itself.
  if (within(from.value, target, bound)) {
    ++stats_.local;
    return 0;
  }
  if (gen_ == 0 || world_->world_epoch() != mask_epoch_) refresh_mask();

  // Past this point the route depends on the requester only through its
  // common-prefix length with the target and its component (route()),
  // so walks from different requesters share memo entries.
  const int cpl = std::countl_zero(key_[from.value] ^ target);
  const std::uint32_t comp = world_->component(from);
  const std::uint64_t slot =
      (target + kGolden * (std::uint64_t{comp} * 65 +
                           static_cast<std::uint64_t>(cpl))) >>
      (64 - kMemoBits);
  MemoEntry& m = memo_[slot];
  // What mask_[pos] must hold, asked of the world directly (audits).
  const auto world_mask = [&](std::size_t pos) {
    const PeerId node{by_key_[pos]};
    return world_->peer_online(node) ? world_->component(node)
                                     : WorldView::kNoComponent;
  };
  if (m.gen == gen_ && m.target == target && m.cpl == cpl &&
      m.component == comp) {
    ++stats_.memo_hits;
    P2PEX_EXPENSIVE_INVARIANT_MSG(
        (route(cpl, target, bound,
               [&](std::size_t pos) { return world_mask(pos) == comp; }) ==
         m.route),
        "DHT walk memo disagrees with an uncached walk");
  } else {
    const auto live = [&](std::size_t pos) {
      P2PEX_EXPENSIVE_INVARIANT_MSG(
          mask_[pos] == world_mask(pos),
          "DHT liveness mask is stale: a world change skipped the epoch");
      return mask_[pos] == comp;
    };
    m = MemoEntry{target, gen_, comp, static_cast<std::uint8_t>(cpl),
                  route(cpl, target, bound, live)};
  }
  costs_.wire_bytes += std::uint64_t{m.route.hops} *
                       static_cast<std::uint64_t>(cfg_.dht_alpha) *
                       kMessageBytes;
  return m.route.failed ? kWalkFailed : m.route.hops;
}

void DhtBackend::add_owner(ObjectId object, PeerId peer, SimTime now) {
  if (store_size() == 0) return;
  // The publish walk is charged even when routing fails mid-walk: the
  // record still lands (Kademlia republish repairs placement off-path),
  // so discoverability is gated at query time, where it belongs.
  const std::uint32_t hops = walk(peer, object_key(object), boundary(object));
  if (hops != kWalkFailed) costs_.hops += hops;
  costs_.wire_bytes +=
      static_cast<std::uint64_t>(store_size()) * kRecordBytes;

  std::vector<Record>& records = store_[object];
  for (Record& r : records) {
    if (r.provider == peer) {
      r.origin = now;  // refresh, don't duplicate
      return;
    }
  }
  records.push_back(Record{peer, now});
  std::vector<ObjectId>& pub = published_[peer.value];
  if (std::find(pub.begin(), pub.end(), object) == pub.end())
    pub.push_back(object);
}

void DhtBackend::remove_owner(ObjectId object, PeerId peer, SimTime now) {
  static_cast<void>(now);
  const auto it = store_.find(object);
  if (it != store_.end()) {
    std::erase_if(it->second,
                  [&](const Record& r) { return r.provider == peer; });
    if (it->second.empty()) store_.erase(it);
    costs_.wire_bytes += kMessageBytes;  // one unpublish message
  }
  std::vector<ObjectId>& pub = published_[peer.value];
  const auto pit = std::find(pub.begin(), pub.end(), object);
  if (pit != pub.end()) pub.erase(pit);
}

void DhtBackend::remove_peer(PeerId peer, SimTime now) {
  static_cast<void>(now);
  // A vanished node sends nothing: its records are dropped by the model
  // directly (the store nodes notice the dead contact), zero wire cost.
  std::vector<ObjectId>& pub = published_[peer.value];
  for (const ObjectId o : pub) {
    const auto it = store_.find(o);
    if (it == store_.end()) continue;
    std::erase_if(it->second,
                  [&](const Record& r) { return r.provider == peer; });
    if (it->second.empty()) store_.erase(it);
  }
  pub.clear();
}

LookupResult DhtBackend::query(const LookupQuery& q) {
  LookupResult r;
  if (store_size() == 0) return r;
  const std::uint32_t hops =
      walk(q.requester, object_key(q.object), boundary(q.object));
  if (hops == kWalkFailed) return r;  // miss: budget cut or routing hole
  r.hops = hops;
  costs_.hops += hops;

  const auto it = store_.find(q.object);
  if (it == store_.end()) {
    r.wire_bytes = static_cast<std::uint64_t>(hops) *
                   static_cast<std::uint64_t>(cfg_.dht_alpha) * kMessageBytes;
    return r;
  }
  for (const Record& rec : it->second) {
    if (rec.provider == q.requester) continue;
    r.providers.push_back(rec.provider);
    r.ages.push_back(q.now - rec.origin);
  }
  // Records are unique per provider; index-sort into ascending peer
  // order with ages kept parallel.
  std::vector<std::size_t> order(r.providers.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return r.providers[a] < r.providers[b];
  });
  LookupResult sorted;
  sorted.hops = hops;
  sorted.providers.reserve(order.size());
  sorted.ages.reserve(order.size());
  for (const std::size_t i : order) {
    sorted.providers.push_back(r.providers[i]);
    sorted.ages.push_back(r.ages[i]);
  }
  if (hops > 0) {
    sorted.wire_bytes =
        static_cast<std::uint64_t>(hops) *
            static_cast<std::uint64_t>(cfg_.dht_alpha) * kMessageBytes +
        static_cast<std::uint64_t>(sorted.providers.size()) * kRecordBytes;
    costs_.wire_bytes +=
        static_cast<std::uint64_t>(sorted.providers.size()) * kRecordBytes;
  }
  return sorted;
}

}  // namespace p2pex::discovery
