#include "discovery/pex_backend.h"

#include <algorithm>

#include "util/contracts.h"

namespace p2pex::discovery {

namespace {
/// Salt for the gossip stream: forked off the run seed so enabling PEX
/// never perturbs the System's main stream (same pattern as the fault
/// injector's kFaultSeedSalt).
constexpr std::uint64_t kPexSeedSalt = 0x9055170FD16E57ULL;
}  // namespace

PexBackend::PexBackend(const DiscoveryConfig& cfg, std::uint64_t seed,
                       const WorldView& world)
    : cfg_(cfg),
      world_(&world),
      rng_(seed ^ kPexSeedSalt),
      own_(world.num_peers()),
      cache_(world.num_peers()) {}

void PexBackend::add_owner(ObjectId object, PeerId peer, SimTime now) {
  static_cast<void>(now);
  std::vector<ObjectId>& own = own_[peer.value];
  if (std::find(own.begin(), own.end(), object) == own.end())
    own.push_back(object);
}

void PexBackend::remove_owner(ObjectId object, PeerId peer, SimTime now) {
  static_cast<void>(now);
  std::vector<ObjectId>& own = own_[peer.value];
  const auto it = std::find(own.begin(), own.end(), object);
  if (it != own.end()) own.erase(it);
  // Relayed copies in other peers' caches are NOT touched: they linger
  // until pex_entry_ttl ages them out — that is the staleness the
  // backend models (stale_entries_served counts them when proposed).
}

void PexBackend::remove_peer(PeerId peer, SimTime now) {
  static_cast<void>(now);
  // The peer stops advertising everything. Its own learned cache is
  // kept (a rejoining peer remembers what it heard); entries *about*
  // it elsewhere age out via the TTL like any other stale fact.
  own_[peer.value].clear();
}

std::size_t PexBackend::send_digest(PeerId from, PeerId to, SimTime now) {
  std::vector<Entry>& digest = digest_scratch_;
  digest.clear();
  const std::size_t cap = cfg_.gossip_digest_cap;

  // Own adverts first, rotated by round so a digest smaller than the
  // sender's storage still cycles full coverage across rounds.
  const std::vector<ObjectId>& own = own_[from.value];
  if (!own.empty()) {
    const std::size_t start = static_cast<std::size_t>(round_) % own.size();
    for (std::size_t j = 0; j < own.size() && digest.size() < cap; ++j)
      digest.push_back(Entry{own[(start + j) % own.size()], from, now});
  }

  // Then the freshest relayed entries (newest appended last): relaying
  // keeps the original learn time, so age is end-to-end.
  const std::vector<Entry>& cache = cache_[from.value];
  for (auto it = cache.rbegin(); it != cache.rend() && digest.size() < cap;
       ++it) {
    if (it->provider == to || expired(*it, now)) continue;
    digest.push_back(*it);
  }

  for (const Entry& e : digest) merge_entry(to, e);
  return digest.size();
}

void PexBackend::merge_entry(PeerId receiver, const Entry& e) {
  if (e.provider == receiver) return;  // facts about itself are useless
  std::vector<Entry>& cache = cache_[receiver.value];
  for (Entry& have : cache) {
    if (have.object == e.object && have.provider == e.provider) {
      have.origin = std::max(have.origin, e.origin);  // refresh, don't dup
      return;
    }
  }
  cache.push_back(e);
  if (cache.size() > cfg_.pex_cache_cap)
    cache.erase(cache.begin());  // FIFO: oldest knowledge is shed first
}

void PexBackend::tick(SimTime now) {
  const std::size_t n = world_->num_peers();
  if (n < 2) return;
  ++costs_.gossip_rounds;
  // One ring-partner offset per round, drawn from the salted gossip
  // stream.
  const std::size_t offset = 1 + rng_.index(n - 1);
  ++round_;
  for (std::size_t i = 0; i < n; ++i) {
    const PeerId a = PeerId::from_index(i);
    const PeerId b = PeerId::from_index((i + offset) % n);
    if (!world_->peer_online(a) || !world_->peer_online(b)) continue;
    if (!world_->peers_reachable(a, b)) continue;  // partitions cut gossip
    const std::size_t sent = send_digest(a, b, now) + send_digest(b, a, now);
    costs_.wire_bytes +=
        2 * kMessageBytes + static_cast<std::uint64_t>(sent) * kEntryBytes;
  }
}

LookupResult PexBackend::query(const LookupQuery& q) {
  LookupResult r;
  std::vector<Entry>& cache = cache_[q.requester.value];
  // Lazy expiry: age the requester's cache before reading it.
  std::erase_if(cache,
                [&](const Entry& e) { return expired(e, q.now); });
  for (const Entry& e : cache) {
    if (e.object != q.object || e.provider == q.requester) continue;
    r.providers.push_back(e.provider);
    r.ages.push_back(q.now - e.origin);
  }
  // Ascending provider order, ages kept parallel (entries are unique
  // per (object, provider), so a simple index sort suffices).
  std::vector<std::size_t> order(r.providers.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return r.providers[a] < r.providers[b];
  });
  LookupResult sorted;
  sorted.providers.reserve(order.size());
  sorted.ages.reserve(order.size());
  for (const std::size_t i : order) {
    sorted.providers.push_back(r.providers[i]);
    sorted.ages.push_back(r.ages[i]);
  }
  return sorted;
}

}  // namespace p2pex::discovery
