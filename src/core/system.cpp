// System construction, workload generation and periodic maintenance.
// Transfer/exchange mechanics live in system_transfer.cpp; the
// request-graph views (GraphSnapshot builder + naive reference
// accessors) and invariant audit in system_view.cpp.
#include "core/system.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "util/assert.h"
#include "util/contracts.h"

namespace p2pex {

System::System(const SimConfig& config, const PopulationPlan& plan)
    : cfg_(config),
      rng_((config.validate(), validate_plan(plan, config), config.seed)),
      catalog_(cfg_.catalog, rng_),
      lookup_(catalog_.num_objects(), cfg_.num_peers),
      finder_(cfg_.policy, cfg_.max_ring_size, cfg_.tree_mode,
              cfg_.bloom_hop_budget),
      metrics_(cfg_.warmup()),
      faults_(cfg_.faults, cfg_.seed) {
  init_observability();
  build_peers(plan);
  init_discovery();
  place_initial_objects();
}

Peer& System::peer_mut(PeerId p) {
  P2PEX_INVARIANT(p.value < peers_.size());
  return peers_[p.value];
}

const Peer& System::peer(PeerId p) const {
  P2PEX_INVARIANT(p.value < peers_.size());
  return peers_[p.value];
}

Download& System::download(DownloadId d) {
  P2PEX_INVARIANT(d.value < downloads_.size());
  return downloads_[d.value];
}

Session& System::session(SessionId s) {
  P2PEX_INVARIANT(s.value < sessions_.size());
  return sessions_[s.value];
}

DownloadId System::find_pending(const Peer& p, ObjectId o) const {
  for (const DownloadId did : p.pending_list)
    if (downloads_[did.value].object == o) return did;
  return DownloadId{};
}

bool System::is_registered(const Download& d, PeerId p) const {
  const std::uint32_t i = disc_arena_.find(d.disc_start, d.disc_len, p);
  return i != d.disc_len && disc_arena_.registered(d.disc_start + i);
}

void System::set_registered(Download& d, PeerId p) {
  const std::uint32_t i = disc_arena_.find(d.disc_start, d.disc_len, p);
  P2PEX_INVARIANT_MSG(i != d.disc_len, "registering an undiscovered provider");
  if (!disc_arena_.registered(d.disc_start + i)) {
    disc_arena_.set_registered(d.disc_start + i, true);
    ++d.reg_count;
  }
}

void System::clear_registered(Download& d, PeerId p) {
  const std::uint32_t i = disc_arena_.find(d.disc_start, d.disc_len, p);
  P2PEX_INVARIANT_MSG(i != d.disc_len, "unregistering an undiscovered provider");
  if (disc_arena_.registered(d.disc_start + i)) {
    disc_arena_.set_registered(d.disc_start + i, false);
    P2PEX_INVARIANT(d.reg_count > 0);
    --d.reg_count;
  }
}

std::vector<PeerId> System::registered_sorted(const Download& d) const {
  std::vector<PeerId> out;
  out.reserve(d.reg_count);
  for (std::uint32_t i = 0; i < d.disc_len; ++i)
    if (disc_arena_.registered(d.disc_start + i))
      out.push_back(disc_arena_.providers(d.disc_start, d.disc_len)[i]);
  std::sort(out.begin(), out.end());
  return out;
}

Download& System::alloc_download() {
  if (!free_downloads_.empty()) {
    const DownloadId did = free_downloads_.back();
    free_downloads_.pop_back();
    ++counters_.download_rows_reused;
    Download& d = downloads_[did.value];
    P2PEX_INVARIANT_MSG(!d.active, "free download row still active");
    d.id = did;
    d.size = 0;
    d.received = 0.0;
    d.disc_start = d.disc_len = d.reg_count = 0;
    d.seq = next_download_seq_++;
    d.fault_attempts = 0;
    d.retry_until = 0.0;
    d.sessions.clear();  // keeps the row's vector capacity
    d.completion = EventHandle{};
    d.watched = false;
    d.active = true;
    return d;
  }
  const DownloadId did = DownloadId::from_index(downloads_.size());
  downloads_.push_back(Download{});
  downloads_.back().id = did;
  downloads_.back().seq = next_download_seq_++;
  return downloads_.back();
}

void System::release_download(Download& d) {
  P2PEX_INVARIANT_MSG(!d.active && !d.watched && d.sessions.empty(),
                   "releasing a download that is still referenced");
  disc_arena_.release(d.disc_start, d.disc_len);
  d.disc_start = d.disc_len = d.reg_count = 0;
  free_downloads_.push_back(d.id);
}

void System::release_session(SessionId sid) {
  P2PEX_INVARIANT(!sessions_[sid.value].active);
  free_sessions_.push_back(sid);
}

void System::release_ring(RingId rid) {
  P2PEX_INVARIANT(!rings_[rid.value].active);
  free_rings_.push_back(rid);
}

// p2pex-lint: no-graph-effect (construction: runs before the first
// snapshot build, which reads the finished peer table wholesale)
void System::build_peers(const PopulationPlan& plan) {
  const std::size_t n = cfg_.num_peers;
  peers_.reserve(n);
  // Per-peer maintenance state: dirty-set marks, the watcher reverse
  // index, and the snapshot builder's dedupe marks. The population is
  // fixed for the run, so these never resize again.
  graph_dirty_rows_.assign(n, RowKind::kNone);
  bloom_dirty_stamp_.assign(n, 0);
  watchers_.assign(n, {});
  snap_seen_.assign(n, 0);

  if (plan.empty()) {
    // Homogeneous Table II population: exactly round(n * fraction)
    // freeloaders, assigned to random peers.
    const auto num_nonsharing = static_cast<std::size_t>(
        static_cast<double>(n) * cfg_.nonsharing_fraction + 0.5);
    std::vector<std::uint8_t> nonsharing(n, 0);
    for (std::size_t i = 0; i < std::min(num_nonsharing, n); ++i)
      nonsharing[i] = 1;
    rng_.shuffle(nonsharing);

    for (std::size_t i = 0; i < n; ++i) {
      const auto cap = static_cast<std::size_t>(rng_.uniform_int(
          static_cast<std::int64_t>(cfg_.min_storage_objects),
          static_cast<std::int64_t>(cfg_.max_storage_objects)));
      const auto cats = static_cast<std::size_t>(rng_.uniform_int(
          static_cast<std::int64_t>(cfg_.min_categories_per_peer),
          static_cast<std::int64_t>(cfg_.max_categories_per_peer)));
      const bool lies = nonsharing[i] != 0 && rng_.chance(cfg_.liar_fraction);
      peers_.emplace_back(PeerId::from_index(i), Storage(cap),
                          InterestProfile(catalog_, cats, rng_),
                          cfg_.irq_capacity, lies);
      Peer& p = peers_.back();
      p.shares = nonsharing[i] == 0;
      p.upload_slots = cfg_.upload_slots();
      p.download_slots = cfg_.download_slots();
      if (p.shares) ++num_sharing_;
    }
    return;
  }

  // Heterogeneous population: classes in plan order, each a contiguous
  // PeerId range, members drawn from the class's own ranges.
  for (const PeerClass& cls : plan) {
    const std::size_t min_storage =
        cls.max_storage != 0 ? cls.min_storage : cfg_.min_storage_objects;
    const std::size_t max_storage =
        cls.max_storage != 0 ? cls.max_storage : cfg_.max_storage_objects;
    const std::size_t min_cats = cls.max_categories != 0
                                     ? cls.min_categories
                                     : cfg_.min_categories_per_peer;
    const std::size_t max_cats = cls.max_categories != 0
                                     ? cls.max_categories
                                     : cfg_.max_categories_per_peer;
    const double up_kbps =
        cls.upload_kbps != 0.0 ? cls.upload_kbps : cfg_.upload_capacity_kbps;
    const double down_kbps = cls.download_kbps != 0.0
                                 ? cls.download_kbps
                                 : cfg_.download_capacity_kbps;
    const auto interest_cap = std::max<std::size_t>(
        max_cats,
        static_cast<std::size_t>(
            std::ceil(cls.interest_top_fraction *
                      static_cast<double>(catalog_.num_categories()))));

    for (std::size_t i = 0; i < cls.count; ++i) {
      const auto cap = static_cast<std::size_t>(
          rng_.uniform_int(static_cast<std::int64_t>(min_storage),
                           static_cast<std::int64_t>(max_storage)));
      const auto cats = static_cast<std::size_t>(
          rng_.uniform_int(static_cast<std::int64_t>(min_cats),
                           static_cast<std::int64_t>(max_cats)));
      const bool lies = !cls.shares && rng_.chance(cls.liar_fraction);
      peers_.emplace_back(
          PeerId::from_index(peers_.size()), Storage(cap),
          InterestProfile(catalog_, cats, interest_cap, rng_),
          cfg_.irq_capacity, lies);
      Peer& p = peers_.back();
      p.shares = cls.shares;
      set_online(p, !cls.start_offline);
      p.upload_slots = static_cast<int>(up_kbps / cfg_.slot_kbps);
      p.download_slots = static_cast<int>(down_kbps / cfg_.slot_kbps);
      if (p.shares) ++num_sharing_;
    }
  }
}

// p2pex-lint: no-graph-effect (construction: runs before the first
// snapshot build, which reads the finished peer table wholesale)
void System::place_initial_objects() {
  // Fill each peer's storage with objects drawn from its own interest
  // profile (paper: "we initially place objects on each peer based on the
  // peer's category preferences").
  for (Peer& p : peers_) {
    const auto target = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               static_cast<double>(p.storage.capacity()) *
               cfg_.initial_fill_fraction));
    std::size_t attempts = 0;
    const std::size_t max_attempts = 60 * target;
    while (p.storage.size() < target && attempts++ < max_attempts) {
      const CategoryId c = p.interests.sample_category(rng_);
      const ObjectId o = catalog_.sample_object_in(c, rng_);
      p.storage.add(o);  // duplicate adds are rejected, costing an attempt
    }
    // Offline members (late-arrival cohorts) keep their storage private
    // until they join.
    if (p.shares && p.online)
      for (ObjectId o : p.storage.objects()) lookup_add_owner(o, p.id);
  }
}

void System::run() {
  run_to(cfg_.sim_duration);
  if (!finished_) finalize();
}

void System::run_to(SimTime t) {
  P2PEX_ASSERT_MSG(t <= cfg_.sim_duration, "run_to beyond sim_duration");
  if (!started_) {
    started_ = true;
    sim_.schedule_periodic(cfg_.eviction_interval, [this] {
      eviction_sweep();
      drain_dirty();
    });
    sim_.schedule_periodic(cfg_.search_interval, [this] { search_sweep(); });
    // Backend maintenance (PEX gossip rounds). The oracle reports
    // interval 0, so the default path schedules no event at all and the
    // event stream stays bit-identical with the pre-backend engine.
    if (const SimTime gossip = backend_->tick_interval(); gossip > 0.0) {
      sim_.schedule_periodic(gossip, [this] {
        // p2pex-lint: no-graph-effect (gossip moves discovery metadata
        // only; no request edge, storage or session state changes)
        backend_->tick(sim_.now());
        drain_discovery_costs();
      });
    }
    if (cfg_.tree_mode == TreeMode::kBloom)
      refresh_bloom_summaries();  // first refresh is always a full build
    // Closed-loop workload: every peer immediately fills its pending set
    // (paper: "requests are generated fast enough so that each peer
    // reaches this maximum early enough in the simulation").
    for (std::size_t i = 0; i < peers_.size(); ++i)
      issue_requests(PeerId::from_index(i));
    drain_dirty();
  }
  sim_.run_until(t);
}

void System::issue_requests(PeerId p) {
  // One span per call, not per lookup: discovery queries run inside it
  // and a per-query span would overflow the trace ring on DHT runs.
  P2PEX_TRACE_SPAN("request.issue", "engine");
  Peer& peer = peers_[p.value];
  while (peer.online && peer.pending_list.size() < cfg_.max_pending) {
    if (!issue_one_request(p)) {
      // Nothing issuable right now (lookup failures or interest
      // exhaustion). Retry later — availability changes as other peers
      // complete downloads and replicate objects.
      if (!peer.retry_pending) {
        peer.retry_pending = true;
        sim_.schedule_in(cfg_.request_retry_interval, [this, p] {
          peers_[p.value].retry_pending = false;
          issue_requests(p);
          drain_dirty();
        });
      }
      break;
    }
  }
}

bool System::issue_one_request(PeerId p) {
  Peer& peer = peers_[p.value];
  const bool oracle = backend_->kind() == discovery::BackendKind::kOracle;
  // "Continue to generate candidate requests until a miss is found";
  // bounded so a pathological configuration cannot spin forever.
  for (int attempt = 0; attempt < 300; ++attempt) {
    // Flash-crowd override first (the short-circuit keeps the no-spike
    // request stream bit-identical: no Bernoulli draw is consumed).
    const CategoryId c = (spike_weight_ > 0.0 && rng_.chance(spike_weight_))
                             ? spike_category_
                             : peer.interests.sample_category(rng_);
    const ObjectId o = catalog_.sample_object_in(c, rng_);
    if (peer.storage.contains(o) || find_pending(peer, o).valid())
      continue;  // cache hit — ignored per the paper
    if (oracle && lookup_.owner_count(o) == 0) {
      // What the oracle would answer, without asking it: it draws once
      // per owner and charges nothing, and the fault shims below draw
      // once per surviving owner, so a lookup with no owners consumes no
      // random number anywhere. Most candidates end here.
      ++counters_.lookup_failures;
      continue;
    }

    discovery::LookupResult found =
        backend_->query({o, p, sim_.now()});
    drain_discovery_costs();
    std::vector<PeerId>& discovered = found.providers;
    if (!oracle) {
      // Decentralized-backend quality accounting, against the ground
      // truth the oracle would have read. Counted before the fault
      // shims below so the figures describe the backend, not the fault
      // model. The oracle path skips this block entirely: its answers
      // are truth by construction and the counters pin 0.
      for (const PeerId q : discovered)
        if (!lookup_.has_owner(o, q)) ++counters_.stale_entries_served;
      if (discovered.empty() && lookup_.owner_count(o) > 0)
        ++counters_.lookup_misses;
    }
    // Fault shims over the lookup result (both inert at defaults: no
    // erase, no draw). A partition hides the far side's owners entirely;
    // lookup loss drops each surviving owner independently on the
    // injector's stream. Note neither filters *dead* owners — a crashed
    // peer's entries linger until its late retraction fires, so the
    // request can propose (and register nowhere at) a dead provider.
    if (faults_.partitioned())
      std::erase_if(discovered,
                    [&](PeerId q) { return !faults_.reachable(p, q); });
    if (faults_.lookup_loss() > 0.0)
      std::erase_if(discovered, [&](PeerId q) {
        (void)q;
        return faults_.drop_lookup_entry();
      });
    if (discovered.empty()) {
      ++counters_.lookup_failures;
      continue;
    }

    Download& d = alloc_download();
    const DownloadId did = d.id;
    d.peer = p;
    d.object = o;
    d.size = catalog_.object_size(o);
    d.last_update = sim_.now();
    d.issue_time = sim_.now();
    d.disc_start = disc_arena_.alloc(discovered);
    d.disc_len = narrow_u32(discovered.size());
    hist_provider_span_->record(discovered.size());

    // Register at a random subset of the discovered owners; the rest stay
    // usable for ring closure only. (The sample draws from the
    // lookup-return vector, same as before the arena: the RNG stream is
    // untouched by the layout change.)
    const std::vector<PeerId> targets =
        rng_.sample(discovered, cfg_.max_providers_per_request);
    for (PeerId provider : targets) {
      const Peer& prov = peers_[provider.value];
      if (!prov.online || !prov.shares || !prov.storage.contains(o)) {
        // Stale lookup entry: a crashed owner whose late retraction has
        // not fired yet, or (decentralized backends only — the oracle
        // reads the truth index, which evictions and sharing flips
        // update synchronously) a gossiped/DHT record whose provider
        // evicted the object or stopped sharing. The registration is
        // wasted — that is the cost of stale discovery state the fault
        // model and backend counters measure.
        ++counters_.stale_proposals;
        continue;
      }
      IrqEntry entry;
      entry.requester = p;
      entry.object = o;
      entry.download = did;
      entry.enqueue_time = sim_.now();
      entry.request_time = sim_.now();
      if (peers_[provider.value].irq.add(entry)) {
        set_registered(d, provider);
        touch_graph(provider, RowKind::kEdges);  // gained a request edge
        mark_dirty(provider);   // "on receipt of each request ..."
      }
    }
    if (d.reg_count == 0) {
      // Nothing references the row yet: undo both allocations exactly.
      disc_arena_.rollback_alloc(d.disc_start, d.disc_len);
      d.active = false;
      d.disc_start = d.disc_len = 0;
      if (d.id.value + 1 == downloads_.size())
        downloads_.pop_back();
      else
        free_downloads_.push_back(d.id);
      continue;
    }
    watch_providers(d);  // closure eligibility now tracks the discovered set
    peer.pending_list.push_back(did);
    ++counters_.requests_issued;
    touch_graph(p, RowKind::kRoot);  // the root gained a pending download
    mark_dirty(p);   // "prior to transmission of a request ..."
    return true;
  }
  return false;
}

void System::cancel_download(DownloadId did, bool starved, SessionEnd reason,
                             bool lossy) {
  Download& d = download(did);
  if (!d.active) return;
  touch_graph(d.peer, RowKind::kRoot);  // the root loses this download
  unwatch_providers(d);
  accrue_download(d);
  {
    std::vector<SessionId>& doomed = acquire_session_scratch();
    doomed.assign(d.sessions.begin(), d.sessions.end());
    for (SessionId sid : doomed)
      if (session(sid).active) end_session(sid, reason, lossy);
    release_session_scratch();
  }
  for (PeerId provider : registered_sorted(d)) {
    peers_[provider.value].irq.remove(RequestKey{d.peer, d.object});
    touch_graph(provider, RowKind::kEdges);  // its edge from d.peer goes away
  }
  sim_.cancel(d.completion);
  d.active = false;
  const PeerId owner = d.peer;
  Peer& peer = peers_[owner.value];
  peer.pending_list.erase(
      std::find(peer.pending_list.begin(), peer.pending_list.end(), did));
  // Recycle the row before re-issuing: the replacement request can land
  // in the slot this download just vacated.
  release_download(d);
  if (starved) {
    ++counters_.downloads_starved;
    issue_requests(owner);  // closed loop: replace the lost request
  } else {
    ++counters_.downloads_withdrawn;
  }
}

void System::eviction_sweep() {
  P2PEX_TRACE_SPAN("sweep.eviction", "sweep");
  // Evictions (RNG draws, lookup updates, request cancellations) run in
  // ascending peer order. Peers at or under capacity consume no RNG in
  // evict_over_capacity, so skipping them leaves the random stream
  // bit-identical.
  for (const PeerId pid : scan_peers(+[](const Peer& p) {
         return p.online && p.storage.over_capacity();
       })) {
    Peer& p = peers_[pid.value];
    const std::vector<ObjectId> evicted = p.storage.evict_over_capacity(rng_);
    if (evicted.empty()) continue;
    touch_graph(p.id, RowKind::kEdges);  // doomed IRQ entries drop out
    touch_watchers(p.id);  // roots wanting an evicted object lose closers
    for (ObjectId o : evicted)
      if (p.shares) lookup_remove_owner(o, p.id);
    // Queued requests for an evicted object can never be served here any
    // more: drop them and tell the requesters. (Requests being served are
    // impossible — serving pins the object.)
    std::vector<std::pair<RequestKey, DownloadId>> doomed;
    for (const IrqEntry& e : p.irq.entries()) {
      if (std::find(evicted.begin(), evicted.end(), e.object) !=
          evicted.end()) {
        P2PEX_ASSERT_MSG(e.state == RequestState::kQueued,
                         "active upload of an evicted object");
        doomed.emplace_back(RequestKey{e.requester, e.object}, e.download);
      }
    }
    std::vector<DownloadId> starved;
    for (const auto& [key, did] : doomed) {
      p.irq.remove(key);
      Download& d = download(did);
      clear_registered(d, p.id);
      if (d.active && d.reg_count == 0 && d.sessions.empty())
        starved.push_back(did);
    }
    for (DownloadId did : starved) cancel_download(did);
  }
}

void System::search_sweep() {
  P2PEX_TRACE_SPAN("sweep.search", "sweep");
  // "Each peer regularly examines its incoming request queue": the sweep
  // revisits every peer, both to catch exchange opportunities created by
  // slot churn and to retry non-exchange service that was previously
  // blocked on requester download capacity.
  if (cfg_.tree_mode == TreeMode::kBloom) refresh_bloom_summaries();
  for (const PeerId p : scan_peers(+[](const Peer& p) {
         return p.online && p.shares && !p.irq.empty();
       }))
    mark_dirty(p);
  drain_dirty();
}

const std::vector<PeerId>& System::scan_peers(PeerPred pred) {
  scan_out_.clear();
  for (const Peer& p : peers_)
    if (pred(p)) scan_out_.push_back(p.id);
  return scan_out_;
}

void System::finalize() {
  finished_ = true;
  // Censored records: sessions still running when the run ends carry
  // their partial volume (SessionEnd::kSimulationEnd); in-flight
  // downloads are not recorded (the paper measures completed downloads).
  // Rows are recycled, so index order no longer equals start order; the
  // seq sort reproduces the old creation-order record stream exactly
  // (the metrics aggregators are order-sensitive in floating point).
  std::vector<SessionId> open;
  for (const Session& s : sessions_)
    if (s.active) open.push_back(s.id);
  std::sort(open.begin(), open.end(), [this](SessionId a, SessionId b) {
    return sessions_[a.value].seq < sessions_[b.value].seq;
  });
  for (SessionId sid : open)
    if (sessions_[sid.value].active)
      end_session(sid, SessionEnd::kSimulationEnd);
  for (Ring& r : rings_) r.active = false;
}

}  // namespace p2pex
