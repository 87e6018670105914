// Transfer sessions (fluid model), download completion, exchange-ring
// formation/collapse and the exchange-priority upload scheduler.
#include <algorithm>
#include <cmath>

#include "core/system.h"
#include "obs/trace.h"
#include "util/assert.h"
#include "util/contracts.h"

namespace p2pex {

// ---------------------------------------------------------------------------
// Session-id scratch pool
// ---------------------------------------------------------------------------

std::vector<SessionId>& System::acquire_session_scratch() {
  if (session_scratch_depth_ == session_scratch_pool_.size())
    session_scratch_pool_.emplace_back();
  std::vector<SessionId>& buf =
      session_scratch_pool_[session_scratch_depth_++];
  buf.clear();
  return buf;
}

void System::release_session_scratch() {
  P2PEX_INVARIANT(session_scratch_depth_ > 0);
  --session_scratch_depth_;
}

// ---------------------------------------------------------------------------
// Fluid transfer model
// ---------------------------------------------------------------------------

void System::accrue_download(Download& d) {
  const SimTime now = sim_.now();
  const SimTime dt = now - d.last_update;
  if (dt > 0.0) {
    double total = 0.0;
    for (SessionId sid : d.sessions) {
      Session& s = sessions_[sid.value];
      const double add = s.rate * dt;
      s.bytes += add;
      s.last_update = now;
      total += add;
    }
    d.received = std::min(static_cast<double>(d.size), d.received + total);
  }
  d.last_update = now;
}

void System::reschedule_completion(Download& d) {
  d.completion = 0;  // any pending completion event is now stale
  if (!d.active || d.sessions.empty()) return;
  const Rate rate =
      cfg_.slot_rate() * static_cast<double>(d.sessions.size());
  const SimTime dt = std::max(0.0, d.remaining() / rate);
  d.completion = sim_.schedule_in(dt, kDownloadCompletion, d.id.value);
}

SessionId System::start_session(PeerId provider, IrqEntry& entry,
                                RingId ring, std::uint8_t ring_size) {
  Peer& prov = peers_[provider.value];
  Peer& req = peers_[entry.requester.value];
  P2PEX_INVARIANT_MSG(prov.free_upload_slots() > 0, "no upload slot free");
  P2PEX_INVARIANT_MSG(req.free_download_slots() > 0, "no download slot free");
  P2PEX_INVARIANT_MSG(prov.storage.contains(entry.object),
                   "serving an object not stored");

  Download& d = download(entry.download);
  P2PEX_INVARIANT_MSG(d.active, "session for a finished download");
  accrue_download(d);

  SessionId sid;
  if (!free_sessions_.empty()) {
    sid = free_sessions_.back();
    free_sessions_.pop_back();
    P2PEX_INVARIANT_MSG(!sessions_[sid.value].active,
                     "free session row still active");
    ++counters_.session_rows_reused;
  } else {
    sid = SessionId::from_index(sessions_.size());
    sessions_.emplace_back();
  }
  Session s;
  s.id = sid;
  s.provider = provider;
  s.requester = entry.requester;
  s.object = entry.object;
  s.download = entry.download;
  s.ring = ring;
  s.type = SessionType{ring_size};
  s.seq = next_session_seq_++;
  s.request_time = entry.request_time;
  s.start_time = sim_.now();
  s.last_update = sim_.now();
  s.rate = cfg_.slot_rate();
  sessions_[sid.value] = s;

  ++prov.upload_in_use;
  prov.uploads.push_back(sid);
  prov.storage.pin(entry.object);
  ++req.download_in_use;

  entry.state = ring.valid() ? RequestState::kActiveExchange
                             : RequestState::kActiveNonExchange;
  entry.session = sid;
  // Only kActiveExchange entries leave the request graph; a non-exchange
  // start (kQueued -> kActiveNonExchange) is invisible to the snapshot,
  // so don't dirty anything for it. A ring-bound entry drops from the
  // provider's edge row and from the requester's closure row (the
  // already-serving exclusion).
  if (ring.valid()) {
    touch_graph(provider, RowKind::kEdges);
    touch_graph(entry.requester, RowKind::kRoot);
  }

  // Re-acquire: the push_back above may have invalidated `d`? No —
  // downloads_ was not touched; sessions_ was. d stays valid.
  d.sessions.push_back(sid);
  reschedule_completion(d);
  ++counters_.sessions_started;
  arm_session_fault(sid);  // fault model: no-op (and no draw) when off
  return sid;
}

void System::end_session(SessionId sid, SessionEnd reason, bool lossy) {
  Session& s = sessions_[sid.value];
  if (!s.active) return;
  Download& d = download(s.download);
  // A lossy end (crash, injected fault, partition cut) loses the bytes
  // the session accrued since its last checkpoint — the uncommitted
  // tail of an abruptly dead stream. Both sides of the byte ledger see
  // the same reduced figure, so upload/download conservation holds.
  const double uncommitted =
      lossy ? s.rate * (sim_.now() - s.last_update) : 0.0;
  accrue_download(d);  // brings s.bytes up to date
  if (uncommitted > 0.0) {
    s.bytes = std::max(0.0, s.bytes - uncommitted);
    d.received = std::max(0.0, d.received - uncommitted);
  }
  s.active = false;
  // An ended exchange session returns its ring-bound entry to the graph
  // below (provider edge row + requester closure row); ending a
  // non-exchange session (kActiveNonExchange -> kQueued) leaves the
  // snapshot's view of the entry unchanged.
  if (s.ring.valid()) {
    touch_graph(s.provider, RowKind::kEdges);
    touch_graph(s.requester, RowKind::kRoot);
  }

  Peer& prov = peers_[s.provider.value];
  Peer& req = peers_[s.requester.value];
  --prov.upload_in_use;
  prov.uploads.erase(
      std::find(prov.uploads.begin(), prov.uploads.end(), sid));
  prov.storage.unpin(s.object);
  --req.download_in_use;

  const auto it = std::find(d.sessions.begin(), d.sessions.end(), sid);
  P2PEX_INVARIANT(it != d.sessions.end());
  d.sessions.erase(it);
  reschedule_completion(d);

  // The request, unless fulfilled/withdrawn, goes back to waiting in the
  // provider's IRQ.
  if (IrqEntry* e = prov.irq.find(RequestKey{s.requester, s.object});
      e != nullptr && e->session == sid) {
    e->state = RequestState::kQueued;
    e->session = SessionId{};
  }

  const auto bytes = static_cast<Bytes>(s.bytes);
  SessionRecord rec;
  rec.provider = s.provider;
  rec.requester = s.requester;
  rec.object = s.object;
  rec.type = s.type;
  rec.requester_shares = req.shares;
  rec.request_time = s.request_time;
  rec.start_time = s.start_time;
  rec.end_time = sim_.now();
  rec.bytes = bytes;
  rec.end = reason;
  metrics_.record_session(rec);
  metrics_.count_uploaded(bytes);
  metrics_.count_downloaded(bytes);
  // Same warmup filter as the collector, so the histogram describes the
  // records the report aggregates. SimTime is deterministic; llround of
  // a deterministic double is too.
  if (rec.start_time >= metrics_.warmup()) {
    hist_wait_ms_->record(static_cast<std::uint64_t>(
        std::llround((rec.start_time - rec.request_time) * 1000.0)));
  }

  // Baseline ledgers (only consulted under their scheduler kinds, but
  // always maintained so ablations can read both sides of a run).
  req.credit.add_uploaded_to_me(s.provider, bytes);
  prov.credit.add_downloaded_from_me(s.requester, bytes);
  prov.participation.add_uploaded(bytes);
  req.participation.add_downloaded(bytes);

  // An exchange ring dies as a unit with its first terminating member.
  if (s.ring.valid() && reason != SessionEnd::kRingCollapsed && !finished_)
    collapse_ring(s.ring, sid);

  if (!finished_) {
    mark_dirty(s.provider);   // upload slot freed
    mark_dirty(s.requester);  // download slot freed
  }
  // Last: nothing above (or in any caller loop) starts a session before
  // this frame returns, so the row cannot be reused out from under a
  // stale id that is still being compared against `active`.
  release_session(sid);
}

void System::collapse_ring(RingId rid, SessionId cause) {
  Ring& r = rings_[rid.value];
  if (!r.active) return;
  r.active = false;
  std::vector<SessionId>& members = acquire_session_scratch();
  members.assign(r.sessions.begin(), r.sessions.end());
  for (SessionId sid : members) {
    if (sid != cause && sessions_[sid.value].active)
      end_session(sid, SessionEnd::kRingCollapsed);
  }
  release_session_scratch();
  // All member sessions are down, so nothing references the ring row:
  // only active sessions carry a live RingId.
  release_ring(rid);
}

void System::complete_download(DownloadId did) {
  Download& d = download(did);
  if (!d.active) return;
  accrue_download(d);
  if (d.remaining() > 1.0) {
    // Stale completion event (session set changed at this instant);
    // the reschedule that raced us is authoritative.
    return;
  }
  d.received = static_cast<double>(d.size);
  touch_graph(d.peer, RowKind::kRoot);  // the root loses this download
  unwatch_providers(d);

  {
    std::vector<SessionId>& feeding = acquire_session_scratch();
    feeding.assign(d.sessions.begin(), d.sessions.end());
    for (SessionId sid : feeding)
      if (sessions_[sid.value].active)
        end_session(sid, SessionEnd::kDownloadComplete);
    release_session_scratch();
  }

  for (PeerId provider : registered_sorted(d)) {
    peers_[provider.value].irq.remove(RequestKey{d.peer, d.object});
    touch_graph(provider, RowKind::kEdges);  // its edge from d.peer goes away
  }

  d.completion = 0;
  d.active = false;
  Peer& peer = peers_[d.peer.value];
  const auto it =
      std::find(peer.pending_list.begin(), peer.pending_list.end(), did);
  P2PEX_INVARIANT(it != peer.pending_list.end());
  peer.pending_list.erase(it);

  DownloadRecord rec;
  rec.peer = d.peer;
  rec.object = d.object;
  rec.peer_shares = peer.shares;
  rec.issue_time = d.issue_time;
  rec.complete_time = sim_.now();
  rec.bytes = d.size;
  metrics_.record_download(rec);
  ++counters_.downloads_completed;

  // The finished object enters storage and (for sharers) the lookup
  // index; periodic eviction trims any overflow later.
  const ObjectId object = d.object;
  const PeerId owner = d.peer;
  if (peer.storage.add(object)) {
    if (peer.shares) lookup_add_owner(object, owner);
    // Roots that discovered this peer as a provider may now see it as a
    // ring closer again (own-evict-then-redownload path).
    touch_watchers(owner);
  }

  // Recycle the row before re-issuing: the replacement request can land
  // in the slot this download just vacated.
  release_download(d);
  issue_requests(owner);  // closed loop: replace the completed request
}

// ---------------------------------------------------------------------------
// Exchange-priority scheduling
// ---------------------------------------------------------------------------

void System::mark_dirty(PeerId p) { dirty_.insert(p); }

void System::drain_dirty() {
  if (draining_) return;
  draining_ = true;
  if (!dirty_.empty()) {
    P2PEX_TRACE_SPAN("drain.merge", "engine");
    std::uint64_t guard = 0;
    while (!dirty_.empty()) {
      P2PEX_ASSERT_MSG(++guard < 5'000'000, "scheduling pass diverged");
      const PeerId p = *dirty_.begin();
      dirty_.erase(dirty_.begin());
      process_peer(p);
    }
  }
  draining_ = false;
}

void System::process_peer(PeerId pid) {
  Peer& p = peers_[pid.value];
  if (!p.online) return;

  // Exchange transfers take absolute priority: a sharing peer with wants
  // and incoming requests searches its request tree first, preempting
  // non-exchange uploads if a ring validates.
  if (cfg_.policy != ExchangePolicy::kNoExchange && p.shares &&
      !p.pending_list.empty() && !p.irq.empty()) {
    // Ring formation rounds: each successful ring changes the graph, so
    // re-search until nothing more validates (bounded by upload slots).
    for (int round = 0; round < p.upload_slots + 1; ++round) {
      if (!upload_capacity_available(p)) break;
      const auto candidates = ring_candidates(pid);
      bool formed = false;
      for (const RingProposal& proposal : candidates) {
        ++counters_.ring_attempts;
        if (try_form_ring(proposal)) {
          formed = true;
          break;
        }
        ++counters_.ring_rejects;
      }
      if (!formed) break;
    }
  }

  fill_free_slots(pid);
}

std::vector<RingProposal> System::ring_candidates(PeerId root) {
  const GraphSnapshot& view = graph_snapshot();
  const std::uint64_t visited = finder_.stats().nodes_visited;
  std::vector<RingProposal> out =
      finder_.find(view, root, cfg_.max_ring_attempts_per_search);
  hist_search_hops_->record(finder_.stats().nodes_visited - visited);
  return out;
}

bool System::try_form_ring(const RingProposal& proposal) {
  P2PEX_INVARIANT_MSG(proposal.well_formed(), "malformed ring proposal");
  const std::size_t n = proposal.size();
  if (n < 2 || n > cfg_.max_ring_size) return false;

  // --- Token walk: validate every link against live state. ---
  std::vector<PlanItem>& plan = ring_plan_;
  plan.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const RingLink& link = proposal.links[i];
    Peer& x = peers_[link.provider.value];
    Peer& y = peers_[link.requester.value];
    if (!x.online || !y.online || !x.shares) return false;
    // Fault gates (always pass with the model off): partitions confine
    // rings to one side; a post-fault retry holdoff parks the want.
    if (!faults_.reachable(link.provider, link.requester)) return false;
    if (!x.storage.contains(link.object)) return false;
    const DownloadId want = find_pending(y, link.object);
    if (!want.valid()) return false;
    if (!downloads_[want.value].active) return false;
    if (fault_holdoff_active(downloads_[want.value])) return false;

    IrqEntry* e = x.irq.find(RequestKey{link.requester, link.object});
    plan[i].create_entry = (e == nullptr);
    plan[i].victim = SessionId{};
    if (e != nullptr) {
      if (e->state == RequestState::kActiveExchange) return false;
      if (e->download != want) return false;
    } else {
      // Only the ring-closing link may lack a registered request (the
      // paper: the initiator may use any peer on its original provider
      // list); it gets registered as part of ring initiation.
      if (x.irq.size() >= x.irq.capacity()) return false;
    }

    if (e != nullptr && e->state == RequestState::kActiveNonExchange) {
      // The request is already being served on a spare slot: upgrade in
      // place (end the old session, reuse its slots).
      plan[i].upload = PlanItem::Upload::kUpgrade;
      plan[i].victim = e->session;
    } else if (x.free_upload_slots() > 0) {
      plan[i].upload = PlanItem::Upload::kFreeSlot;
    } else if (cfg_.preemption) {
      // Reclaim the youngest non-exchange upload at x not already
      // claimed by an earlier link.
      const auto claimed = [&](SessionId sid) {
        for (std::size_t j = 0; j < i; ++j)
          if (plan[j].victim == sid) return true;
        return false;
      };
      SessionId victim;
      for (auto it = x.uploads.rbegin(); it != x.uploads.rend(); ++it) {
        if (!sessions_[it->value].ring.valid() && !claimed(*it)) {
          victim = *it;
          break;
        }
      }
      if (!victim.valid()) return false;
      plan[i].upload = PlanItem::Upload::kPreempt;
      plan[i].victim = victim;
    } else {
      return false;
    }
  }

  // Download-capacity check (each peer is requester in exactly one
  // link): the sessions the plan ends free slots at their requesters
  // before the new ring sessions start.
  for (std::size_t i = 0; i < n; ++i) {
    const PeerId requester = proposal.links[i].requester;
    int avail = peers_[requester.value].free_download_slots();
    for (const PlanItem& item : plan)
      if (item.victim.valid() &&
          sessions_[item.victim.value].requester == requester)
        ++avail;
    if (avail < 1) return false;
  }

  // --- Execute atomically (control plane is instantaneous). ---
  RingId rid;
  if (!free_rings_.empty()) {
    rid = free_rings_.back();
    free_rings_.pop_back();
    ++counters_.ring_rows_reused;
    Ring& r = rings_[rid.value];
    P2PEX_INVARIANT_MSG(!r.active, "free ring row still active");
    r.id = rid;
    r.sessions.clear();  // keeps the row's vector capacity
    r.active = true;
  } else {
    rid = RingId::from_index(rings_.size());
    rings_.push_back(Ring{rid, {}, true});
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (plan[i].victim.valid() && sessions_[plan[i].victim.value].active) {
      // True preemptions displace an unrelated transfer; upgrades merely
      // restart the same request as an exchange (not counted).
      if (plan[i].upload == PlanItem::Upload::kPreempt)
        ++counters_.preemptions;
      end_session(plan[i].victim, SessionEnd::kPreempted);
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    const RingLink& link = proposal.links[i];
    Peer& x = peers_[link.provider.value];
    IrqEntry* e = x.irq.find(RequestKey{link.requester, link.object});
    if (e == nullptr) {
      P2PEX_INVARIANT(plan[i].create_entry);
      const Peer& y = peers_[link.requester.value];
      const DownloadId want = find_pending(y, link.object);
      P2PEX_INVARIANT(want.valid());
      Download& d = downloads_[want.value];
      IrqEntry fresh;
      fresh.requester = link.requester;
      fresh.object = link.object;
      fresh.download = d.id;
      fresh.enqueue_time = sim_.now();
      fresh.request_time = d.issue_time;
      const bool added = x.irq.add(fresh);
      P2PEX_INVARIANT_MSG(added, "IRQ filled during token walk");
      e = x.irq.find(RequestKey{link.requester, link.object});
      // The closing provider came off the download's discovered list
      // (that is what makes the link closable), so the flag column can
      // always represent it.
      set_registered(d, link.provider);
      touch_graph(link.provider, RowKind::kEdges);  // ring-closing entry
    }
    const SessionId sid =
        start_session(link.provider, *e, rid, static_cast<std::uint8_t>(n));
    rings_[rid.value].sessions.push_back(sid);
  }

  ++counters_.rings_formed;
  ++counters_.rings_by_size[std::min<std::size_t>(n, 8)];
  hist_ring_size_->record(n);
  return true;
}

bool System::upload_capacity_available(const Peer& p) const {
  if (p.free_upload_slots() > 0) return true;
  if (!cfg_.preemption) return false;
  for (const SessionId sid : p.uploads)
    if (!sessions_[sid.value].ring.valid()) return true;
  return false;
}

IrqEntry* System::pick_non_exchange(Peer& provider) {
  IrqEntry* best = nullptr;
  double best_score = -1.0;
  for (IrqEntry& e : provider.irq.entries()) {
    if (e.state != RequestState::kQueued) continue;
    const Peer& req = peers_[e.requester.value];
    if (!req.online || req.free_download_slots() < 1) continue;
    // Fault gates (always pass with the model off; see try_form_ring).
    if (!faults_.reachable(provider.id, e.requester)) continue;
    if (fault_holdoff_active(downloads_[e.download.value])) continue;
    P2PEX_INVARIANT_MSG(provider.storage.contains(e.object),
                     "IRQ entry for an object not stored");
    switch (cfg_.scheduler) {
      case SchedulerKind::kFifo:
        return &e;  // entries iterate in arrival order
      case SchedulerKind::kCredit: {
        const double score = provider.credit.queue_rank(
            e.requester, sim_.now() - e.enqueue_time);
        if (score > best_score) {
          best_score = score;
          best = &e;
        }
        break;
      }
      case SchedulerKind::kParticipation: {
        const double score = req.participation.claimed_level();
        if (score > best_score) {
          best_score = score;
          best = &e;
        }
        break;
      }
    }
  }
  return best;
}

void System::fill_free_slots(PeerId pid) {
  Peer& p = peers_[pid.value];
  if (!p.online || !p.shares) return;
  while (p.free_upload_slots() > 0) {
    IrqEntry* e = pick_non_exchange(p);
    if (e == nullptr) break;
    start_session(pid, *e, RingId{}, 0);
  }
}

}  // namespace p2pex
