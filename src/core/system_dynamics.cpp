// Runtime population dynamics: peer churn (join/leave), sharing flips,
// flash-crowd demand spikes and mid-run policy/scheduler changes. These
// are the System-side primitives the scenario Driver applies when it
// executes a timeline (src/scenario/driver.h).
#include <vector>

#include "core/system.h"
#include "util/assert.h"

namespace p2pex {

void System::retract_service(Peer& p, SessionEnd reason, bool lossy) {
  P2PEX_ASSERT_MSG(!p.online || !p.shares,
                   "retracting service from a live sharing peer");
  // End every upload this peer is serving; rings it participates in
  // collapse as a unit (end_session handles that).
  {
    std::vector<SessionId>& uploads = acquire_session_scratch();
    uploads.assign(p.uploads.begin(), p.uploads.end());
    for (SessionId sid : uploads)
      if (sessions_[sid.value].active) end_session(sid, reason, lossy);
    release_session_scratch();
  }

  if (p.irq.empty()) return;
  touch_graph(p.id, RowKind::kEdges);  // queued requests here disappear
  // All sessions at p just ended, so every remaining entry is queued;
  // drop them and starve-out downloads that lost their last provider.
  std::vector<std::pair<RequestKey, DownloadId>> dropped;
  for (const IrqEntry& e : p.irq.entries()) {
    P2PEX_ASSERT_MSG(e.state == RequestState::kQueued,
                     "active entry after ending all uploads");
    dropped.emplace_back(RequestKey{e.requester, e.object}, e.download);
  }
  std::vector<DownloadId> starved;
  for (const auto& [key, did] : dropped) {
    p.irq.remove(key);
    Download& d = download(did);
    clear_registered(d, p.id);
    if (d.active && d.reg_count == 0 && d.sessions.empty())
      starved.push_back(did);
  }
  for (DownloadId did : starved) cancel_download(did);
}

void System::peer_leave(PeerId pid) {
  Peer& p = peer_mut(pid);
  if (!p.online) return;
  set_online(p, false);
  ++counters_.peer_departures;
  touch_graph(pid, RowKind::kBoth);  // its own rows vanish
  touch_watchers(pid);  // roots that discovered it lose a closer

  // Leave the lookup index FIRST: dropping the queue below makes starved
  // requesters re-issue immediately, and they must not rediscover the
  // departing peer.
  lookup_remove_peer(pid);

  // Withdraw its own in-flight downloads (ends the sessions feeding
  // them and unregisters them at every provider).
  for (DownloadId did : std::vector<DownloadId>(p.pending_list))
    cancel_download(did, /*starved=*/false);

  // Stop serving: end uploads, drop the queue.
  retract_service(p);
  drain_dirty();
}

void System::peer_crash(PeerId pid) {
  Peer& p = peer_mut(pid);
  if (!p.online) return;
  set_online(p, false);
  ++counters_.peer_crashes;
  // A crash is a departure for population accounting (peer_join brings
  // the peer back either way); the crash counter tells them apart.
  ++counters_.peer_departures;
  touch_graph(pid, RowKind::kBoth);  // its own rows vanish
  touch_watchers(pid);  // roots that discovered it lose a closer

  // Unlike peer_leave, the lookup index does NOT hear about the failure:
  // the dead peer's entries linger for faults.stale_lookup_ttl seconds
  // (late retraction), so searches in that window can still propose the
  // dead provider — registrations there are wasted (stale_proposals).
  schedule_stale_retraction(pid);

  // Its in-flight downloads die abruptly: the sessions feeding them
  // lose their uncommitted bytes.
  for (DownloadId did : std::vector<DownloadId>(p.pending_list))
    cancel_download(did, /*starved=*/false, SessionEnd::kPeerCrash,
                    /*lossy=*/true);

  // Stop serving, lossily: uploads die as kPeerCrash (rings the peer
  // was in collapse as a unit), queued requests at it drop.
  retract_service(p, SessionEnd::kPeerCrash, /*lossy=*/true);
  drain_dirty();
}

void System::peer_join(PeerId pid) {
  Peer& p = peer_mut(pid);
  if (p.online) return;
  set_online(p, true);
  ++counters_.peer_arrivals;
  touch_graph(pid, RowKind::kBoth);
  touch_watchers(pid);  // roots that discovered it regain a closer
  if (p.shares)
    for (ObjectId o : p.storage.objects()) lookup_add_owner(o, pid);
  issue_requests(pid);
  mark_dirty(pid);
  drain_dirty();
}

void System::set_sharing(PeerId pid, bool shares) {
  Peer& p = peer_mut(pid);
  if (p.shares == shares) return;
  p.shares = shares;
  ++counters_.sharing_flips;
  touch_graph(pid, RowKind::kBoth);  // turning off drops its queue
  touch_watchers(pid);  // provider eligibility feeds roots' closures/wants
  if (shares) {
    ++num_sharing_;
    if (p.online) {
      for (ObjectId o : p.storage.objects()) lookup_add_owner(o, pid);
      mark_dirty(pid);
    }
  } else {
    P2PEX_ASSERT(num_sharing_ > 0);
    --num_sharing_;
    // Index first (see peer_leave): starved requesters re-issue inside
    // retract_service and must not rediscover this peer.
    lookup_remove_peer(pid);
    retract_service(p);
  }
  drain_dirty();
}

void System::set_demand_spike(CategoryId category, double weight) {
  P2PEX_ASSERT_MSG(weight >= 0.0 && weight <= 1.0,
                   "demand-spike weight out of [0, 1]");
  P2PEX_ASSERT_MSG(weight == 0.0 || category.value < catalog_.num_categories(),
                   "demand-spike category beyond the catalog");
  spike_category_ = category;
  spike_weight_ = weight;
}

void System::set_policy(ExchangePolicy policy, std::size_t max_ring_size) {
  if (max_ring_size < 2 && policy != ExchangePolicy::kNoExchange)
    throw ConfigError("max_ring_size must be >= 2 when exchanges are enabled");
  cfg_.policy = policy;
  cfg_.max_ring_size = max_ring_size;
  finder_.set_policy(policy, max_ring_size);
  // Deeper rings need deeper summaries; rebuild immediately (a changed
  // ring cap changes the level count, so no incremental refresh applies)
  // rather than waiting out the periodic sweep.
  if (cfg_.tree_mode == TreeMode::kBloom && started_) {
    bloom_all_dirty_ = true;
    refresh_bloom_summaries();
  }
  for (const PeerId p : scan_peers(+[](const Peer& p) {
         return p.online && p.shares && !p.irq.empty();
       }))
    mark_dirty(p);
  drain_dirty();
}

void System::set_scheduler(SchedulerKind scheduler) {
  cfg_.scheduler = scheduler;
  for (const PeerId p : scan_peers(+[](const Peer& p) {
         return p.online && p.shares && !p.irq.empty();
       }))
    mark_dirty(p);
  drain_dirty();
}

}  // namespace p2pex
