// Fault-model mechanics: injected transfer failures with retry/backoff,
// late lookup retraction after crashes, one-shot session kills and
// peer-id-space partitions. The crash primitive itself lives with the
// other population dynamics (system_dynamics.cpp); the draw source and
// runtime fault state live in fault/injector.h.
//
// Everything here is inert at the default FaultConfig: no events are
// scheduled, no injector draws are consumed, and a run without faults
// stays bit-identical to one built before the fault model existed.
#include <algorithm>
#include <cmath>
#include <vector>

#include "core/system.h"
#include "util/assert.h"
#include "util/contracts.h"

namespace p2pex {

void System::arm_session_fault(SessionId sid) {
  if (faults_.session_fault_rate() <= 0.0 || finished_) return;
  // The draw happens now (coordinator, creation order) so the fault
  // schedule is bit-identical at every thread count.
  const std::uint64_t seq = sessions_[sid.value].seq;
  sim_.schedule_in(faults_.draw_session_lifetime(),
                   [this, sid, seq] { on_session_fault(sid, seq); });
}

void System::on_session_fault(SessionId sid, std::uint64_t seq) {
  if (finished_) return;
  // The draw belongs to a fault window; if the process is off by the
  // time it fires (window closed), the failure never happens.
  if (faults_.session_fault_rate() <= 0.0) return;
  const Session& s = sessions_[sid.value];
  if (!s.active || s.seq != seq) return;  // ended; row may be recycled
  fail_session(sid);
  drain_dirty();
}

void System::fail_session(SessionId sid) {
  Session& s = sessions_[sid.value];
  P2PEX_INVARIANT(s.active);
  ++counters_.sessions_failed;
  Download& d = download(s.download);
  ++d.fault_attempts;
  if (d.fault_attempts <= cfg_.faults.retry.max_attempts) {
    // Exponential backoff with deterministic jitter: while the holdoff
    // runs, both schedulers skip the download's requests.
    ++counters_.transfer_retries;
    const SimTime holdoff = faults_.draw_retry_holdoff(d.fault_attempts);
    d.retry_until = sim_.now() + holdoff;
    const DownloadId did = d.id;
    const std::uint64_t dseq = d.seq;
    sim_.schedule_in(holdoff,
                     [this, did, dseq] { on_retry_expired(did, dseq); });
  } else {
    // Past the attempt cap: graceful degradation — no further holdoff,
    // the request waits in the ordinary queues like any other. Counted
    // once, at the first fault beyond the cap.
    if (d.fault_attempts == cfg_.faults.retry.max_attempts + 1)
      ++counters_.retry_exhausted;
    d.retry_until = 0.0;
  }
  end_session(sid, SessionEnd::kTransferFault, /*lossy=*/true);
}

void System::on_retry_expired(DownloadId did, std::uint64_t seq) {
  if (finished_) return;
  Download& d = downloads_[did.value];
  if (!d.active || d.seq != seq) return;  // gone; row may be recycled
  if (fault_holdoff_active(d)) return;    // a later fault extended it
  d.retry_until = 0.0;
  // The parked entries are eligible again: wake the registered
  // providers (ascending order) and the requester's own scheduling.
  for (PeerId provider : registered_sorted(d)) mark_dirty(provider);
  mark_dirty(d.peer);
  drain_dirty();
}

void System::schedule_stale_retraction(PeerId pid) {
  const double ttl = cfg_.faults.stale_lookup_ttl;
  if (ttl <= 0.0) {
    // Lookup ownership is not snapshot-visible: it only shapes future
    // query() results, and the crashed peer (offline) has no graph rows.
    lookup_remove_peer(pid);  // p2pex-lint: no-graph-effect (lookup state feeds discovery, not the snapshot)
    return;
  }
  sim_.schedule_in(ttl, [this, pid] {
    // Retract only if the peer is still down: a rejoin re-registered
    // its storage, and removing now would erase live ownership.
    if (!peers_[pid.value].online)
      lookup_remove_peer(pid);  // p2pex-lint: no-graph-effect (see above; offline peer has no rows)
  });
}

void System::set_fault_rates(double session_fault_rate, double lookup_loss) {
  faults_.set_session_fault_rate(session_fault_rate);
  faults_.set_lookup_loss(lookup_loss);
  if (session_fault_rate <= 0.0 || finished_) return;
  // A window opening mid-run arms the sessions already in flight (new
  // ones arm at start), in creation order so the injector's draw
  // sequence is deterministic. Re-arming across back-to-back windows is
  // harmless: stale events are dropped by the seq/active guards, and at
  // most one failure fires per session.
  std::vector<SessionId> active;
  for (const Session& s : sessions_)
    if (s.active) active.push_back(s.id);
  std::sort(active.begin(), active.end(), [this](SessionId a, SessionId b) {
    return sessions_[a.value].seq < sessions_[b.value].seq;
  });
  for (SessionId sid : active) arm_session_fault(sid);
}

void System::kill_sessions(double fraction, Rng& rng) {
  P2PEX_ASSERT_MSG(fraction >= 0.0 && fraction <= 1.0,
                   "kill fraction out of [0, 1]");
  if (fraction <= 0.0) return;
  std::vector<SessionId> active;
  for (const Session& s : sessions_)
    if (s.active) active.push_back(s.id);
  const auto by_seq = [this](SessionId a, SessionId b) {
    return sessions_[a.value].seq < sessions_[b.value].seq;
  };
  std::sort(active.begin(), active.end(), by_seq);
  const auto kills = static_cast<std::size_t>(
      std::llround(fraction * static_cast<double>(active.size())));
  std::vector<SessionId> chosen = rng.sample(active, kills);
  std::sort(chosen.begin(), chosen.end(), by_seq);
  for (SessionId sid : chosen)
    if (sessions_[sid.value].active)  // an earlier kill's ring cascade
      fail_session(sid);              // may already have taken this one
  drain_dirty();
}

void System::set_partition(std::uint32_t split) {
  P2PEX_ASSERT_MSG(split == 0 || split < peers_.size(),
                   "partition split beyond the peer-id space");
  if (faults_.partition_split() == split) return;
  faults_.set_partition(split);
  bump_world_epoch();  // reachability answers changed
  // Reachability shapes every edge/closure/want row: full invalidation.
  touch_graph();
  if (split != 0) {
    // Cut every active cross-partition session, oldest first; ring
    // cascades (kRingCollapsed) may take same-side members with them.
    std::vector<SessionId> cut;
    for (const Session& s : sessions_)
      if (s.active && !faults_.reachable(s.provider, s.requester))
        cut.push_back(s.id);
    std::sort(cut.begin(), cut.end(), [this](SessionId a, SessionId b) {
      return sessions_[a.value].seq < sessions_[b.value].seq;
    });
    for (SessionId sid : cut) {
      if (!sessions_[sid.value].active) continue;  // a cascade got it
      ++counters_.partition_collapses;
      end_session(sid, SessionEnd::kPartitioned, /*lossy=*/true);
    }
  } else {
    // Healed: every provider with queued work re-examines its queue —
    // cross-side entries are eligible again.
    for (const PeerId p : scan_peers(+[](const Peer& p) {
           return p.online && p.shares && !p.irq.empty();
         }))
      mark_dirty(p);
  }
  drain_dirty();
}

}  // namespace p2pex
