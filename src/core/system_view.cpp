// Request-graph views of the live System: the CSR GraphSnapshot the ring
// search walks (dirty-peer delta maintenance + the from-scratch rebuild
// it falls back to) plus the naive per-call reference accessors it is
// audited against, Section V wire-cost accounting, and the invariant
// audit used by property tests.
#include <algorithm>

#include "core/system.h"
#include "obs/trace.h"
#include "proto/request_tree.h"
#include "util/assert.h"
#include "util/contracts.h"

namespace p2pex {

void System::touch_graph(PeerId p, RowKind rows) {
  if (!graph_all_dirty_) {
    RowKind& dirty = graph_dirty_rows_[p.value];
    if (dirty == RowKind::kNone) graph_dirty_.push_back(p);
    dirty = dirty | rows;
  }
  if (cfg_.tree_mode == TreeMode::kBloom && !bloom_all_dirty_ &&
      bloom_dirty_stamp_[p.value] != bloom_dirty_epoch_) {
    bloom_dirty_stamp_[p.value] = bloom_dirty_epoch_;
    bloom_dirty_.push_back(p);
  }
}

void System::touch_watchers(PeerId provider) {
  for (const WatchEntry& e : watchers_[provider.value])
    touch_graph(e.root, RowKind::kRoot);
}

void System::watch_providers(Download& d) {
  P2PEX_INVARIANT_MSG(!d.watched, "watch without a matching unwatch");
  const std::span<const PeerId> provs = discovered(d);
  for (std::uint32_t ordinal = 0; ordinal < d.disc_len; ++ordinal) {
    std::vector<WatchEntry>& w = watchers_[provs[ordinal].value];
    disc_arena_.set_watch_slot(d.disc_start + ordinal,
                               narrow_u32(w.size()));
    w.push_back(WatchEntry{d.peer, d.id, ordinal});
  }
  d.watched = true;
}

void System::unwatch_providers(Download& d) {
  P2PEX_INVARIANT_MSG(d.watched, "unwatch without a matching watch");
  const std::span<const PeerId> provs = discovered(d);
  for (std::uint32_t ordinal = 0; ordinal < d.disc_len; ++ordinal) {
    std::vector<WatchEntry>& w = watchers_[provs[ordinal].value];
    const std::uint32_t slot = disc_arena_.watch_slot(d.disc_start + ordinal);
    P2PEX_INVARIANT_MSG(slot < w.size() && w[slot].download == d.id,
                     "watcher back-reference broken");
    w[slot] = w.back();  // order-free multiset: swap-and-pop
    w.pop_back();
    if (slot < w.size()) {  // fix the moved entry's back-reference
      const WatchEntry& moved = w[slot];
      disc_arena_.set_watch_slot(
          downloads_[moved.download.value].disc_start + moved.ordinal, slot);
    }
  }
  d.watched = false;
}

const GraphSnapshot& System::graph_snapshot() const {
  if (snapshot_built_ && !graph_all_dirty_ && graph_dirty_.empty())
    return snapshot_;
  // Patch only when the dirty set is a clear minority of the rows —
  // rewriting most of the graph row by row (plus its patch slack) costs
  // more than one contiguous rebuild.
  [[maybe_unused]] bool patched = false;
  if (!snapshot_built_ || graph_all_dirty_ ||
      graph_dirty_.size() * 2 >= peers_.size()) {
    P2PEX_TRACE_SPAN("snapshot.rebuild", "snapshot");
    rebuild_snapshot_into(snapshot_);
    ++counters_.snapshot_rebuilds;
  } else {
    P2PEX_TRACE_SPAN("snapshot.patch", "snapshot");
    snapshot_.begin_patch();
    for (const PeerId p : graph_dirty_) {
      const RowKind rows = graph_dirty_rows_[p.value];
      snapshot_.patch_peer(p, rows);
      build_peer_rows(peers_[p.value], rows, snapshot_);
      snapshot_.seal_peer();
    }
    snapshot_.finish_patch();
    ++counters_.snapshot_patches;
    counters_.dirty_rows_patched += graph_dirty_.size();
    hist_dirty_rows_->record(graph_dirty_.size());
    patched = true;
  }
#ifdef P2PEX_SNAPSHOT_AUDIT
  // Debug cross-check: every patched snapshot must be row-identical
  // to a from-scratch derivation of the same state. Any mutation site
  // that under-reports its dirty set fails here, at the patch that
  // went stale, instead of as downstream golden drift.
  if (patched) {
    rebuild_snapshot_into(audit_snapshot_);
    P2PEX_ASSERT_MSG(snapshot_.rows_equal(audit_snapshot_),
                     "patched snapshot diverged from a full rebuild "
                     "(missing touch_graph at a mutation site?)");
  }
#endif
  snapshot_built_ = true;
  graph_all_dirty_ = false;
  for (const PeerId p : graph_dirty_)
    graph_dirty_rows_[p.value] = RowKind::kNone;
  graph_dirty_.clear();
  return snapshot_;
}

void System::rebuild_snapshot_into(GraphSnapshot& snap) const {
  const std::size_t n = peers_.size();
  snap.begin(n);
  for (std::size_t i = 0; i < n; ++i) {
    build_peer_rows(peers_[i], RowKind::kBoth, snap);
    snap.next_peer();
  }
  snap.finish();
}

/// Emits one peer's snapshot rows of kinds `rows` (request edges as
/// provider, closures and wants as root) into the snapshot's currently
/// open peer. Shared verbatim by the full rebuild and the patch path so
/// a patched row can never diverge from a rebuilt one.
void System::build_peer_rows(const Peer& p, RowKind rows,
                             GraphSnapshot& snap) const {
  // Request edges: distinct online requesters with a usable
  // (non-ring-bound) entry, first-arrival order, labelled with the
  // oldest usable object — must match requesters_of/request_between
  // below exactly (the equivalence tests pin this).
  if (has_rows(rows, RowKind::kEdges)) {
    const std::uint64_t stamp = ++snap_seen_stamp_;
    for (const IrqEntry& e : p.irq.entries()) {
      if (e.state == RequestState::kActiveExchange) continue;  // ring-bound
      if (snap_seen_[e.requester.value] == stamp) continue;
      if (!peers_[e.requester.value].online) continue;
      // Partition confinement (no-op unpartitioned); must mirror
      // requesters_of below.
      if (!faults_.reachable(p.id, e.requester)) continue;
      snap_seen_[e.requester.value] = stamp;
      snap.add_edge(e.requester, e.object);
    }
  }
  if (!has_rows(rows, RowKind::kRoot)) return;

  // Closure facts and Bloom closer candidates of the peer as search
  // root, in issue order; the discovered span is in lookup-return
  // order, so eligible providers are sorted per download (matching
  // want_providers' sorted output, which the Bloom hit order depends
  // on).
  for (DownloadId did : p.pending_list) {
    const Download& d = downloads_[did.value];
    if (!d.active) continue;
    snap_providers_.clear();
    for (PeerId prov : discovered(d)) {
      const Peer& pr = peers_[prov.value];
      if (pr.online && pr.shares && pr.storage.contains(d.object) &&
          faults_.reachable(p.id, prov))  // mirror want_providers below
        snap_providers_.push_back(prov);
    }
    std::sort(snap_providers_.begin(), snap_providers_.end());
    for (PeerId prov : snap_providers_) {
      snap.add_want(d.object, prov);
      // Skip wants this provider is already serving us in a ring
      // (close_objects' exclusion; want_providers keeps them). The
      // download's own sessions tell, without a probe into the
      // provider's IRQ: its ring-bound entry is exactly an active ring
      // session from that provider feeding this download.
      const bool in_ring = std::any_of(
          d.sessions.begin(), d.sessions.end(), [&](SessionId sid) {
            const Session& s = sessions_[sid.value];
            return s.provider == prov && s.ring.valid();
          });
      P2PEX_INVARIANT_MSG(in_ring == ring_bound_in_irq(prov, p.id, d.object),
                          "ring exclusion disagrees with the IRQ entry state");
      if (in_ring) continue;
      snap.add_closure(prov, d.object);
    }
  }
}

void System::refresh_bloom_summaries() {
  const GraphSnapshot& snap = graph_snapshot();
  if (bloom_all_dirty_) {
    P2PEX_TRACE_SPAN("bloom.rebuild", "snapshot");
    finder_.rebuild_summaries(snap, cfg_.bloom_expected_per_level,
                              cfg_.bloom_fpp);
  } else if (!bloom_dirty_.empty()) {
    P2PEX_TRACE_SPAN("bloom.refresh", "snapshot");
    finder_.refresh_summaries(snap, bloom_dirty_,
                              cfg_.bloom_expected_per_level, cfg_.bloom_fpp);
  } else {
    // Nothing moved since the last refresh: the summaries are already
    // exactly what a rebuild would produce.
    return;
  }
  bloom_all_dirty_ = false;
  bloom_dirty_.clear();
  ++bloom_dirty_epoch_;
}

std::vector<PeerId> System::requesters_of(PeerId provider) const {
  const Peer& p = peers_[provider.value];
  std::vector<PeerId> out;
  std::vector<bool> seen(peers_.size(), false);
  for (const IrqEntry& e : p.irq.entries()) {
    if (e.state == RequestState::kActiveExchange) continue;  // ring-bound
    if (seen[e.requester.value]) continue;
    if (!peers_[e.requester.value].online) continue;
    if (!faults_.reachable(provider, e.requester)) continue;
    seen[e.requester.value] = true;
    out.push_back(e.requester);
  }
  return out;
}

ObjectId System::request_between(PeerId provider, PeerId requester) const {
  if (!faults_.reachable(provider, requester)) return ObjectId{};
  const Peer& p = peers_[provider.value];
  for (const IrqEntry& e : p.irq.entries()) {
    if (e.requester != requester) continue;
    if (e.state == RequestState::kActiveExchange) continue;
    return e.object;
  }
  return ObjectId{};
}

std::vector<ObjectId> System::close_objects(PeerId root,
                                            PeerId provider) const {
  const Peer& r = peers_[root.value];
  const Peer& prov = peers_[provider.value];
  std::vector<ObjectId> out;
  if (!prov.online || !prov.shares) return out;
  if (!faults_.reachable(root, provider)) return out;
  for (DownloadId did : r.pending_list) {
    const Download& d = downloads_[did.value];
    if (!d.active) continue;
    if (!discovered_contains(d, provider)) continue;
    if (!prov.storage.contains(d.object)) continue;
    // Skip wants this provider is already serving us in a ring.
    if (ring_bound_in_irq(provider, root, d.object)) continue;
    out.push_back(d.object);
  }
  return out;
}

bool System::ring_bound_in_irq(PeerId provider, PeerId requester,
                               ObjectId object) const {
  const IrqEntry* e =
      peers_[provider.value].irq.find(RequestKey{requester, object});
  return e != nullptr && e->state == RequestState::kActiveExchange;
}

std::vector<std::pair<ObjectId, std::vector<PeerId>>> System::want_providers(
    PeerId root) const {
  const Peer& r = peers_[root.value];
  std::vector<std::pair<ObjectId, std::vector<PeerId>>> out;
  for (DownloadId did : r.pending_list) {
    const Download& d = downloads_[did.value];
    if (!d.active) continue;
    std::vector<PeerId> providers;
    providers.reserve(d.disc_len);
    for (PeerId p : discovered(d)) {
      const Peer& prov = peers_[p.value];
      if (prov.online && prov.shares && prov.storage.contains(d.object) &&
          faults_.reachable(root, p))
        providers.push_back(p);
    }
    std::sort(providers.begin(), providers.end());
    if (!providers.empty()) out.emplace_back(d.object, std::move(providers));
  }
  return out;
}

double System::mean_request_tree_bytes() const {
  // Full-tree wire cost: the tree each sharing peer would attach to a new
  // outgoing request (its live request tree, pruned to the ring depth).
  EdgeFn edges = [this](PeerId provider) {
    std::vector<std::pair<PeerId, ObjectId>> out;
    for (const IrqEntry& e : peers_[provider.value].irq.entries())
      out.emplace_back(e.requester, e.object);
    return out;
  };
  double total = 0.0;
  std::size_t counted = 0;
  for (const Peer& p : peers_) {
    if (!p.shares || !p.online) continue;
    const RequestTree tree =
        RequestTree::build(p.id, cfg_.max_ring_size, 4096, edges);
    total += static_cast<double>(tree.serialized_size_bytes());
    ++counted;
  }
  return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

double System::mean_bloom_summary_bytes() const {
  if (cfg_.tree_mode != TreeMode::kBloom) return 0.0;
  double total = 0.0;
  std::size_t counted = 0;
  for (const Peer& p : peers_) {
    if (!p.shares || !p.online) continue;
    total += static_cast<double>(finder_.summary_wire_bytes(p.id));
    ++counted;
  }
  return counted == 0 ? 0.0 : total / static_cast<double>(counted);
}

MemoryFootprint System::memory_footprint() const {
  // Container-capacity accounting: every term derives from sizes and
  // capacities (never addresses), so the figure is deterministic and the
  // capacity tests can pin per-peer budgets on it. Hash-based members
  // (IRQ indexes, credit ledgers) are principled estimates, not
  // allocator ground truth — the capacity bench pairs this with RSS.
  MemoryFootprint f;
  f.peer_bytes = peers_.capacity() * sizeof(Peer);
  for (const Peer& p : peers_) {
    f.peer_bytes += p.storage.memory_bytes() + p.interests.memory_bytes() +
                    p.irq.memory_bytes() + p.credit.memory_bytes() +
                    p.pending_list.capacity() * sizeof(DownloadId) +
                    p.uploads.capacity() * sizeof(SessionId);
  }

  f.download_bytes = downloads_.capacity() * sizeof(Download) +
                     free_downloads_.capacity() * sizeof(DownloadId) +
                     disc_arena_.memory_bytes();
  for (const Download& d : downloads_)
    f.download_bytes += d.sessions.capacity() * sizeof(SessionId);

  f.session_bytes = sessions_.capacity() * sizeof(Session) +
                    free_sessions_.capacity() * sizeof(SessionId);
  for (const std::vector<SessionId>& buf : session_scratch_pool_)
    f.session_bytes += buf.capacity() * sizeof(SessionId);

  f.ring_bytes = rings_.capacity() * sizeof(Ring) +
                 free_rings_.capacity() * sizeof(RingId);
  for (const Ring& r : rings_)
    f.ring_bytes += r.sessions.capacity() * sizeof(SessionId);

  f.graph_bytes = snapshot_.memory_bytes() + audit_snapshot_.memory_bytes() +
                  watchers_.capacity() * sizeof(std::vector<WatchEntry>);
  for (const auto& w : watchers_)
    f.graph_bytes += w.capacity() * sizeof(WatchEntry);
  f.graph_bytes +=
      (bloom_dirty_stamp_.capacity() + snap_seen_.capacity()) *
          sizeof(std::uint64_t) +
      graph_dirty_rows_.capacity() * sizeof(RowKind);
  f.graph_bytes += (graph_dirty_.capacity() + bloom_dirty_.capacity() +
                    snap_providers_.capacity()) *
                   sizeof(PeerId);
  return f;
}

void System::check_invariants() const {
  std::vector<int> up(peers_.size(), 0);
  std::vector<int> down(peers_.size(), 0);

  for (const Session& s : sessions_) {
    if (!s.active) continue;
    ++up[s.provider.value];
    ++down[s.requester.value];
    P2PEX_ASSERT_MSG(peers_[s.provider.value].storage.contains(s.object),
                     "active session serving an unstored object");
    P2PEX_ASSERT_MSG(peers_[s.provider.value].storage.pinned(s.object),
                     "active session's object is not pinned");
    const Download& d = downloads_[s.download.value];
    P2PEX_ASSERT_MSG(d.active, "active session feeding a dead download");
    P2PEX_ASSERT_MSG(
        std::find(d.sessions.begin(), d.sessions.end(), s.id) !=
            d.sessions.end(),
        "session not listed by its download");
    const IrqEntry* e = peers_[s.provider.value].irq.find(
        RequestKey{s.requester, s.object});
    P2PEX_ASSERT_MSG(e != nullptr && e->session == s.id &&
                         e->state != RequestState::kQueued,
                     "active session without matching IRQ entry state");
    P2PEX_ASSERT_MSG(s.ring.valid() == s.type.is_exchange(),
                     "session ring/type mismatch");
  }

  for (const Peer& p : peers_) {
    P2PEX_ASSERT_MSG(p.upload_in_use == up[p.id.value],
                     "upload slot accounting drift");
    P2PEX_ASSERT_MSG(p.download_in_use == down[p.id.value],
                     "download slot accounting drift");
    P2PEX_ASSERT_MSG(p.upload_in_use <= p.upload_slots,
                     "upload capacity exceeded");
    P2PEX_ASSERT_MSG(p.download_in_use <= p.download_slots,
                     "download capacity exceeded");
    P2PEX_ASSERT_MSG(p.uploads.size() ==
                         static_cast<std::size_t>(p.upload_in_use),
                     "uploads list out of sync");
    P2PEX_ASSERT_MSG(p.pending_list.size() <= cfg_.max_pending,
                     "pending cap exceeded");
    for (const DownloadId did : p.pending_list) {
      const Download& d = downloads_[did.value];
      P2PEX_ASSERT_MSG(d.active && d.peer == p.id,
                       "pending list entry inconsistent");
      // find_pending returns the first match, so a duplicate object in
      // the list makes its second entry fail this.
      P2PEX_ASSERT_MSG(find_pending(p, d.object) == did,
                       "duplicate pending object");
    }
    for (const IrqEntry& e : p.irq.entries()) {
      P2PEX_ASSERT_MSG(p.storage.contains(e.object),
                       "IRQ entry for an unstored object");
      const Download& d = downloads_[e.download.value];
      P2PEX_ASSERT_MSG(d.active && d.peer == e.requester &&
                           d.object == e.object,
                       "IRQ entry inconsistent with its download");
    }
  }

  for (const Ring& r : rings_) {
    if (!r.active) continue;
    P2PEX_ASSERT_MSG(r.sessions.size() >= 2, "degenerate ring");
    for (SessionId sid : r.sessions) {
      const Session& s = sessions_[sid.value];
      P2PEX_ASSERT_MSG(s.active && s.ring == r.id,
                       "ring member session inconsistent");
    }
  }

  std::size_t live_disc_rows = 0;
  for (const Download& d : downloads_) {
    if (!d.active) continue;
    live_disc_rows += d.disc_len;
    P2PEX_ASSERT_MSG(d.received <= static_cast<double>(d.size) + 1.0,
                     "download overshot its size");
    const std::vector<PeerId> regs = registered_sorted(d);
    P2PEX_ASSERT_MSG(regs.size() == d.reg_count, "registered count drift");
    for (PeerId provider : regs) {
      const IrqEntry* e =
          peers_[provider.value].irq.find(RequestKey{d.peer, d.object});
      P2PEX_ASSERT_MSG(e != nullptr, "registered provider lost the entry");
    }
  }
  P2PEX_ASSERT_MSG(live_disc_rows == disc_arena_.live_rows(),
                   "provider arena live-row accounting drift");

#ifdef P2PEX_EXPENSIVE_INVARIANTS_ENABLED
  // Watcher reverse-index audit (audit builds only — O(index)): every
  // entry must point at a live watched download whose span ordinal
  // names this provider, with a round-tripping back-reference, and the
  // index must hold exactly one entry per watched span slot. A crash or
  // leave path that forgot unwatch_providers leaves a dangling entry
  // and fails here.
  std::size_t watch_entries = 0;
  for (std::size_t pv = 0; pv < watchers_.size(); ++pv) {
    const std::vector<WatchEntry>& w = watchers_[pv];
    for (std::size_t slot = 0; slot < w.size(); ++slot) {
      const WatchEntry& e = w[slot];
      const Download& d = downloads_[e.download.value];
      P2PEX_EXPENSIVE_INVARIANT_MSG(
          d.active && d.watched && d.peer == e.root,
          "watcher entry points at a dead or foreign download");
      P2PEX_EXPENSIVE_INVARIANT_MSG(e.ordinal < d.disc_len,
                                    "watcher ordinal beyond the span");
      P2PEX_EXPENSIVE_INVARIANT_MSG(
          discovered(d)[e.ordinal] == PeerId::from_index(pv),
          "watcher entry filed under the wrong provider");
      P2PEX_EXPENSIVE_INVARIANT_MSG(
          disc_arena_.watch_slot(d.disc_start + e.ordinal) == slot,
          "watcher back-reference does not round-trip");
    }
    watch_entries += w.size();
  }
  std::size_t expected_watch_entries = 0;
  for (const Download& d : downloads_)
    if (d.active && d.watched) expected_watch_entries += d.disc_len;
  P2PEX_EXPENSIVE_INVARIANT_MSG(watch_entries == expected_watch_entries,
                                "watcher index leaked or lost entries");
#endif

  P2PEX_ASSERT_MSG(metrics_.uploaded() == metrics_.downloaded(),
                   "byte conservation violated");
}

}  // namespace p2pex
