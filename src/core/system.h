// The file-sharing system simulation (paper Section IV).
//
// Owns the virtual clock, the peer population, the content catalog, the
// lookup service, the exchange machinery and the metrics pipeline, and
// wires them into the closed-loop workload of the paper: every peer keeps
// `max_pending` object downloads outstanding, requests register in
// provider IRQs, providers give absolute priority to exchange transfers
// (discovered via ring search over the request graph) and serve
// non-exchange requests only with spare slots, preempting them when a new
// exchange becomes possible.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "catalog/catalog.h"
#include "core/config.h"
#include "core/entities.h"
#include "core/exchange_finder.h"
#include "core/lookup.h"
#include "core/population.h"
#include "core/provider_arena.h"
#include "discovery/lookup_backend.h"
#include "fault/injector.h"
#include "metrics/collector.h"
#include "obs/metrics_registry.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace p2pex {

/// Event counters exposed for benches and tests.
struct SystemCounters {
  std::uint64_t requests_issued = 0;
  std::uint64_t lookup_failures = 0;     ///< lookups that found no owner
  std::uint64_t downloads_completed = 0;
  std::uint64_t downloads_starved = 0;   ///< lost every provider; reissued
  std::uint64_t rings_formed = 0;
  std::uint64_t ring_attempts = 0;       ///< token walks started
  std::uint64_t ring_rejects = 0;        ///< token walks that failed
  std::uint64_t rings_by_size[9] = {};   ///< index = ring size (2..8)
  std::uint64_t preemptions = 0;         ///< non-exchange sessions displaced
  std::uint64_t sessions_started = 0;
  // --- population dynamics (scenario timelines) ---
  std::uint64_t peer_departures = 0;     ///< peer_leave() applications
  std::uint64_t peer_arrivals = 0;       ///< peer_join() applications
  std::uint64_t sharing_flips = 0;       ///< set_sharing() state changes
  std::uint64_t downloads_withdrawn = 0; ///< cancelled by requester churn
  // --- graph-snapshot maintenance (see System::graph_snapshot) ---
  std::uint64_t snapshot_rebuilds = 0;   ///< full from-scratch builds
  std::uint64_t snapshot_patches = 0;    ///< dirty-row delta builds
  std::uint64_t dirty_rows_patched = 0;  ///< rows rewritten across patches
  std::uint64_t snapshot_build_ns = 0;   ///< cumulative build+patch wall time
  // --- entity-table row recycling (capacity accounting; deterministic
  // like every other counter here) ---
  std::uint64_t download_rows_reused = 0;
  std::uint64_t session_rows_reused = 0;
  std::uint64_t ring_rows_reused = 0;
  // --- fault injection (src/fault; scenario crash/faults/partition
  // events). All zero when the fault model is off. ---
  std::uint64_t peer_crashes = 0;         ///< peer_crash() applications
  std::uint64_t sessions_failed = 0;      ///< injected transfer faults
  std::uint64_t transfer_retries = 0;     ///< retry holdoffs scheduled
  std::uint64_t retry_exhausted = 0;      ///< downloads past the attempt cap
  std::uint64_t stale_proposals = 0;      ///< dead owners served by lookup
  std::uint64_t partition_collapses = 0;  ///< sessions cut by partitions
  // --- discovery backends (src/discovery; scenario lookup_backend
  // knob). All zero on the oracle default: it walks no hops, gossips
  // nothing and charges no wire bytes. ---
  std::uint64_t lookup_wire_bytes = 0;    ///< discovery traffic charged
  std::uint64_t gossip_rounds = 0;        ///< PEX rounds executed
  std::uint64_t dht_hops = 0;             ///< routing hops walked (all queries)
  std::uint64_t lookup_misses = 0;        ///< empty answers despite true owners
  std::uint64_t stale_entries_served = 0; ///< proposed providers not in truth
};

/// Capacity-relevant heap accounting, by subsystem (estimated from
/// container capacities — deterministic, so tests can pin budgets; the
/// capacity bench pairs it with real RSS for ground truth).
struct MemoryFootprint {
  std::size_t peer_bytes = 0;      ///< Peer structs + their heap state
  std::size_t download_bytes = 0;  ///< download table + provider arena
  std::size_t session_bytes = 0;
  std::size_t ring_bytes = 0;
  std::size_t graph_bytes = 0;     ///< snapshots, watcher index, stamps

  [[nodiscard]] std::size_t total() const {
    return peer_bytes + download_bytes + session_bytes + ring_bytes +
           graph_bytes;
  }
};

/// Search-speculation telemetry. Every field is always zero because runs
/// are serial; the struct stays because the end-to-end benchmark
/// harness (bench/e2e) reports it.
struct SpeculationStats {
  std::uint64_t passes = 0;
  std::uint64_t speculated = 0;
  std::uint64_t consumed = 0;
  std::uint64_t stale = 0;
  std::uint64_t unused = 0;
};

/// One complete simulation instance.
///
/// Privately a discovery::WorldView: the configured LookupBackend
/// observes the population (liveness, partitions) through that narrow
/// interface only — src/discovery never sees core types.
class System final : private discovery::WorldView {
 public:
  /// Validates the config and builds the initial world (peers, catalog,
  /// initial object placement). The workload starts on run().
  ///
  /// A non-empty `plan` builds a heterogeneous population instead of the
  /// homogeneous Table II draw: peers are created class by class (each
  /// class a contiguous PeerId range), and plan_size(plan) must equal
  /// config.num_peers. An empty plan reproduces the homogeneous
  /// population bit-for-bit.
  explicit System(const SimConfig& config, const PopulationPlan& plan = {});

  /// Runs the whole configured duration (idempotent: second call no-ops).
  void run();

  /// Advances to absolute simulated time `t` (must not exceed
  /// sim_duration; finalization happens only in run()).
  void run_to(SimTime t);

  [[nodiscard]] const SimConfig& config() const { return cfg_; }
  [[nodiscard]] const MetricsCollector& metrics() const { return metrics_; }
  [[nodiscard]] const SystemCounters& counters() const { return counters_; }
  [[nodiscard]] const FinderStats& finder_stats() const {
    return finder_.stats();
  }
  /// Threads the engine runs on: always 1. SimConfig::threads is
  /// accepted and validated but has no effect.
  [[nodiscard]] std::size_t threads() const { return 1; }
  /// Always zero (see SpeculationStats).
  [[nodiscard]] SpeculationStats speculation_stats() const { return {}; }
  /// The observability registry, with every scalar (SystemCounters,
  /// FinderStats, run-level collector gauges) re-published from its
  /// source-of-truth struct on each call. Histograms are registry-owned
  /// and always current. Deterministic-domain contents replay bit for
  /// bit; the timing domain does not (see obs::Domain). Implemented in
  /// system_obs.cpp.
  [[nodiscard]] const obs::MetricsRegistry& metrics_registry() const;
  [[nodiscard]] SimTime now() const { return sim_.now(); }
  [[nodiscard]] const Catalog& catalog() const { return catalog_; }
  [[nodiscard]] const LookupService& lookup() const { return lookup_; }
  /// The configured discovery backend (src/discovery; see
  /// SimConfig::discovery). The oracle default reproduces the
  /// pre-backend lookup draw for draw.
  [[nodiscard]] const discovery::LookupBackend& discovery_backend() const {
    return *backend_;
  }

  [[nodiscard]] std::size_t num_peers() const override {
    return peers_.size();
  }
  [[nodiscard]] const Peer& peer(PeerId p) const;
  [[nodiscard]] std::size_t num_sharing() const { return num_sharing_; }
  /// Whether `p` has an active download for `o` outstanding.
  [[nodiscard]] bool has_pending(PeerId p, ObjectId o) const {
    return find_pending(peer(p), o).valid();
  }

  // --- capacity accounting (entity tables recycle rows; see
  // entities.h) ---
  /// Physical table rows (live + free) — the pinned-capacity tests
  /// assert these track the live high-water mark, not cumulative churn.
  [[nodiscard]] std::size_t download_table_rows() const {
    return downloads_.size();
  }
  [[nodiscard]] std::size_t session_table_rows() const {
    return sessions_.size();
  }
  [[nodiscard]] std::size_t ring_table_rows() const { return rings_.size(); }
  [[nodiscard]] const ProviderArena& provider_arena() const {
    return disc_arena_;
  }
  /// Estimated heap footprint by subsystem (see MemoryFootprint).
  [[nodiscard]] MemoryFootprint memory_footprint() const;

  /// Invariant audit used by property tests: slot accounting matches live
  /// sessions, rings are consistent, IRQ states match sessions, download
  /// byte counts are sane. Throws AssertionError on violation.
  void check_invariants() const;

  // --- runtime population dynamics (scenario timelines; see
  // scenario::Driver). All are idempotent and keep the request graph,
  // lookup index and metrics coherent; each drains the scheduling pass
  // before returning. ---

  /// Takes a peer offline: ends every session it serves or receives,
  /// withdraws its in-flight downloads, drops the requests queued at it
  /// (starving requesters re-issue), and retracts its lookup ownership.
  /// Its storage survives for a later rejoin. No-op if already offline.
  void peer_leave(PeerId p);

  /// Brings an offline peer (back) online: re-registers its stored
  /// objects in the lookup index (sharing peers) and starts issuing
  /// requests. No-op if already online.
  void peer_join(PeerId p);

  /// Flips a peer's sharing behavior mid-run (free-rider waves). Turning
  /// sharing off ends its uploads, drops its queued requests and retracts
  /// its lookup ownership; turning it on re-registers its storage.
  void set_sharing(PeerId p, bool shares);

  /// Flash-crowd demand spike: every subsequent request is drawn from
  /// `category` with probability `weight` (otherwise from the peer's own
  /// interest profile). weight = 0 clears the spike; with no spike the
  /// request stream is untouched (bit-for-bit).
  void set_demand_spike(CategoryId category, double weight);

  /// Mid-run exchange-policy flip (also re-caps the ring size; the cap is
  /// ignored under kNoExchange). Re-examines every sharing peer.
  void set_policy(ExchangePolicy policy, std::size_t max_ring_size);

  /// Mid-run non-exchange scheduler flip. Re-examines every sharing peer.
  void set_scheduler(SchedulerKind scheduler);

  // --- fault injection (src/fault; scenario crash/faults/partition
  // events). Inert at the default FaultConfig: none of these run, no
  // fault RNG is drawn, and every existing run stays bit-identical. ---

  /// Abrupt peer crash: like peer_leave, but the failure is lossy and
  /// dirty. In-flight sessions at the peer die losing their uncommitted
  /// bytes (SessionEnd::kPeerCrash; rings it was in collapse), and the
  /// lookup index does NOT hear about the failure — the dead peer's
  /// entries linger for faults.stale_lookup_ttl seconds (late
  /// retraction), so searches in that window can still propose the dead
  /// provider. No-op if already offline.
  void peer_crash(PeerId p);

  /// Runtime override of the transfer-fault and lookup-loss processes
  /// (scenario `faults` windows). A positive session rate arms a
  /// failure draw on every already-active session (new sessions arm at
  /// start). Pass the config baselines to close a window.
  void set_fault_rates(double session_fault_rate, double lookup_loss);

  /// One-shot kill of `fraction` of the currently active sessions,
  /// sampled from `rng` (the scenario driver's per-event fork). Each
  /// victim fails as an injected transfer fault (retry machinery
  /// included); ring cascades may end more sessions than sampled.
  void kill_sessions(double fraction, Rng& rng);

  /// Installs (split > 0) or heals (split = 0) a peer-id-space
  /// partition: active cross-partition sessions end lossily
  /// (SessionEnd::kPartitioned) and discovery, non-exchange service and
  /// ring formation are confined to each side until healed.
  void set_partition(std::uint32_t split);

  [[nodiscard]] const fault::FaultInjector& fault_injector() const {
    return faults_;
  }

  // --- request-graph views ---
  /// CSR snapshot of the request graph the ring search walks, maintained
  /// lazily from the dirty-peer set (see touch_graph(PeerId)): peers
  /// whose rows mutated since the last read are re-derived in place
  /// (GraphSnapshot patch path); everything else is reused untouched. A
  /// whole-population invalidation (argless touch_graph(), first read,
  /// or a dirty set covering most of the population) falls back to a
  /// full rebuild. Single-threaded: the returned reference is
  /// invalidated by the next state mutation.
  [[nodiscard]] const GraphSnapshot& graph_snapshot() const;

  /// Full snapshot rebuilds performed so far — rare once the run is
  /// warm (first read + whole-population events).
  [[nodiscard]] std::uint64_t snapshot_rebuilds() const {
    return counters_.snapshot_rebuilds;
  }
  /// Dirty-row delta builds performed so far — at most one per mutation
  /// epoch, however many searches a sweep runs against it.
  [[nodiscard]] std::uint64_t snapshot_patches() const {
    return counters_.snapshot_patches;
  }

  // Naive per-call reference implementations of the same three facts.
  // The snapshot builder must agree with these on any reachable state;
  // tests audit that equivalence (test_graph_snapshot.cpp).
  [[nodiscard]] std::vector<PeerId> requesters_of(PeerId provider) const;
  [[nodiscard]] ObjectId request_between(PeerId provider,
                                         PeerId requester) const;
  [[nodiscard]] std::vector<ObjectId> close_objects(PeerId root,
                                                    PeerId provider) const;
  [[nodiscard]] std::vector<std::pair<ObjectId, std::vector<PeerId>>>
  want_providers(PeerId root) const;

  /// Mean full-request-tree wire size over sharing peers right now
  /// (Section V cost accounting; used by the Bloom ablation).
  [[nodiscard]] double mean_request_tree_bytes() const;
  /// Mean Bloom-summary wire size (0 unless TreeMode::kBloom).
  [[nodiscard]] double mean_bloom_summary_bytes() const;

 private:
  // --- construction ---
  void build_peers(const PopulationPlan& plan);
  void place_initial_objects();

  // --- discovery backend plumbing (system_discovery.cpp) ---
  //
  // Every lookup-index mutation goes through these wrappers so the
  // ground-truth LookupService and the configured backend stay in
  // lockstep (the oracle ignores the backend half; PEX/DHT maintain
  // their own decentralized state and charge wire costs, drained into
  // SystemCounters after every interaction).
  /// Builds backend_ from cfg_.discovery (ctor, between build_peers and
  /// place_initial_objects so initial placement publishes through it).
  void init_discovery();
  void lookup_add_owner(ObjectId o, PeerId p);
  void lookup_remove_owner(ObjectId o, PeerId p);
  void lookup_remove_peer(PeerId p);
  /// Moves the backend's accrued DiscoveryCosts into counters_.
  void drain_discovery_costs();

  // discovery::WorldView (what backends may observe; num_peers() is the
  // public accessor above).
  [[nodiscard]] bool peer_online(PeerId p) const override;
  [[nodiscard]] std::uint32_t component(PeerId p) const override;
  /// The only writer of Peer::online: flips it and bumps the world
  /// epoch, so backends' liveness caches see every flip (WorldView
  /// epoch contract). set_partition bumps the epoch too.
  void set_online(Peer& p, bool online);

  // --- workload ---
  void issue_requests(PeerId p);
  bool issue_one_request(PeerId p);
  /// Withdraws an in-flight download (ends its sessions, unregisters it
  /// everywhere). `starved` distinguishes provider starvation (counted,
  /// requester re-issues) from requester-side withdrawal (churn).
  /// `reason`/`lossy` label the session teardown (crashes end lossily
  /// with kPeerCrash; every pre-fault caller keeps the defaults).
  void cancel_download(DownloadId d, bool starved = true,
                       SessionEnd reason = SessionEnd::kRequesterCancelled,
                       bool lossy = false);

  /// `p`'s active download for `o` (linear scan of the bounded pending
  /// list — see Peer::pending_list); invalid id if none.
  [[nodiscard]] DownloadId find_pending(const Peer& p, ObjectId o) const;

  // --- download provider spans (ProviderArena; see entities.h) ---
  [[nodiscard]] std::span<const PeerId> discovered(const Download& d) const {
    return disc_arena_.providers(d.disc_start, d.disc_len);
  }
  [[nodiscard]] bool discovered_contains(const Download& d, PeerId p) const {
    return disc_arena_.find(d.disc_start, d.disc_len, p) != d.disc_len;
  }
  /// Flags `p` (which must be in `d`'s discovered span) as registered.
  void set_registered(Download& d, PeerId p);
  /// Clears `p`'s registered flag (no-op if not set); `p` must be in
  /// `d`'s discovered span.
  void clear_registered(Download& d, PeerId p);
  [[nodiscard]] bool is_registered(const Download& d, PeerId p) const;
  /// Registered providers in ascending id order — the deterministic
  /// iteration order cancel/complete use for IRQ removal.
  [[nodiscard]] std::vector<PeerId> registered_sorted(const Download& d) const;

  // --- entity-table allocation (freelist row recycling) ---
  /// Returns a blank active download row (recycled when one is free) with
  /// its id set; every other field is reset.
  Download& alloc_download();
  /// Returns `d`'s row (and provider span) to the freelists. Every
  /// external reference — pending list, IRQ entries, watcher index,
  /// sessions, the completion event — must already be gone.
  void release_download(Download& d);
  void release_session(SessionId sid);
  void release_ring(RingId rid);

  // --- population dynamics ---
  /// Ends every upload `p` is serving and drops every request queued at
  /// it, starving-out affected downloads. Requires the caller to have
  /// made `p` unable to serve (offline or non-sharing) first.
  /// `reason`/`lossy` label the upload teardown (crash vs graceful).
  void retract_service(Peer& p,
                       SessionEnd reason = SessionEnd::kProviderLeft,
                       bool lossy = false);

  // --- fault injection (src/fault) ---
  /// Schedules a failure draw for `sid` when the session-fault process
  /// is on (no-op, no draw, when off).
  void arm_session_fault(SessionId sid);
  /// Fires a scheduled session fault; `seq` guards against the row
  /// having been recycled since the draw.
  void on_session_fault(SessionId sid, std::uint64_t seq);
  /// Fails one session as an injected transfer fault: bumps the
  /// download's attempt count, schedules the retry holdoff (or declares
  /// exhaustion past the cap) and ends the session lossily.
  void fail_session(SessionId sid);
  /// Retry holdoff expiry: re-examines the download's providers.
  void on_retry_expired(DownloadId did, std::uint64_t seq);
  /// Late lookup retraction after a crash: removes the peer from the
  /// lookup index after faults.stale_lookup_ttl seconds unless it
  /// rejoined in the meantime.
  void schedule_stale_retraction(PeerId p);
  /// Whether `d` is inside a post-fault retry holdoff right now (always
  /// false with the fault model off — retry_until stays 0).
  [[nodiscard]] bool fault_holdoff_active(const Download& d) const {
    return d.retry_until > sim_.now();
  }

  // --- transfers (fluid model) ---
  SessionId start_session(PeerId provider, IrqEntry& entry,
                          RingId ring, std::uint8_t ring_size);
  /// `lossy` drops the bytes the session accrued since its last
  /// checkpoint (crash/fault/partition teardown loses the uncommitted
  /// tail on both sides of the byte ledger).
  void end_session(SessionId s, SessionEnd reason, bool lossy = false);
  void accrue_download(Download& d);
  void reschedule_completion(Download& d);
  void complete_download(DownloadId id);

  // --- exchange machinery ---
  void mark_dirty(PeerId p);
  void drain_dirty();
  void process_peer(PeerId p);
  bool try_form_ring(const RingProposal& proposal);
  void collapse_ring(RingId r, SessionId cause);
  void fill_free_slots(PeerId provider);
  IrqEntry* pick_non_exchange(Peer& provider);
  /// Whether `p` could start one more upload right now: a free slot, or
  /// (with preemption on) a reclaimable non-exchange upload.
  [[nodiscard]] bool upload_capacity_available(const Peer& p) const;
  /// Ring search rooted at `root` over the current snapshot, recording
  /// its nodes visited in the search-hops histogram.
  std::vector<RingProposal> ring_candidates(PeerId root);

  // --- maintenance ---
  void eviction_sweep();
  void search_sweep();
  void finalize();

  /// Ids of the peers matching `pred`, ascending; the returned
  /// reference is scratch, valid until the next scan.
  using PeerPred = bool (*)(const Peer&);
  const std::vector<PeerId>& scan_peers(PeerPred pred);

  // --- graph-snapshot cache ---
  /// Records that `p`'s snapshot rows (its request edges as provider,
  /// its closures/wants as root) may have changed. Every mutation site
  /// must mark exactly the peers whose rows moved; the next
  /// graph_snapshot() read patches those rows only.
  void touch_graph(PeerId p);
  /// Whole-population invalidation (rare events only): the next read
  /// rebuilds the snapshot — and, in Bloom mode, the summaries — from
  /// scratch.
  void touch_graph() {
    graph_all_dirty_ = true;
    bloom_all_dirty_ = true;
  }
  /// Marks every root whose closure/want rows depend on `provider`
  /// (roots with a pending download that discovered it) dirty. Call
  /// when the provider's closer eligibility moved: online/sharing flips
  /// and storage content changes.
  void touch_watchers(PeerId provider);
  /// Registers/unregisters `d.peer` as a watcher of every provider in
  /// `d`'s discovered span, keeping the touch_watchers() reverse index
  /// in sync with the download table. O(|discovered|): each entry
  /// carries a back-reference into the span's watch-slot column so
  /// removal is a swap-and-pop, not a scan of watcher lists (which grow
  /// with crowd size at popular providers).
  void watch_providers(Download& d);
  void unwatch_providers(Download& d);
  /// Rebuilds (full) or refreshes (dirty Bloom levels only) the
  /// finder's summaries to the current graph. kBloom mode only.
  void refresh_bloom_summaries();
  /// From-scratch snapshot derivation (into `snap`), and the shared
  /// per-peer row builder the patch path reuses.
  void rebuild_snapshot_into(GraphSnapshot& snap) const;
  void build_peer_rows(const Peer& p, GraphSnapshot& snap) const;

  [[nodiscard]] Peer& peer_mut(PeerId p);
  [[nodiscard]] Download& download(DownloadId d);
  [[nodiscard]] Session& session(SessionId s);

  SimConfig cfg_;
  Rng rng_;
  Simulator sim_;
  Catalog catalog_;
  LookupService lookup_;
  ExchangeFinder finder_;
  MetricsCollector metrics_;

  std::vector<Peer> peers_;
  std::vector<Download> downloads_;
  std::vector<Session> sessions_;
  std::vector<Ring> rings_;
  /// Discovered-provider spans of every download (see provider_arena.h).
  ProviderArena disc_arena_;
  // Recycled table rows (LIFO: the hottest row is reused first).
  std::vector<DownloadId> free_downloads_;
  std::vector<SessionId> free_sessions_;
  std::vector<RingId> free_rings_;
  /// Session creation sequence (see Session::seq).
  std::uint64_t next_session_seq_ = 0;
  /// Download creation sequence (see Download::seq).
  std::uint64_t next_download_seq_ = 0;

  /// Fault-model state + draw stream (src/fault; inert at defaults).
  fault::FaultInjector faults_;

  /// The configured discovery backend (init_discovery; never null after
  /// construction). Oracle by default — zero extra state, zero events.
  std::unique_ptr<discovery::LookupBackend> backend_;

  // --- session-id scratch (collapse/complete/cancel teardown loops) ---
  /// Borrows a cleared scratch vector for copying a session list that
  /// end_session will mutate while the caller iterates it. Depth-indexed
  /// pool because those loops nest (complete_download -> end_session ->
  /// collapse_ring); a deque so outer frames' references survive pool
  /// growth. Rows keep their capacity, so steady-state teardown
  /// allocates nothing (BM_ChurnedSearch pins this).
  std::vector<SessionId>& acquire_session_scratch();
  void release_session_scratch();
  std::deque<std::vector<SessionId>> session_scratch_pool_;
  std::size_t session_scratch_depth_ = 0;

  // Lazily maintained request-graph snapshot (mutable: building is
  // caching, not observable state; the simulation is single-threaded).
  mutable GraphSnapshot snapshot_;
  mutable bool snapshot_built_ = false;
  mutable std::vector<std::uint64_t> snap_seen_;  ///< builder dedupe marks
  mutable std::uint64_t snap_seen_stamp_ = 0;
  mutable std::vector<PeerId> snap_providers_;    ///< builder sort scratch
  /// From-scratch shadow rebuilt after every patch under
  /// P2PEX_SNAPSHOT_AUDIT to cross-check the delta path (unused, but
  /// kept unconditionally so the layout never depends on the macro).
  mutable GraphSnapshot audit_snapshot_;

  // Dirty-peer delta tracking (stamp-keyed dedupe; the list is the
  // patch worklist). Mutable: the const graph_snapshot() read consumes
  // and clears it.
  mutable std::vector<PeerId> graph_dirty_;
  mutable std::vector<std::uint64_t> graph_dirty_stamp_;
  mutable std::uint64_t graph_dirty_epoch_ = 1;
  mutable bool graph_all_dirty_ = true;
  // Rows touched since the last Bloom summary refresh (kBloom mode;
  // consumed by refresh_bloom_summaries on the periodic sweep).
  std::vector<PeerId> bloom_dirty_;
  std::vector<std::uint64_t> bloom_dirty_stamp_;
  std::uint64_t bloom_dirty_epoch_ = 1;
  bool bloom_all_dirty_ = true;
  /// One watcher-list entry: `root`'s download `download` discovered
  /// this provider; `ordinal` is the entry's offset within the
  /// download's discovered span (so a swap-and-pop removal can fix the
  /// moved entry's back-reference in O(1)).
  struct WatchEntry {
    PeerId root;
    DownloadId download;
    std::uint32_t ordinal;
  };
  /// watchers_[p] = downloads whose roots discovered p (multiset as a
  /// flat list; one entry per watching download).
  std::vector<std::vector<WatchEntry>> watchers_;

  std::set<PeerId> dirty_;
  bool draining_ = false;
  bool started_ = false;
  bool finished_ = false;
  std::size_t num_sharing_ = 0;

  std::vector<PeerId> scan_out_;  ///< scan_peers scratch
  // Flash-crowd demand override (set_demand_spike); weight 0 = inactive.
  CategoryId spike_category_;
  double spike_weight_ = 0.0;
  // Mutable: the snapshot-maintenance stats are incremented by the
  // const, caching graph_snapshot() read.
  mutable SystemCounters counters_;

  // --- observability (system_obs.cpp) ---
  /// Scalar metrics are published into the registry lazily by
  /// metrics_registry(); histograms are recorded live through the
  /// handles below (registered once at construction — registry
  /// references are stable). Mutable for the same reason as counters_:
  /// const read paths (graph_snapshot) contribute observations.
  mutable obs::MetricsRegistry registry_;
  obs::Histogram* hist_search_hops_ = nullptr;   ///< nodes visited per search
  obs::Histogram* hist_ring_size_ = nullptr;     ///< peers per formed ring
  obs::Histogram* hist_dirty_rows_ = nullptr;    ///< rows per snapshot patch
  obs::Histogram* hist_provider_span_ = nullptr; ///< providers per lookup
  obs::Histogram* hist_wait_ms_ = nullptr;       ///< request->start wait (ms)
  /// Registers the histograms above and any construction-time metrics.
  void init_observability();
};

}  // namespace p2pex
