// Observability wiring: histogram registration and the lazy scalar
// publication behind System::metrics_registry().
//
// The source of truth for every scalar stays in its existing struct
// (SystemCounters, FinderStats, SpeculationStats, MetricsCollector) —
// hot paths keep bumping plain uint64 fields and pay nothing for the
// registry. metrics_registry() re-publishes those scalars on each call;
// histograms have no struct equivalent and are recorded live through
// the handles registered here.
//
// Domain placement is the contract (see obs/metrics_registry.h):
// everything under "core.", "finder." and "run." is replay-invariant
// and lands in the deterministic domain the pinned digests hash. The
// engine publishes nothing in the timing domain; wall-clock phase costs
// are the trace spans' job (obs/trace.h).
#include "core/system.h"

#include "obs/metrics_registry.h"

namespace p2pex {

void System::init_observability() {
  using obs::Domain;
  hist_search_hops_ =
      &registry_.histogram("core.search_hops", Domain::kDeterministic);
  hist_ring_size_ =
      &registry_.histogram("core.ring_size", Domain::kDeterministic);
  hist_dirty_rows_ =
      &registry_.histogram("core.dirty_rows_per_patch", Domain::kDeterministic);
  hist_provider_span_ =
      &registry_.histogram("core.provider_span_len", Domain::kDeterministic);
  hist_wait_ms_ =
      &registry_.histogram("core.session_wait_ms", Domain::kDeterministic);
}

const obs::MetricsRegistry& System::metrics_registry() const {
  using obs::Domain;
  const auto det = [&](const char* name, std::uint64_t v) {
    registry_.counter(name, Domain::kDeterministic).set(v);
  };

  const SystemCounters& c = counters_;
  det("core.requests_issued", c.requests_issued);
  det("core.lookup_failures", c.lookup_failures);
  det("core.downloads_completed", c.downloads_completed);
  det("core.downloads_starved", c.downloads_starved);
  det("core.rings_formed", c.rings_formed);
  det("core.ring_attempts", c.ring_attempts);
  det("core.ring_rejects", c.ring_rejects);
  det("core.preemptions", c.preemptions);
  det("core.sessions_started", c.sessions_started);
  det("core.peer_departures", c.peer_departures);
  det("core.peer_arrivals", c.peer_arrivals);
  det("core.sharing_flips", c.sharing_flips);
  det("core.downloads_withdrawn", c.downloads_withdrawn);
  det("core.snapshot_rebuilds", c.snapshot_rebuilds);
  det("core.snapshot_patches", c.snapshot_patches);
  det("core.dirty_rows_patched", c.dirty_rows_patched);
  det("core.download_rows_reused", c.download_rows_reused);
  det("core.session_rows_reused", c.session_rows_reused);
  det("core.ring_rows_reused", c.ring_rows_reused);
  det("core.peer_crashes", c.peer_crashes);
  det("core.sessions_failed", c.sessions_failed);
  det("core.transfer_retries", c.transfer_retries);
  det("core.retry_exhausted", c.retry_exhausted);
  det("core.stale_proposals", c.stale_proposals);
  det("core.partition_collapses", c.partition_collapses);
  det("core.lookup_wire_bytes", c.lookup_wire_bytes);
  det("core.gossip_rounds", c.gossip_rounds);
  det("core.dht_hops", c.dht_hops);
  det("core.lookup_misses", c.lookup_misses);
  det("core.stale_entries_served", c.stale_entries_served);

  const FinderStats& f = finder_.stats();
  det("finder.searches", f.searches);
  det("finder.discovered", f.discovered);
  det("finder.candidates", f.candidates);
  det("finder.bloom_detections", f.bloom_detections);
  det("finder.bloom_reconstructions", f.bloom_reconstructions);
  det("finder.bloom_dead_ends", f.bloom_dead_ends);
  det("finder.bloom_branch_dead_ends", f.bloom_branch_dead_ends);
  det("finder.bloom_budget_exhausted", f.bloom_budget_exhausted);
  det("finder.nodes_visited", f.nodes_visited);

  // Run-level aggregates: derived from the warmup-filtered record
  // stream in a fixed fold order, so they are replay-invariant too.
  const auto gauge = [&](const char* name, double v) {
    registry_.gauge(name, Domain::kDeterministic).set(v);
  };
  gauge("run.exchange_fraction", metrics_.exchange_session_fraction());
  gauge("run.mean_download_time_sharing_s",
        metrics_.mean_download_time_sharing());
  gauge("run.mean_download_time_nonsharing_s",
        metrics_.mean_download_time_nonsharing());
  gauge("run.download_time_ratio", metrics_.download_time_ratio());

  return registry_;
}

}  // namespace p2pex
