// Unit tests for the observability layer: histogram bucket math,
// registry registration/domain contracts, JSON snapshot shape and the
// deterministic/timing split, the trace recorder (span capture, ring
// overflow, spans from several threads), and the System-level contract
// the replay tests rest on — the deterministic-domain JSON of a run
// with several threads configured reproduces the pinned serial output.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "core/system.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "support/run_digest.h"
#include "util/assert.h"

namespace p2pex::obs {
namespace {

// --- Histogram -----------------------------------------------------------

TEST(Histogram, BucketOfIsLog2BitWidth) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Histogram::bucket_of(8), 4u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Histogram::bucket_of(~0ULL), 64u);
}

TEST(Histogram, BucketBoundsPartitionTheRange) {
  // Bucket 0 = {0}; bucket i >= 1 = [2^(i-1), 2^i - 1]; adjacent buckets
  // tile the uint64 range with no gap or overlap.
  EXPECT_EQ(Histogram::bucket_lo(0), 0u);
  EXPECT_EQ(Histogram::bucket_hi(0), 0u);
  EXPECT_EQ(Histogram::bucket_lo(1), 1u);
  EXPECT_EQ(Histogram::bucket_hi(1), 1u);
  EXPECT_EQ(Histogram::bucket_lo(4), 8u);
  EXPECT_EQ(Histogram::bucket_hi(4), 15u);
  EXPECT_EQ(Histogram::bucket_hi(64), ~0ULL);
  for (std::size_t i = 1; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(Histogram::bucket_lo(i), Histogram::bucket_hi(i - 1) + 1);
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_lo(i)), i);
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_hi(i)), i);
  }
}

TEST(Histogram, RecordAggregates) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", Domain::kDeterministic);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);  // empty: min reports 0, not the sentinel
  for (const std::uint64_t v : {5u, 0u, 9u, 5u, 1000u}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1019u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.bucket_count(0), 1u);                      // the 0
  EXPECT_EQ(h.bucket_count(Histogram::bucket_of(5)), 2u);
  EXPECT_EQ(h.bucket_count(Histogram::bucket_of(9)), 1u);
  EXPECT_EQ(h.bucket_count(Histogram::bucket_of(1000)), 1u);
}

// --- MetricsRegistry -----------------------------------------------------

TEST(MetricsRegistry, ReferencesAreStableAcrossRegistrations) {
  MetricsRegistry reg;
  Counter& a = reg.counter("alpha", Domain::kDeterministic);
  a.add(3);
  // Registering many more metrics must not move `a` (std::map nodes).
  for (int i = 0; i < 100; ++i) {
    std::string name = "c";
    name += std::to_string(i);
    reg.counter(name, Domain::kDeterministic);
  }
  Counter& again = reg.counter("alpha", Domain::kDeterministic);
  EXPECT_EQ(&a, &again);
  EXPECT_EQ(a.value(), 3u);
  EXPECT_EQ(reg.size(), 101u);
}

TEST(MetricsRegistry, DomainMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("x", Domain::kDeterministic);
  EXPECT_THROW(reg.counter("x", Domain::kTiming), AssertionError);
  reg.gauge("g", Domain::kTiming);
  EXPECT_THROW(reg.gauge("g", Domain::kDeterministic), AssertionError);
  reg.histogram("h", Domain::kDeterministic);
  EXPECT_THROW(reg.histogram("h", Domain::kTiming), AssertionError);
}

TEST(MetricsRegistry, FindDoesNotRegister) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.find_counter("missing"), nullptr);
  EXPECT_EQ(reg.find_gauge("missing"), nullptr);
  EXPECT_EQ(reg.find_histogram("missing"), nullptr);
  EXPECT_EQ(reg.size(), 0u);
  reg.counter("present", Domain::kDeterministic).add(7);
  ASSERT_NE(reg.find_counter("present"), nullptr);
  EXPECT_EQ(reg.find_counter("present")->value(), 7u);
}

// Extracts the balanced {...} object following `"key": ` in `json`.
std::string json_object_of(const std::string& json, const std::string& key) {
  std::string quoted = "\"";
  quoted += key;
  quoted += '"';
  const std::size_t at = json.find(quoted);
  if (at == std::string::npos) return {};
  const std::size_t open = json.find('{', at);
  if (open == std::string::npos) return {};
  int depth = 0;
  for (std::size_t i = open; i < json.size(); ++i) {
    if (json[i] == '{') ++depth;
    if (json[i] == '}' && --depth == 0)
      return json.substr(open, i - open + 1);
  }
  return {};
}

TEST(MetricsRegistry, JsonSplitsDomainsAndSortsNames) {
  MetricsRegistry reg;
  reg.counter("b.count", Domain::kDeterministic).set(2);
  reg.counter("a.count", Domain::kDeterministic).set(1);
  reg.counter("wall.ns", Domain::kTiming).set(99);
  reg.gauge("a.gauge", Domain::kDeterministic).set(0.5);
  reg.histogram("a.hist", Domain::kDeterministic).record(3);

  const std::string with_timing = reg.to_json(/*include_timing=*/true);
  const std::string without = reg.to_json(/*include_timing=*/false);

  EXPECT_NE(with_timing.find("\"schema\": \"p2pex.metrics.v1\""),
            std::string::npos);
  // Sorted: a.count before b.count.
  EXPECT_LT(with_timing.find("\"a.count\": 1"),
            with_timing.find("\"b.count\": 2"));
  EXPECT_NE(with_timing.find("\"a.gauge\": 0.5"), std::string::npos);
  // Histogram entry: count/sum/min/max plus the non-empty bucket
  // [lo, hi, n] triple for value 3 (bucket [2, 3]).
  EXPECT_NE(with_timing.find("\"a.hist\": {\"count\": 1, \"sum\": 3, "
                             "\"min\": 3, \"max\": 3, "
                             "\"buckets\": [[2, 3, 1]]}"),
            std::string::npos);
  // The timing domain is present only when asked for.
  EXPECT_NE(with_timing.find("\"timing\""), std::string::npos);
  EXPECT_NE(with_timing.find("\"wall.ns\": 99"), std::string::npos);
  EXPECT_EQ(without.find("\"timing\""), std::string::npos);
  EXPECT_EQ(without.find("wall.ns"), std::string::npos);
  // Deterministic domain renders identically either way.
  const std::string det_with = json_object_of(with_timing, "deterministic");
  const std::string det_without = json_object_of(without, "deterministic");
  EXPECT_FALSE(det_with.empty());
  EXPECT_EQ(det_with, det_without);
}

// --- TraceRecorder -------------------------------------------------------

TEST(TraceRecorder, InactiveByDefaultAndSpansAreNoOps) {
  EXPECT_EQ(TraceRecorder::active(), nullptr);
  { P2PEX_TRACE_SPAN("noop", "test"); }  // no recorder: must not crash
  TraceRecorder rec;
  EXPECT_EQ(rec.events_recorded(), 0u);
}

TEST(TraceRecorder, RecordsScopedSpans) {
  TraceRecorder rec;
  rec.install();
  ASSERT_EQ(TraceRecorder::active(), &rec);
  for (int i = 0; i < 3; ++i) { P2PEX_TRACE_SPAN("phase.a", "test"); }
  { P2PEX_TRACE_SPAN("phase.b", "test"); }
  rec.uninstall();
  EXPECT_EQ(TraceRecorder::active(), nullptr);
  { P2PEX_TRACE_SPAN("phase.after", "test"); }  // not recorded

  EXPECT_EQ(rec.events_recorded(), 4u);
  EXPECT_EQ(rec.events_dropped(), 0u);
  const std::vector<PhaseTotal> totals = rec.phase_totals();
  ASSERT_EQ(totals.size(), 2u);  // name-sorted merge
  EXPECT_EQ(totals[0].name, "phase.a");
  EXPECT_EQ(totals[0].count, 3u);
  EXPECT_EQ(totals[1].name, "phase.b");
  EXPECT_EQ(totals[1].count, 1u);
}

TEST(TraceRecorder, RingOverflowKeepsAggregates) {
  TraceRecorder rec(/*ring_capacity=*/8);
  rec.install();
  for (int i = 0; i < 20; ++i) { P2PEX_TRACE_SPAN("tight.loop", "test"); }
  rec.uninstall();
  EXPECT_EQ(rec.events_recorded(), 20u);
  EXPECT_EQ(rec.events_dropped(), 12u);  // ring holds the newest 8
  const std::vector<PhaseTotal> totals = rec.phase_totals();
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_EQ(totals[0].count, 20u);  // aggregates survive the overwrite
}

TEST(TraceRecorder, ChromeJsonIsWellFormed) {
  TraceRecorder rec;
  rec.install();
  { P2PEX_TRACE_SPAN("alpha", "test"); }
  { P2PEX_TRACE_SPAN("beta", "test"); }
  rec.uninstall();
  const std::string json = rec.to_chrome_json();
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check without a
  // JSON parser; tools/trace_check.py does the real validation in CI).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(TraceRecorder, CollectsSpansFromWorkerPoolThreads) {
  TraceRecorder rec;
  rec.install();
  {
    std::vector<std::thread> pool;
    for (int t = 0; t < 4; ++t)
      pool.emplace_back([] {
        for (int i = 0; i < 4; ++i) P2PEX_TRACE_SPAN("shard.work", "test");
      });
    for (std::thread& t : pool) t.join();
  }
  rec.uninstall();
  EXPECT_EQ(rec.events_recorded(), 16u);
  const std::vector<PhaseTotal> totals = rec.phase_totals();
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_EQ(totals[0].name, "shard.work");
  EXPECT_EQ(totals[0].count, 16u);  // merged across every worker buffer
}

TEST(TraceRecorder, ReinstallAfterAnotherRecorderRegistersFresh) {
  // Thread-local buffers are keyed by recorder identity: after switching
  // recorders, spans land in the newly active one only.
  TraceRecorder first;
  first.install();
  { P2PEX_TRACE_SPAN("one", "test"); }
  first.uninstall();
  TraceRecorder second;
  second.install();
  { P2PEX_TRACE_SPAN("two", "test"); }
  second.uninstall();
  EXPECT_EQ(first.events_recorded(), 1u);
  EXPECT_EQ(second.events_recorded(), 1u);
  EXPECT_EQ(second.phase_totals()[0].name, "two");
}

}  // namespace
}  // namespace p2pex::obs

namespace p2pex {
namespace {

SimConfig obs_busy_config(std::size_t threads) {
  SimConfig c = SimConfig::calibrated_defaults();
  c.num_peers = 80;
  c.sim_duration = 4000.0;
  c.warmup_fraction = 0.2;
  c.seed = 5;
  c.threads = threads;
  return c;
}

// --- System registry -----------------------------------------------------

TEST(SystemObservability, RegistryCarriesCountersAndHistograms) {
  System system(obs_busy_config(1));
  system.run();
  const obs::MetricsRegistry& reg = system.metrics_registry();

  const obs::Counter* rings = reg.find_counter("core.rings_formed");
  ASSERT_NE(rings, nullptr);
  EXPECT_EQ(rings->value(), system.counters().rings_formed);
  const obs::Counter* searches = reg.find_counter("finder.searches");
  ASSERT_NE(searches, nullptr);
  EXPECT_EQ(searches->value(), system.finder_stats().searches);

  // Histograms recorded live along the run.
  const obs::Histogram* ring_size = reg.find_histogram("core.ring_size");
  ASSERT_NE(ring_size, nullptr);
  EXPECT_EQ(ring_size->count(), system.counters().rings_formed);
  const obs::Histogram* hops = reg.find_histogram("core.search_hops");
  ASSERT_NE(hops, nullptr);
  EXPECT_EQ(hops->count(), system.finder_stats().searches);
  EXPECT_EQ(hops->sum(), system.finder_stats().nodes_visited);
  const obs::Histogram* spans = reg.find_histogram("core.provider_span_len");
  ASSERT_NE(spans, nullptr);
  EXPECT_GT(spans->count(), 0u);
}

/// test::run_digest of obs_busy_config(1), recorded when threaded runs
/// still speculated on a worker pool and matched it byte for byte.
constexpr const char* kBusyDigest = "40fb3b71e1d8017d";

TEST(SystemObservability, DeterministicJsonIdenticalAcrossThreadCounts) {
  // The replay contract in unit form: the deterministic domain of the
  // metrics JSON (timing excluded, as under --stable) is part of the
  // pinned digest, and a threaded configuration must reproduce it.
  System threaded(obs_busy_config(4));
  threaded.run();
  EXPECT_EQ(threaded.threads(), 1u);
  EXPECT_EQ(test::run_digest(threaded), kBusyDigest);
}

TEST(SystemObservability, TimingDomainVariesButIsSegregated) {
  // The engine publishes nothing in the timing domain: a finished
  // System's registry exports an empty timing section. (Domain
  // segregation itself: MetricsRegistry.JsonSplitsDomainsAndSortsNames.)
  System system(obs_busy_config(2));
  system.run();
  const obs::MetricsRegistry& reg = system.metrics_registry();
  const std::string timing =
      obs::json_object_of(reg.to_json(/*include_timing=*/true), "timing");
  ASSERT_FALSE(timing.empty());
  for (const char* kind : {"counters", "gauges", "histograms"})
    EXPECT_EQ(obs::json_object_of(timing, kind), "{}") << kind;
  const std::string stable_json = reg.to_json(/*include_timing=*/false);
  EXPECT_NE(obs::json_object_of(stable_json, "deterministic")
                .find("core.requests_issued"),
            std::string::npos);
}

}  // namespace
}  // namespace p2pex
