// Capacity-path regressions behind the million-peer runs: the SoA
// provider arena (span storage, exact-length reuse, rollback), entity
// tables that recycle rows so physical size tracks the live high-water
// mark instead of cumulative churn, the 32-bit id overflow guard, the
// deterministic memory accounting budgets are pinned on, and a pinned
// run above the population where sweeps once sharded.
#include <gtest/gtest.h>

#include <vector>

#include "core/provider_arena.h"
#include "core/system.h"
#include "support/run_digest.h"
#include "support/scenario.h"
#include "util/assert.h"
#include "util/types.h"

namespace p2pex {
namespace {

// --- StrongId overflow guard ----------------------------------------------

TEST(StrongIdOverflow, FromIndexAcceptsEveryRepresentableId) {
  EXPECT_EQ(PeerId::from_index(0).value, 0u);
  const std::size_t last = PeerId::kInvalidValue - 1;
  EXPECT_EQ(PeerId::from_index(last).value, PeerId::kInvalidValue - 1);
  EXPECT_TRUE(PeerId::from_index(last).valid());
}

TEST(StrongIdOverflow, FromIndexRefusesTheInvalidSentinelAndBeyond) {
  // 2^32-1 is the invalid-id bit pattern: minting it would alias every
  // default-constructed handle. The guard must fail loudly instead.
  EXPECT_THROW((void)DownloadId::from_index(DownloadId::kInvalidValue),
               std::overflow_error);
  EXPECT_THROW((void)SessionId::from_index(
                   static_cast<std::size_t>(SessionId::kInvalidValue) + 17),
               std::overflow_error);
}

// --- ProviderArena --------------------------------------------------------

std::vector<PeerId> ids(std::initializer_list<std::uint32_t> vs) {
  std::vector<PeerId> out;
  for (std::uint32_t v : vs) out.push_back(PeerId{v});
  return out;
}

TEST(ProviderArena, AllocStoresSpanVerbatimWithClearedColumns) {
  ProviderArena a;
  const std::vector<PeerId> owners = ids({7, 3, 9, 3});
  const std::uint32_t start = a.alloc(owners);
  const auto got = a.providers(start, 4);
  ASSERT_EQ(got.size(), 4u);
  for (std::size_t i = 0; i < owners.size(); ++i)
    EXPECT_EQ(got[i], owners[i]) << "row " << i;  // order is load-bearing
  EXPECT_EQ(a.find(start, 4, PeerId{9}), 2u);
  EXPECT_EQ(a.find(start, 4, PeerId{3}), 1u);  // first occurrence
  EXPECT_EQ(a.find(start, 4, PeerId{8}), 4u);  // absent -> len
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(a.registered(start + i));
    EXPECT_EQ(a.watch_slot(start + i), 0u);
  }
  a.set_registered(start + 2, true);
  a.set_watch_slot(start + 2, 41);
  EXPECT_TRUE(a.registered(start + 2));
  EXPECT_EQ(a.watch_slot(start + 2), 41u);
  EXPECT_EQ(a.live_rows(), 4u);
  EXPECT_EQ(a.table_rows(), 4u);
}

TEST(ProviderArena, ReleaseThenAllocReusesExactLengthSpans) {
  ProviderArena a;
  const std::uint32_t s3 = a.alloc(ids({1, 2, 3}));
  const std::uint32_t s2 = a.alloc(ids({4, 5}));
  EXPECT_EQ(a.table_rows(), 5u);
  a.release(s3, 3);
  a.release(s2, 2);
  EXPECT_EQ(a.live_rows(), 0u);
  EXPECT_EQ(a.table_rows(), 5u);  // rows stay materialized, on freelists

  // A same-length alloc reuses the freed span verbatim (and scrubs the
  // flag columns); the arena does not grow.
  const std::uint32_t again = a.alloc(ids({8, 9}));
  EXPECT_EQ(again, s2);
  EXPECT_EQ(a.table_rows(), 5u);
  EXPECT_EQ(a.spans_reused(), 1u);
  EXPECT_EQ(a.providers(again, 2)[0], PeerId{8});
  EXPECT_FALSE(a.registered(again));

  // A different length allocates fresh rows — buckets are exact-length.
  const std::uint32_t four = a.alloc(ids({1, 2, 3, 4}));
  EXPECT_EQ(four, 5u);
  EXPECT_EQ(a.table_rows(), 9u);
  EXPECT_EQ(a.spans_reused(), 1u);
}

TEST(ProviderArena, RollbackOfFreshAllocTrimsTheTail) {
  ProviderArena a;
  (void)a.alloc(ids({1, 2}));
  const std::uint32_t start = a.alloc(ids({3, 4, 5}));
  a.rollback_alloc(start, 3);
  EXPECT_EQ(a.table_rows(), 2u);
  EXPECT_EQ(a.live_rows(), 2u);
  // The trimmed rows are genuinely gone: the next alloc gets them back
  // as fresh storage at the same offset.
  EXPECT_EQ(a.alloc(ids({6})), 2u);
}

TEST(ProviderArena, RollbackOfReusedSpanRestoresTheFreelist) {
  ProviderArena a;
  const std::uint32_t s = a.alloc(ids({1, 2, 3}));
  a.release(s, 3);
  const std::uint32_t r = a.alloc(ids({4, 5, 6}));
  ASSERT_EQ(r, s);
  EXPECT_EQ(a.spans_reused(), 1u);
  a.rollback_alloc(r, 3);
  EXPECT_EQ(a.spans_reused(), 0u);  // the reuse never happened
  EXPECT_EQ(a.live_rows(), 0u);
  EXPECT_EQ(a.table_rows(), 3u);
  // The span is back on its bucket: the next 3-row alloc reuses it.
  EXPECT_EQ(a.alloc(ids({7, 8, 9})), s);
  EXPECT_EQ(a.spans_reused(), 1u);
}

TEST(ProviderArena, RollbackOutOfOrderFailsLoudly) {
  ProviderArena a;
  const std::uint32_t first = a.alloc(ids({1, 2}));
  (void)a.alloc(ids({3, 4}));
  EXPECT_THROW(a.rollback_alloc(first, 2), AssertionError);
}

// --- entity-table row recycling over a real run ---------------------------

TEST(EntityRecycling, TableRowsTrackLiveHighWaterMarkNotChurn) {
  System system(test::Scenario::small().build());
  system.run();
  system.check_invariants();
  const SystemCounters& c = system.counters();

  // The run must have churned far more entities than are ever live.
  ASSERT_GT(c.downloads_completed, 200u);
  ASSERT_GT(c.sessions_started, 200u);

  // Freed rows were actually recycled...
  EXPECT_GT(c.download_rows_reused, 0u);
  EXPECT_GT(c.session_rows_reused, 0u);
  EXPECT_GT(system.provider_arena().spans_reused(), 0u);

  // ...so physical table size is bounded by the live population, far
  // below the cumulative entity count. Every peer holds at most
  // max_pending downloads, which also bounds concurrent sessions and
  // the arena's live spans.
  const std::size_t live_cap =
      system.num_peers() * system.config().max_pending;
  EXPECT_LE(system.download_table_rows(), live_cap);
  EXPECT_LT(system.download_table_rows(), c.requests_issued);
  EXPECT_LT(system.session_table_rows(), c.sessions_started);
  if (c.rings_formed > 50) {
    EXPECT_LT(system.ring_table_rows(), c.rings_formed);
    EXPECT_GT(c.ring_rows_reused, 0u);
  }
  EXPECT_LE(system.provider_arena().live_rows(),
            system.provider_arena().table_rows());
}

// --- deterministic memory accounting --------------------------------------

TEST(MemoryAccounting, HundredThousandPeersUnderBytesPerPeerBudget) {
  // The capacity operating point the bench sweeps (bench/capacity_sweep):
  // catalog scaled with the population and flat paper popularity, so
  // per-object replica counts — and thus discovered-span lengths — stay
  // constant across scales, with a sparse request graph so the run is
  // memory-bound rather than search-bound.
  SimConfig cfg = SimConfig::calibrated_defaults();
  cfg.seed = 97;
  cfg.num_peers = 100000;
  cfg.catalog.num_categories = cfg.num_peers / 100;
  cfg.catalog.object_size = megabytes(1);
  cfg.catalog.category_popularity_f = 0.2;
  cfg.catalog.object_popularity_f = 0.2;
  cfg.lookup_fraction = 0.5;
  cfg.max_pending = 2;
  cfg.max_providers_per_request = 4;
  cfg.max_ring_size = 3;
  cfg.max_ring_attempts_per_search = 2;
  cfg.sim_duration = 40.0;  // one search sweep past the initial burst
  cfg.warmup_fraction = 0.0;
  System system(cfg);
  system.run();

  const MemoryFootprint f = system.memory_footprint();
  const std::size_t per_peer = f.total() / cfg.num_peers;
  // Budget pinned ~25% above the measured steady state (~2.8 KB/peer):
  // headroom for honest growth, loud failure for an O(churn) leak or a
  // reverted SoA layout (the old pointer-heavy tables blow well past it).
  EXPECT_LT(per_peer, 3500u) << "peer=" << f.peer_bytes
                             << " download=" << f.download_bytes
                             << " session=" << f.session_bytes
                             << " ring=" << f.ring_bytes
                             << " graph=" << f.graph_bytes;
  // Sanity on the breakdown: every subsystem reports, nothing dominates
  // by accident.
  EXPECT_GT(f.peer_bytes, 0u);
  EXPECT_GT(f.download_bytes, 0u);
  EXPECT_GT(f.graph_bytes, 0u);
}

// --- a pinned run above the old sweep-sharding threshold -----------------

/// Pinned test::run_digest of the 1536-peer run below.
constexpr const char* kSweepRunDigest = "6241998e8f5bd10b";

TEST(ParallelSweeps, RunIsIdenticalAcrossThreadCountsAboveShardingThreshold) {
  // Above 1024 peers the periodic sweeps (search, eviction, policy
  // flips) once sharded their peer scans over a worker pool. The pin was
  // recorded when 1, 2 and 8 threads still did and agreed bit for bit;
  // the engine is serial now, so a run with 8 threads configured must
  // reproduce it.
  SimConfig cfg = test::Scenario::small().peers(1536).duration(400.0).build();
  cfg.threads = 8;
  System system(cfg);
  system.run();
  system.check_invariants();
  // The workload actually exercised the sweeps and the recycler.
  EXPECT_GT(system.counters().requests_issued, 0u);
  EXPECT_EQ(test::run_digest(system), kSweepRunDigest);
}

}  // namespace
}  // namespace p2pex
