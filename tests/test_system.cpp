// System-level tests: invariants, determinism, scheduling behaviour.
#include <gtest/gtest.h>

#include "core/experiment.h"
#include "core/system.h"
#include "support/scenario.h"

namespace p2pex {
namespace {

/// Small fast system (see Scenario::small): 60 peers, short horizon,
/// calibrated density knobs so exchanges actually occur.
SimConfig small_config(std::uint64_t seed = 3) {
  return test::Scenario::small(seed).build();
}

TEST(System, ConstructionRespectsPopulationSplit) {
  const System s(small_config());
  EXPECT_EQ(s.num_peers(), 60u);
  EXPECT_EQ(s.num_sharing(), 30u);  // 50% of 60
  std::size_t sharing = 0;
  for (std::uint32_t i = 0; i < 60; ++i)
    if (s.peer(PeerId{i}).shares) ++sharing;
  EXPECT_EQ(sharing, 30u);
}

TEST(System, PeersHaveConfiguredSlots) {
  const System s(small_config());
  const Peer& p = s.peer(PeerId{0});
  EXPECT_EQ(p.upload_slots, 8);
  EXPECT_EQ(p.download_slots, 80);
  EXPECT_GE(p.storage.size(), 1u);
  EXPECT_LE(p.storage.size(), p.storage.capacity());
}

TEST(System, InvariantsHoldThroughoutRun) {
  System s(small_config());
  for (double t = 1000.0; t <= 9000.0; t += 1000.0) {
    s.run_to(t);
    ASSERT_NO_THROW(s.check_invariants()) << "at t=" << t;
  }
}

TEST(System, DeterministicGivenSeed) {
  SimConfig cfg = small_config(11);
  System a(cfg), b(cfg);
  a.run();
  b.run();
  EXPECT_EQ(a.counters().sessions_started, b.counters().sessions_started);
  EXPECT_EQ(a.counters().rings_formed, b.counters().rings_formed);
  EXPECT_EQ(a.counters().downloads_completed,
            b.counters().downloads_completed);
  EXPECT_EQ(a.metrics().uploaded(), b.metrics().uploaded());
  EXPECT_DOUBLE_EQ(a.metrics().mean_download_time_sharing(),
                   b.metrics().mean_download_time_sharing());
}

TEST(System, SeedsChangeOutcomes) {
  System a(small_config(1)), b(small_config(2));
  a.run();
  b.run();
  EXPECT_NE(a.metrics().uploaded(), b.metrics().uploaded());
}

TEST(System, ByteConservation) {
  System s(small_config());
  s.run();
  EXPECT_EQ(s.metrics().uploaded(), s.metrics().downloaded());
  EXPECT_GT(s.metrics().uploaded(), 0);
}

TEST(System, NoExchangePolicyFormsNoRings) {
  SimConfig cfg = small_config();
  cfg.policy = ExchangePolicy::kNoExchange;
  System s(cfg);
  s.run();
  EXPECT_EQ(s.counters().rings_formed, 0u);
  EXPECT_EQ(s.counters().preemptions, 0u);
  EXPECT_DOUBLE_EQ(s.metrics().exchange_session_fraction(), 0.0);
  EXPECT_GT(s.counters().downloads_completed, 0u);
}

TEST(System, ExchangePolicyFormsRings) {
  System s(small_config());
  s.run();
  EXPECT_GT(s.counters().rings_formed, 0u);
  EXPECT_GT(s.metrics().exchange_session_fraction(), 0.0);
}

TEST(System, PairwiseOnlyNeverFormsLargerRings) {
  SimConfig cfg = small_config();
  cfg.policy = ExchangePolicy::kPairwiseOnly;
  System s(cfg);
  s.run();
  const auto& c = s.counters();
  EXPECT_GT(c.rings_by_size[2], 0u);
  for (std::size_t n = 3; n <= 8; ++n) EXPECT_EQ(c.rings_by_size[n], 0u);
}

TEST(System, RingSizesRespectCap) {
  SimConfig cfg = small_config();
  cfg.policy = ExchangePolicy::kLongestFirst;
  cfg.max_ring_size = 3;
  System s(cfg);
  s.run();
  EXPECT_EQ(s.counters().rings_by_size[4], 0u);
  EXPECT_EQ(s.counters().rings_by_size[5], 0u);
}

TEST(System, LongRingCapKeepsInvariants) {
  // A ring cap past the default 5 (SimConfig::validate sets no upper
  // bound): the token walk's reusable plan must grow with the longest
  // proposal, and rings longer than 5 must form and stay consistent.
  SimConfig cfg = small_config();
  cfg.policy = ExchangePolicy::kLongestFirst;
  cfg.max_ring_size = 12;
  System s(cfg);
  for (double t = 1000.0; t <= 9000.0; t += 1000.0) {
    s.run_to(t);
    ASSERT_NO_THROW(s.check_invariants()) << "at t=" << t;
  }
  const auto& by_size = s.counters().rings_by_size;
  EXPECT_GT(by_size[6] + by_size[7] + by_size[8], 0u);
}

TEST(System, FreeloadersNeverUpload) {
  System s(small_config());
  s.run();
  for (std::uint32_t i = 0; i < s.num_peers(); ++i) {
    const Peer& p = s.peer(PeerId{i});
    if (!p.shares) {
      EXPECT_EQ(p.participation.uploaded(), 0)
          << "freeloader " << i << " uploaded";
      EXPECT_EQ(p.upload_in_use, 0);
    }
  }
}

TEST(System, PendingCapRespected) {
  SimConfig cfg = small_config();
  cfg.max_pending = 3;
  System s(cfg);
  for (double t = 500.0; t <= 4000.0; t += 500.0) {
    s.run_to(t);
    for (std::uint32_t i = 0; i < s.num_peers(); ++i)
      EXPECT_LE(s.peer(PeerId{i}).pending_list.size(), 3u);
  }
}

TEST(System, PreemptionKnob) {
  SimConfig on = small_config();
  on.upload_capacity_kbps = 40.0;  // scarce slots: preemption pressure
  SimConfig off = on;
  off.preemption = false;
  System a(on), b(off);
  a.run();
  b.run();
  EXPECT_EQ(b.counters().preemptions, 0u);
  // Preemption displaces at least some non-exchange transfers here.
  EXPECT_GT(a.counters().preemptions, 0u);
}

TEST(System, BloomModeRunsAndFormsRings) {
  SimConfig cfg = small_config();
  cfg.tree_mode = TreeMode::kBloom;
  System s(cfg);
  s.run();
  ASSERT_NO_THROW(s.check_invariants());
  EXPECT_GT(s.counters().rings_formed, 0u);
  EXPECT_GT(s.finder_stats().bloom_detections, 0u);
  EXPECT_GT(s.mean_bloom_summary_bytes(), 0.0);
}

TEST(System, CreditSchedulerRuns) {
  SimConfig cfg = small_config();
  cfg.policy = ExchangePolicy::kNoExchange;
  cfg.scheduler = SchedulerKind::kCredit;
  System s(cfg);
  s.run();
  ASSERT_NO_THROW(s.check_invariants());
  EXPECT_GT(s.counters().downloads_completed, 0u);
}

TEST(System, ParticipationSchedulerRuns) {
  SimConfig cfg = small_config();
  cfg.policy = ExchangePolicy::kNoExchange;
  cfg.scheduler = SchedulerKind::kParticipation;
  cfg.liar_fraction = 0.5;
  System s(cfg);
  s.run();
  ASSERT_NO_THROW(s.check_invariants());
  EXPECT_GT(s.counters().downloads_completed, 0u);
}

TEST(System, CompletedDownloadsEnterStorageAndLookup) {
  System s(small_config());
  s.run();
  // Every sharing peer that completed a download is findable as an owner
  // of objects it stores.
  std::size_t checked = 0;
  for (std::uint32_t i = 0; i < s.num_peers() && checked < 5; ++i) {
    const Peer& p = s.peer(PeerId{i});
    if (!p.shares || p.storage.size() == 0) continue;
    const ObjectId o = p.storage.objects().front();
    const auto owners = s.lookup().owners(o, PeerId{9999});
    EXPECT_NE(std::find(owners.begin(), owners.end(), p.id), owners.end());
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(System, RunIsIdempotent) {
  System s(small_config());
  s.run();
  const auto done = s.counters().downloads_completed;
  s.run();
  EXPECT_EQ(s.counters().downloads_completed, done);
}

TEST(System, MeanRequestTreeBytesPositiveUnderLoad) {
  System s(small_config());
  s.run_to(2000.0);
  EXPECT_GT(s.mean_request_tree_bytes(), 0.0);
}

TEST(System, RejectsInvalidConfig) {
  SimConfig cfg = small_config();
  cfg.max_pending = 0;
  EXPECT_THROW(System{cfg}, ConfigError);
}

// --- experiment driver ---

TEST(Experiment, PolicyVariantsMatchPaperLegend) {
  const auto variants = paper_policy_variants(small_config(), 5);
  ASSERT_EQ(variants.size(), 4u);
  EXPECT_EQ(variants[0].policy, ExchangePolicy::kNoExchange);
  EXPECT_EQ(variants[1].policy, ExchangePolicy::kPairwiseOnly);
  EXPECT_EQ(variants[2].policy, ExchangePolicy::kLongestFirst);
  EXPECT_EQ(variants[3].policy, ExchangePolicy::kShortestFirst);
  EXPECT_EQ(policy_label(variants[2].policy, variants[2].max_ring_size),
            "5-2-way");
}

TEST(Experiment, RunExperimentSummarizes) {
  const RunResult r = run_experiment(small_config(), "test-run");
  EXPECT_EQ(r.label, "test-run");
  EXPECT_GT(r.completed_total(), 0u);
  EXPECT_GT(r.mean_dl_minutes_all, 0.0);
}

TEST(Experiment, ReproScaleDefaultsToOne) {
  EXPECT_DOUBLE_EQ(repro_scale(), 1.0);
  const SimConfig c = scaled(small_config());
  EXPECT_DOUBLE_EQ(c.sim_duration, small_config().sim_duration);
}

}  // namespace
}  // namespace p2pex
