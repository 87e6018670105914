// Tests for the experiment driver's environment handling and summaries.
#include <gtest/gtest.h>

#include <cstdlib>

#include "core/experiment.h"
#include "metrics/records.h"
#include "support/scenario.h"

namespace p2pex {
namespace {

class ReproScaleEnv : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv("REPRO_SCALE"); }
};

TEST_F(ReproScaleEnv, ParsesPositiveValue) {
  setenv("REPRO_SCALE", "0.25", 1);
  EXPECT_DOUBLE_EQ(repro_scale(), 0.25);
  SimConfig c = SimConfig::paper_defaults();
  c.sim_duration = 1000.0;
  EXPECT_DOUBLE_EQ(scaled(c).sim_duration, 250.0);
}

TEST_F(ReproScaleEnv, IgnoresGarbageAndNonPositive) {
  setenv("REPRO_SCALE", "banana", 1);
  EXPECT_DOUBLE_EQ(repro_scale(), 1.0);
  setenv("REPRO_SCALE", "-2", 1);
  EXPECT_DOUBLE_EQ(repro_scale(), 1.0);
  setenv("REPRO_SCALE", "0", 1);
  EXPECT_DOUBLE_EQ(repro_scale(), 1.0);
}

TEST_F(ReproScaleEnv, ScalingPreservesOtherFields) {
  setenv("REPRO_SCALE", "2.0", 1);
  SimConfig c = SimConfig::paper_defaults();
  const SimConfig s = scaled(c);
  EXPECT_DOUBLE_EQ(s.sim_duration, c.sim_duration * 2.0);
  EXPECT_EQ(s.num_peers, c.num_peers);
  EXPECT_EQ(s.seed, c.seed);
}

TEST(ExperimentUnits, MinutesConversion) {
  EXPECT_DOUBLE_EQ(to_minutes(60.0), 1.0);
  EXPECT_DOUBLE_EQ(to_minutes(90.0), 1.5);
}

TEST(ExperimentUnits, RunResultTotals) {
  RunResult r;
  r.completed_sharing = 3;
  r.completed_nonsharing = 4;
  EXPECT_EQ(r.completed_total(), 7u);
}

TEST(ExperimentUnits, SummarizeRunCarriesSnapshotMaintenanceStats) {
  System s(test::Scenario::small(7).build());
  s.run();
  const RunResult r = summarize_run(s);
  const SystemCounters& c = s.counters();
  EXPECT_EQ(r.snapshot_rebuilds, c.snapshot_rebuilds);
  EXPECT_EQ(r.snapshot_patches, c.snapshot_patches);
  EXPECT_EQ(r.dirty_rows_patched, c.dirty_rows_patched);
  // A real run maintains the snapshot: deltas dominate full rebuilds.
  EXPECT_GT(r.snapshot_patches, 0u);
}

TEST(SessionEndNames, AllVariantsNamed) {
  for (auto e : {SessionEnd::kDownloadComplete, SessionEnd::kRingCollapsed,
                 SessionEnd::kPreempted, SessionEnd::kProviderLeft,
                 SessionEnd::kObjectDeleted, SessionEnd::kRequesterCancelled,
                 SessionEnd::kSimulationEnd}) {
    EXPECT_NE(to_string(e), "unknown");
    EXPECT_FALSE(to_string(e).empty());
  }
}

}  // namespace
}  // namespace p2pex
