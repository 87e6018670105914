// The `threads` knob: accepted, validated and echoed, but inert. Every
// run takes the serial engine, so a run configured with several threads
// must reproduce the output digest its serial run was pinned at (see
// support/run_digest.h).
#include <gtest/gtest.h>

#include <string>

#include "core/system.h"
#include "scenario/spec.h"
#include "support/run_digest.h"

namespace p2pex {
namespace {

// --- FinderStats arithmetic ---------------------------------------------

TEST(FinderStats, DeltaRoundTrips) {
  FinderStats a;
  a.searches = 10;
  a.discovered = 4;
  a.nodes_visited = 100;
  FinderStats delta;
  delta.searches = 3;
  delta.candidates = 2;
  delta.bloom_detections = 5;
  FinderStats b = a;
  b += delta;
  EXPECT_EQ(b.searches, 13u);
  EXPECT_EQ(b.discovered, 4u);
  EXPECT_EQ(b.candidates, 2u);
  EXPECT_EQ(b.bloom_detections, 5u);
  EXPECT_EQ(b.nodes_visited, 100u);
  b += FinderStats{};
  EXPECT_NE(a, b);
  a += delta;
  EXPECT_EQ(a, b);
}

// --- the inert threads knob ----------------------------------------------

SimConfig small_busy_config(std::size_t threads) {
  SimConfig c = SimConfig::calibrated_defaults();
  c.num_peers = 80;
  c.sim_duration = 4000.0;
  c.warmup_fraction = 0.2;
  c.seed = 5;
  c.threads = threads;
  return c;
}

/// run_digest of small_busy_config at threads = 1 (full-tree search).
constexpr const char* kBusyDigest = "40fb3b71e1d8017d";
/// The same run in Bloom search mode.
constexpr const char* kBusyBloomDigest = "bfc37478e4908a12";

TEST(ParallelConfig, ThreadsValidation) {
  SimConfig c;
  c.threads = 0;
  EXPECT_THROW(c.validate(), ConfigError);
  c.threads = SimConfig::kMaxThreads + 1;
  EXPECT_THROW(c.validate(), ConfigError);

  // Still accepted from a scenario and echoed in the config line...
  scenario::set_config_knob(c, "threads", "4");
  EXPECT_NO_THROW(c.validate());
  EXPECT_NE(c.describe().find("threads=4"), std::string::npos);

  // ...but a threads = 4 run computes the threads = 1 output.
  System system(small_busy_config(4));
  system.run();
  EXPECT_EQ(system.threads(), 1u);
  EXPECT_EQ(test::run_digest(system), kBusyDigest);
}

TEST(ParallelSystem, ThreadedRunMatchesSerialBitForBit) {
  System threaded(small_busy_config(8));
  threaded.run();
  threaded.check_invariants();
  EXPECT_EQ(test::run_digest(threaded), kBusyDigest);
  const SpeculationStats s = threaded.speculation_stats();
  EXPECT_EQ(s.passes + s.speculated + s.consumed + s.stale + s.unused, 0u);
}

TEST(ParallelSystem, BloomModeThreadedRunMatchesSerial) {
  SimConfig c = small_busy_config(3);
  c.tree_mode = TreeMode::kBloom;
  System threaded(c);
  threaded.run();
  threaded.check_invariants();
  EXPECT_EQ(test::run_digest(threaded), kBusyBloomDigest);
}

}  // namespace
}  // namespace p2pex
