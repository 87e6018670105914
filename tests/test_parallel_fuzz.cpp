// Thread-count invariance fuzzer.
//
// For every corpus seed, one (config, workload) pair — plain closed-loop
// runs on even seeds, scenario-driven churn/free-ride/flash-crowd runs
// on odd seeds, alternating full-tree and Bloom search modes — runs
// once with 8 worker threads configured. The engine is serial whatever
// the knob says, so the run must reproduce, digest for digest (see
// support/run_digest.h), the output pinned for its serial run. Every
// pin was recorded when 1, 2, 3 and 8 threads still ran a speculative
// parallel engine and agreed bit for bit.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "core/system.h"
#include "scenario/driver.h"
#include "scenario/spec.h"
#include "support/fuzz_corpus.h"
#include "support/run_digest.h"
#include "util/rng.h"

namespace p2pex {
namespace {

/// Derives a varied small config from a corpus seed.
SimConfig config_for_seed(std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  SimConfig c = SimConfig::calibrated_defaults();
  c.seed = seed;
  c.num_peers = 40 + static_cast<std::size_t>(rng.index(61));  // 40..100
  c.sim_duration = 1500.0 + 250.0 * static_cast<double>(rng.index(8));
  c.warmup_fraction = 0.2;
  c.tree_mode = seed % 2 == 0 ? TreeMode::kFullTree : TreeMode::kBloom;
  c.policy = rng.chance(0.25) ? ExchangePolicy::kLongestFirst
                              : ExchangePolicy::kShortestFirst;
  c.preemption = !rng.chance(0.25);
  c.max_ring_size = 3 + rng.index(3);  // 3..5
  return c;
}

/// Pinned run_digest per corpus seed (test::kParallelFuzzSeeds).
const std::map<std::uint64_t, std::string> kPinnedDigests = {
    {71, "e2576b06a8bbcd49"},
    {72, "0b151be8a08cedcf"},
    {73, "0688c1c00acab987"},
    {75, "d19ad35eb225a742"},
    {78, "4e8857de2b445a82"},
    {91, "478a7993d9fea2ef"},
    {107, "f0e5d7611ac212e5"},
};

class ParallelShardInvariance
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelShardInvariance, IdenticalAcrossThreadCounts) {
  const std::uint64_t seed = GetParam();
  SimConfig c = config_for_seed(seed);
  c.threads = 8;
  std::unique_ptr<System> plain;
  std::unique_ptr<scenario::Driver> driver;
  const System* system = nullptr;
  if (seed % 2 == 0) {
    plain = std::make_unique<System>(c);
    plain->run();
    system = plain.get();
  } else {
    scenario::SpecBuilder b;
    b.config() = c;
    b.name("parallel-fuzz-" + std::to_string(seed));
    const double d = c.sim_duration;
    driver = std::make_unique<scenario::Driver>(
        b.churn(0.0, d, 90.0, 0.0008, 0.003)
            .freeride_wave(d * 0.3, 0.3, d * 0.3)
            .flash_crowd(d * 0.5, CategoryId{1}, 0.5, d * 0.2)
            .build());
    driver->run();
    system = &driver->system();
  }
  system->check_invariants();
  ASSERT_EQ(kPinnedDigests.count(seed), 1u) << "no pin for seed " << seed;
  EXPECT_EQ(test::run_digest(*system), kPinnedDigests.at(seed))
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Corpus, ParallelShardInvariance,
                         ::testing::ValuesIn(test::kParallelFuzzSeeds),
                         test::fuzz_seed_name);

}  // namespace
}  // namespace p2pex
