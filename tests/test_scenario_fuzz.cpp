// .scn parser robustness: a corpus of malformed inputs that must each
// raise ScenarioError (never crash, never silently default), plus a
// seeded mutation fuzzer over a valid scenario.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/system.h"
#include "scenario/driver.h"
#include "scenario/spec.h"
#include "support/fuzz_corpus.h"
#include "support/run_digest.h"
#include "util/rng.h"

namespace p2pex {
namespace {

using scenario::ScenarioError;
using scenario::Spec;

// --- malformed corpus ---
//
// One entry per known way to get a .scn wrong; every entry must raise
// ScenarioError. Grow this list with every parser bug found.
const std::vector<std::string> kMalformed = {
    // structure
    "wibble\n",                            // unknown directive
    "scenario\n",                          // missing name
    "scenario two words extra\n",          // too many tokens
    "base\n",                              // missing base name
    "base klingon\n",                      // unknown base
    "base paper\nbase paper\n",            // duplicate base
    "set seed 1\nbase paper\n",            // base after overrides
    "set seed\n",                          // missing value
    "set seed 1 2\n",                      // extra value
    "set bogus 1\n",                       // unknown knob
    "set seed banana\n",                   // non-numeric
    "set seed -3\n",                       // negative unsigned
    "set duration 1e\n",                   // truncated float
    "set duration 10zz\n",                 // trailing garbage
    "set preemption perhaps\n",            // bad boolean
    "set policy sometimes\n",              // unknown policy
    "set scheduler roulette\n",            // unknown scheduler
    "set tree shrub\n",                    // unknown tree mode
    // discovery backends
    "set lookup_backend carrier-pigeon\n", // unknown backend
    "set lookup_backend\n",                // missing backend name
    "set lookup_backend pex dht\n",        // two backends
    "set lookup_backend ORACLE\n",         // names are case-sensitive
    "set gossip_interval 0\n",             // gossip must tick
    "set gossip_interval -30\n",           // negative interval
    "set gossip_interval nan\n",           // non-finite interval
    "set gossip_interval soon\n",          // non-numeric interval
    "set gossip_digest 0\n",               // empty digests carry nothing
    "set gossip_digest -4\n",              // negative unsigned
    "set pex_cache 8\n",                   // below the digest cap default
    "set pex_ttl 0\n",                     // entries must live
    "set pex_ttl -600\n",                  // negative TTL
    "set dht_k 0\n",                       // zero replication
    "set dht_alpha 0\n",                   // zero parallel lookups
    "set dht_hop_budget 0\n",              // walks could never move
    "set dht_hop_budget 64x\n",            // trailing garbage
    // cohorts
    "cohort\n",                            // missing everything
    "cohort a\n",                          // missing fields
    "cohort a share=no\n",                 // missing count
    "cohort a count=0\n",                  // zero members
    "cohort a count=4 color=red\n",        // unknown field
    "cohort a count=4 storage=5\n",        // not a range
    "cohort a count=4 storage=9..5\n",     // inverted range
    "cohort a count=4 storage=a..b\n",     // non-numeric range
    "cohort a count=4 liar=0.5\n",         // liar on sharing cohort
    "cohort a count=4 interest_top=0\n",   // empty interest cap
    "cohort a count=4 upload=1\n",         // below one slot
    "cohort a count=4\ncohort a count=4\n",// duplicate name
    "cohort a count=4 offline\n",          // bare key, no '='
    // events
    "at\n",                                // missing time and kind
    "at 100\n",                            // missing kind
    "at noon depart count=1\n",            // non-numeric time
    "at -5 depart count=1\n",              // negative time
    "at nan depart count=1\n",             // non-finite time
    "at inf depart count=1\n",             // non-finite time
    "set duration inf\n",                  // non-finite knob
    "set warmup nan\n",                    // non-finite knob
    "at 100 implode count=1\n",            // unknown kind
    "at 100 depart\n",                     // missing count
    "at 100 depart count=0\n",             // zero count
    "at 100 depart count=1 cohort=ghost\n",// unknown cohort
    "at 100 depart weight=0.5 count=1\n",  // misplaced key
    "at 1e9 depart count=1\n",             // beyond the run duration
    "at 100 flash_crowd weight=0.5 duration=10\n",       // missing category
    "at 100 flash_crowd category=0 duration=10\n",       // missing weight
    "at 100 flash_crowd category=0 weight=2 duration=10\n",  // weight > 1
    "at 100 flash_crowd category=99999 weight=0.5 duration=10\n",
    // u32 wrap-around must not silently target category 0
    "at 100 flash_crowd category=4294967296 weight=0.5 duration=10\n",
    // overlapping windows would cancel each other's spike
    "at 100 flash_crowd category=0 weight=0.5 duration=1000\n"
    "at 500 flash_crowd category=1 weight=0.8 duration=1000\n",
    "at 100 freeride\n",                   // missing fraction
    "at 100 freeride fraction=1.5\n",      // fraction > 1
    "at 100 churn interval=10\n",          // missing duration
    "at 100 churn duration=100 interval=0 depart_rate=1\n",  // zero interval
    "at 100 churn duration=5 interval=10 depart_rate=1\n",   // no tick fits
    "at 100 churn duration=100 interval=10\n",               // no rates
    "at 100 policy\n",                     // missing policy name
    "at 100 policy shortest-first max_ring=1\n",             // cap below 2
    "at 100 scheduler\n",                  // missing scheduler name
    // config-level inconsistencies reached through the scenario layer
    "set peers 1\n",                       // too few peers
    "set warmup 1\n",                      // warmup must be < 1
    "set max_categories 100000\n",         // beyond the catalog
    // fault events
    "at 100 crash\n",                      // missing count
    "at 100 crash count=0\n",              // zero victims
    "at 100 faults duration=10\n",         // no fault dimension at all
    "at 100 faults rate=0.1\n",            // rate needs a window duration
    "at 100 faults rate=-1 duration=10\n", // negative rate
    "at 100 faults lookup_loss=1 duration=10\n",   // loss must be < 1
    "at 100 faults kill_fraction=1.5\n",           // fraction > 1
    "cohort a count=10\n"
    "at 100 faults rate=0.1 duration=10 cohort=a\n",  // faults take no cohort
    "at 100 partition split=5\n",          // missing duration
    "at 100 partition duration=10\n",      // missing split
    "at 100 partition split=0 duration=10\n",      // empty left side
    "at 100 partition split=99999 duration=10\n",  // beyond the id space
    "at 100 partition split=5 duration=0\n",       // zero-length window
    "cohort a count=10\n"
    "at 100 partition split=5 duration=10 cohort=a\n",  // no cohort scope
    // overlapping fault / partition windows
    "at 100 faults rate=0.1 duration=1000\n"
    "at 500 faults rate=0.2 duration=1000\n",
    "at 100 partition split=5 duration=1000\n"
    "at 500 partition split=9 duration=1000\n",
    // fault knob ranges reached through the scenario layer
    "set session_fault_rate -1\n",
    "set lookup_loss 1\n",
    "set stale_lookup_ttl -5\n",
    "set retry_timeout 0\n",
    "set retry_backoff 0.5\n",
    "set retry_jitter 1\n",
    "set retry_max_attempts 0\n",
};

class ScenarioMalformed : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScenarioMalformed, RaisesScenarioError) {
  const std::string& text = kMalformed[GetParam()];
  EXPECT_THROW((void)Spec::parse_text(text, "fuzz.scn"), ScenarioError)
      << "accepted: " << text;
}

INSTANTIATE_TEST_SUITE_P(Corpus, ScenarioMalformed,
                         ::testing::Range<std::size_t>(0, kMalformed.size()));

// --- mutation fuzz ---

std::string valid_text() {
  return R"(scenario fuzz-base
base calibrated
set seed 7
set duration 9000
set categories 50
cohort a count=20 storage=5..20
cohort b count=20 share=no
at 1000 depart count=3 cohort=a
at 2000 flash_crowd category=2 weight=0.4 duration=500
at 3000 churn duration=2000 interval=100 depart_rate=0.001 arrive_rate=0.002
at 4000 crash count=2
at 5000 faults rate=0.001 lookup_loss=0.1 duration=500
at 6000 policy longest-first max_ring=4
at 7000 partition split=10 duration=300
)";
}

/// Parse must either succeed or throw ScenarioError; anything else
/// (crash, other exception type) fails the test.
void expect_parses_or_diagnoses(const std::string& text) {
  try {
    (void)Spec::parse_text(text, "mutated.scn");
  } catch (const ScenarioError&) {
    // expected failure mode
  }
}

TEST(ScenarioFuzz, TruncationsNeverCrash) {
  const std::string text = valid_text();
  for (std::size_t cut = 0; cut <= text.size(); ++cut)
    expect_parses_or_diagnoses(text.substr(0, cut));
}

class ScenarioMutationFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScenarioMutationFuzz, RandomEditsNeverCrash) {
  Rng rng(GetParam());
  const std::string base = valid_text();
  constexpr char kBytes[] = "azAZ09 .=#\n\t-_~!";
  for (int round = 0; round < 400; ++round) {
    std::string text = base;
    const std::size_t edits = 1 + rng.index(8);
    for (std::size_t e = 0; e < edits; ++e) {
      const std::size_t pos = rng.index(text.size());
      switch (rng.index(3)) {
        case 0:  // overwrite
          text[pos] = kBytes[rng.index(sizeof(kBytes) - 1)];
          break;
        case 1:  // insert
          text.insert(pos, 1, kBytes[rng.index(sizeof(kBytes) - 1)]);
          break;
        case 2:  // delete
          text.erase(pos, 1);
          break;
      }
    }
    expect_parses_or_diagnoses(text);
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, ScenarioMutationFuzz,
                         ::testing::ValuesIn(test::kScenarioFuzzSeeds),
                         test::fuzz_seed_name);

// --- fault storm: seeded fault schedules join the replay contract ---
//
// Each corpus seed derives a random fault schedule (crash storms,
// transfer-fault windows, one-shot kills, a partition) over a small
// population and runs it once with 8 worker threads configured. The
// run must reproduce the output digest pinned for the seed (see
// support/run_digest.h). The pins were recorded when 1, 2 and 8 threads
// still ran a speculative parallel engine and agreed bit for bit.

scenario::Spec storm_spec(std::uint64_t seed, std::size_t threads) {
  Rng rng(seed * 0xD1B54A32D192ED03ULL + 5);
  scenario::SpecBuilder b;
  b.name("fault-storm-" + std::to_string(seed));
  b.seed(seed);
  b.duration(3000.0);
  b.warmup(0.2);
  b.set("threads", std::to_string(threads));
  const std::size_t peers = 40 + rng.index(21);  // 40..60
  b.cohort({.name = "all", .count = peers});
  b.config().faults.retry.base_timeout = 10.0 + 10.0 * rng.uniform01();
  b.config().faults.retry.max_attempts = 1 + rng.index(3);
  b.config().faults.stale_lookup_ttl = 30.0 * rng.uniform01();
  // Crash storms.
  const std::size_t storms = 1 + rng.index(3);
  for (std::size_t i = 0; i < storms; ++i)
    b.crash_at(400.0 + 700.0 * static_cast<double>(i) + 50.0 * rng.uniform01(),
               1 + rng.index(5));
  // One fault window (rate and/or lookup loss) and one one-shot kill.
  b.faults_at(600.0 + 200.0 * rng.uniform01(),
              rng.chance(0.7) ? 0.002 + 0.004 * rng.uniform01() : 0.0,
              rng.chance(0.5) ? 0.3 * rng.uniform01() : 0.05, 400.0);
  b.faults_at(1800.0 + 100.0 * rng.uniform01(), 0.0, 0.0, 0.0,
              0.3 + 0.6 * rng.uniform01());
  // A partition window.
  b.partition_at(2200.0 + 100.0 * rng.uniform01(), 1 + rng.index(peers - 1),
                 300.0);
  return b.build();
}

/// Pinned run_digest per corpus seed (test::kFaultStormSeeds).
const std::map<std::uint64_t, std::string> kStormDigests = {
    {81, "6ad6b32c606b2d8a"},
    {82, "79c4d3b0dde0ab2a"},
    {83, "520616f5cc4c3d03"},
    {85, "58f2590f59bdc112"},
    {88, "7b1e2ce444187ea8"},
    {101, "5d833692933f849d"},
    {113, "fa39b8339cef7e6f"},
};

class FaultStorm : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultStorm, IdenticalAcrossThreadCounts) {
  const std::uint64_t seed = GetParam();
  scenario::Driver d(storm_spec(seed, 8));
  d.run();
  const System& s = d.system();
  s.check_invariants();
  // The schedule actually exercised the fault paths.
  EXPECT_GT(s.counters().peer_crashes, 0u) << "seed " << seed;
  EXPECT_GT(s.counters().sessions_failed, 0u) << "seed " << seed;
  ASSERT_EQ(kStormDigests.count(seed), 1u) << "no pin for seed " << seed;
  EXPECT_EQ(test::run_digest(s), kStormDigests.at(seed)) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Corpus, FaultStorm,
                         ::testing::ValuesIn(test::kFaultStormSeeds),
                         test::fuzz_seed_name);

}  // namespace
}  // namespace p2pex
