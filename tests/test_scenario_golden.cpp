// Golden regressions for the scenario engine.
//
// Three guarantees pin the engine's semantics:
//  * a Spec with an empty timeline is EXACTLY a plain System run — the
//    Driver adds no randomness and perturbs no streams;
//  * a seeded churn scenario is deterministic: replaying it is bit-exact
//    (and a pinned replay guards against silent drift, re-record like
//    test_golden_paper.cpp when a mechanism change moves it);
//  * every examples/*.scn, under each discovery backend, reproduces one
//    pinned output digest (support/run_digest.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "scenario/driver.h"
#include "support/run_digest.h"
#include "support/scenario.h"

namespace p2pex {
namespace {

using scenario::Driver;
using scenario::Spec;
using scenario::SpecBuilder;

constexpr std::uint64_t kGoldenSeed = 42;  // matches test_golden_paper.cpp

// --- zero-event scenarios reproduce the plain-run goldens ---

TEST(ScenarioGolden, EmptyTimelineMatchesPlainRunBitExact) {
  SimConfig cfg = test::Scenario::small(kGoldenSeed).build();
  cfg.policy = ExchangePolicy::kShortestFirst;
  cfg.max_ring_size = 5;

  SpecBuilder b;
  b.name("golden-static");
  b.config() = cfg;
  Driver driver(b.build());
  driver.run();
  const RunResult via_scenario = summarize_run(driver.system());
  const RunResult plain = run_experiment(cfg);

  EXPECT_DOUBLE_EQ(via_scenario.exchange_fraction, plain.exchange_fraction);
  EXPECT_DOUBLE_EQ(via_scenario.mean_dl_minutes_sharing,
                   plain.mean_dl_minutes_sharing);
  EXPECT_DOUBLE_EQ(via_scenario.mean_dl_minutes_nonsharing,
                   plain.mean_dl_minutes_nonsharing);
  EXPECT_DOUBLE_EQ(via_scenario.dl_time_ratio, plain.dl_time_ratio);
  EXPECT_EQ(via_scenario.rings_formed, plain.rings_formed);
  EXPECT_EQ(via_scenario.completed_sharing, plain.completed_sharing);
  EXPECT_EQ(via_scenario.completed_nonsharing, plain.completed_nonsharing);

  // And the absolute values are the ones test_golden_paper.cpp pins.
  EXPECT_DOUBLE_EQ(via_scenario.exchange_fraction, 0.48492678725236865);
  EXPECT_EQ(via_scenario.rings_formed, 257u);
}

// --- seeded churn scenario: deterministic and pinned ---

Spec churn_spec() {
  SpecBuilder b;
  b.name("golden-churn");
  b.config() = test::Scenario::small(kGoldenSeed).build();
  b.churn(0.0, 9000.0, 120.0, 5e-4, 2e-3);
  b.flash_crowd(3000.0, CategoryId{0}, 0.5, 2000.0);
  b.freeride_wave(5000.0, 0.3, 2000.0);
  return b.build();
}

TEST(ScenarioGolden, ChurnReplayIsBitExact) {
  Driver a(churn_spec()), b(churn_spec());
  a.run();
  b.run();
  const RunResult ra = summarize_run(a.system());
  const RunResult rb = summarize_run(b.system());
  EXPECT_DOUBLE_EQ(ra.exchange_fraction, rb.exchange_fraction);
  EXPECT_DOUBLE_EQ(ra.mean_dl_minutes_sharing, rb.mean_dl_minutes_sharing);
  EXPECT_DOUBLE_EQ(ra.dl_time_ratio, rb.dl_time_ratio);
  EXPECT_EQ(ra.rings_formed, rb.rings_formed);
  EXPECT_EQ(ra.completed_total(), rb.completed_total());
  const SystemCounters& ca = a.system().counters();
  const SystemCounters& cb = b.system().counters();
  EXPECT_EQ(ca.peer_departures, cb.peer_departures);
  EXPECT_EQ(ca.peer_arrivals, cb.peer_arrivals);
  EXPECT_EQ(ca.sharing_flips, cb.sharing_flips);
  EXPECT_EQ(ca.downloads_withdrawn, cb.downloads_withdrawn);
  EXPECT_EQ(ca.sessions_started, cb.sessions_started);
  EXPECT_EQ(a.system().metrics().uploaded(), b.system().metrics().uploaded());
}

TEST(ScenarioGolden, ChurnGoldenReplay) {
  Driver driver(churn_spec());
  driver.run();
  const RunResult r = summarize_run(driver.system());
  const SystemCounters& c = driver.system().counters();

  // The timeline actually exercised dynamics.
  EXPECT_GT(c.peer_departures, 0u);
  EXPECT_GT(c.peer_arrivals, 0u);
  EXPECT_GE(c.sharing_flips, 2u);

  // Pinned replay (see the file header for how to re-record).
  EXPECT_EQ(c.peer_departures, 215u);
  EXPECT_EQ(c.sharing_flips, 18u);
  EXPECT_EQ(r.rings_formed, 284u);
  EXPECT_DOUBLE_EQ(r.exchange_fraction, 0.36767976278724984);
}

// --- seeded crash/fault scenario: deterministic and pinned ---

Spec crash_churn_spec() {
  SpecBuilder b;
  b.name("golden-crash-churn");
  b.config() = test::Scenario::small(kGoldenSeed).build();
  b.config().faults.stale_lookup_ttl = 45.0;
  b.config().faults.retry.base_timeout = 20.0;
  b.config().faults.retry.max_attempts = 2;
  b.crash_at(1500.0, 6);
  b.faults_at(2500.0, 0.004, 0.1, 2000.0);
  b.crash_at(5000.0, 8);
  b.faults_at(6000.0, 0.0, 0.0, 0.0, /*kill_fraction=*/0.5);
  b.partition_at(7000.0, 30, 1000.0);
  return b.build();
}

TEST(ScenarioGolden, CrashChurnReplayIsBitExact) {
  Driver a(crash_churn_spec()), b(crash_churn_spec());
  a.run();
  b.run();
  const SystemCounters& ca = a.system().counters();
  const SystemCounters& cb = b.system().counters();
  EXPECT_EQ(ca.peer_crashes, cb.peer_crashes);
  EXPECT_EQ(ca.sessions_failed, cb.sessions_failed);
  EXPECT_EQ(ca.transfer_retries, cb.transfer_retries);
  EXPECT_EQ(ca.retry_exhausted, cb.retry_exhausted);
  EXPECT_EQ(ca.stale_proposals, cb.stale_proposals);
  EXPECT_EQ(ca.partition_collapses, cb.partition_collapses);
  EXPECT_EQ(ca.downloads_completed, cb.downloads_completed);
  EXPECT_EQ(a.system().metrics().uploaded(), b.system().metrics().uploaded());
  EXPECT_DOUBLE_EQ(summarize_run(a.system()).exchange_fraction,
                   summarize_run(b.system()).exchange_fraction);
}

TEST(ScenarioGolden, CrashChurnGoldenReplay) {
  Driver driver(crash_churn_spec());
  driver.run();
  const RunResult r = summarize_run(driver.system());
  const SystemCounters& c = driver.system().counters();

  // The timeline actually exercised every fault path.
  EXPECT_GT(c.sessions_failed, 0u);
  EXPECT_GT(c.transfer_retries, 0u);
  EXPECT_GT(c.partition_collapses, 0u);

  // Pinned replay (see the file header for how to re-record).
  EXPECT_EQ(c.peer_crashes, 14u);
  EXPECT_EQ(c.retry_exhausted, 194u);
  EXPECT_DOUBLE_EQ(r.exchange_fraction, 0.53322528363047006);
}

// --- decentralized discovery backends: deterministic and pinned ---
//
// The churn timeline rides on the same small config, with the lookup
// swapped for PEX gossip / the Kademlia DHT. Discovery is now partial,
// stale and charged for, so the run diverges from the oracle golden —
// these pins freeze each backend's own trajectory (and its new
// discovery counters) exactly like the oracle pins above.

Spec discovery_spec(discovery::BackendKind kind) {
  SpecBuilder b;
  b.name("golden-discovery");
  b.config() = test::Scenario::small(kGoldenSeed).build();
  b.config().discovery.backend = kind;
  b.churn(0.0, 9000.0, 120.0, 5e-4, 2e-3);
  b.crash_at(4000.0, 6);
  return b.build();
}

TEST(ScenarioGolden, PexGoldenReplay) {
  Driver driver(discovery_spec(discovery::BackendKind::kPex));
  driver.run();
  const SystemCounters& c = driver.system().counters();

  // Gossip ran and was charged; staleness actually bit.
  EXPECT_GT(c.gossip_rounds, 0u);
  EXPECT_GT(c.lookup_wire_bytes, 0u);
  EXPECT_EQ(c.dht_hops, 0u);

  // Pinned replay (see the file header for how to re-record).
  EXPECT_EQ(c.gossip_rounds, 300u);
  EXPECT_EQ(c.lookup_wire_bytes, 11729040u);
  EXPECT_EQ(c.lookup_misses, 16806u);
  EXPECT_EQ(c.stale_entries_served, 10969u);
  EXPECT_EQ(c.rings_formed, 301u);
  EXPECT_DOUBLE_EQ(summarize_run(driver.system()).exchange_fraction,
                   0.38584316446911865);
}

TEST(ScenarioGolden, DhtGoldenReplay) {
  Driver driver(discovery_spec(discovery::BackendKind::kDht));
  driver.run();
  const SystemCounters& c = driver.system().counters();

  // Walks routed and paid per hop.
  EXPECT_GT(c.dht_hops, 0u);
  EXPECT_GT(c.lookup_wire_bytes, 0u);
  EXPECT_EQ(c.gossip_rounds, 0u);

  // Pinned replay (see the file header for how to re-record). At this
  // scale (60 peers, full reachability outside events) every walk finds
  // a live route, so misses pin to zero.
  EXPECT_EQ(c.dht_hops, 647821u);
  EXPECT_EQ(c.lookup_wire_bytes, 93427952u);
  EXPECT_EQ(c.lookup_misses, 0u);
  EXPECT_EQ(c.rings_formed, 293u);
  EXPECT_DOUBLE_EQ(summarize_run(driver.system()).exchange_fraction,
                   0.3580071174377224);
}

// --- the example corpus: one pinned digest per scenario x backend ---
//
// Each examples/*.scn runs to completion with its discovery backend
// replaced, as `scenario_runner --lookup <backend>` does. The digest
// covers the summary line, the counter report and the deterministic
// metrics JSON, so any drift in what a shipped scenario computes fails
// here, named by scenario and backend.

struct ExampleCase {
  const char* scn;     ///< file name under examples/
  const char* lookup;  ///< discovery backend override
  const char* digest;  ///< pinned test::run_digest
};

void PrintTo(const ExampleCase& c, std::ostream* os) {
  *os << c.scn << " --lookup " << c.lookup;
}

constexpr ExampleCase kExampleCases[] = {
    {"crash_churn.scn", "oracle", "1d984baf48ef016f"},
    {"crash_churn.scn", "pex", "bf484975c338fc25"},
    {"crash_churn.scn", "dht", "8a94fbc52dece4cb"},
    {"dht_discovery.scn", "oracle", "b7da918dfe3f65bf"},
    {"dht_discovery.scn", "pex", "a0382f7f5e448527"},
    {"dht_discovery.scn", "dht", "2b1ac349b091a21b"},
    {"flash_crowd.scn", "oracle", "4afb3caf3670c89f"},
    {"flash_crowd.scn", "pex", "9b03df02e7c196ee"},
    {"flash_crowd.scn", "dht", "ec148eb27e123902"},
    {"freerider_wave.scn", "oracle", "d24640f3875122d7"},
    {"freerider_wave.scn", "pex", "571f5a7dbf9e96e1"},
    {"freerider_wave.scn", "dht", "5590073c8397e759"},
    {"heavy_churn.scn", "oracle", "174291ad977e4646"},
    {"heavy_churn.scn", "pex", "4057b800b6dbfb91"},
    {"heavy_churn.scn", "dht", "a4111fd8ffa9f070"},
    {"pex_discovery.scn", "oracle", "af9d8a33c73bac4e"},
    {"pex_discovery.scn", "pex", "fcb1444334d8a273"},
    {"pex_discovery.scn", "dht", "c7feb04d027314e0"},
};

class ExampleDigests : public ::testing::TestWithParam<ExampleCase> {};

TEST_P(ExampleDigests, MatchPinnedDigest) {
  const ExampleCase& c = GetParam();
  Spec spec = Spec::parse_file(std::string(P2PEX_EXAMPLES_DIR) + "/" + c.scn);
  spec.config.discovery.backend = scenario::parse_lookup_backend(c.lookup);
  Driver driver(std::move(spec));
  driver.run();
  EXPECT_EQ(test::run_digest(driver.system()), c.digest);
}

INSTANTIATE_TEST_SUITE_P(
    Examples, ExampleDigests, ::testing::ValuesIn(kExampleCases),
    [](const ::testing::TestParamInfo<ExampleCase>& tpi) {
      const std::string scn = tpi.param.scn;
      return scn.substr(0, scn.find('.')) + "_" + tpi.param.lookup;
    });

TEST(ExampleCorpus, EveryScenarioIsPinned) {
  std::vector<std::string> on_disk;
  for (const auto& entry :
       std::filesystem::directory_iterator(P2PEX_EXAMPLES_DIR))
    if (entry.path().extension() == ".scn")
      on_disk.push_back(entry.path().filename().string());
  std::sort(on_disk.begin(), on_disk.end());
  std::vector<std::string> pinned;
  for (const ExampleCase& c : kExampleCases)
    if (pinned.empty() || pinned.back() != c.scn) pinned.emplace_back(c.scn);
  EXPECT_EQ(on_disk, pinned) << "add a pinned case per backend for every "
                                "examples/*.scn";
}

}  // namespace
}  // namespace p2pex
