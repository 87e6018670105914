// Unit tests for core components: config validation, policy labels,
// lookup service, non-ring mixed exchange, metrics collector, hot-path
// sorting.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/config.h"
#include "core/lookup.h"
#include "core/nonring.h"
#include "core/policy.h"
#include "metrics/collector.h"
#include "util/rng.h"
#include "util/sort.h"

namespace p2pex {
namespace {

// --- stable_insertion_sort ---

TEST(StableInsertionSort, MatchesStdStableSortIncludingTies) {
  Rng rng(99);
  for (int round = 0; round < 50; ++round) {
    // (key, tag) pairs with many duplicate keys: stability means equal
    // keys keep their tag order, exactly like std::stable_sort.
    std::vector<std::pair<int, int>> a;
    const std::size_t len = rng.index(40);
    for (std::size_t i = 0; i < len; ++i)
      a.emplace_back(static_cast<int>(rng.index(5)), static_cast<int>(i));
    auto b = a;
    const auto by_key = [](const auto& x, const auto& y) {
      return x.first < y.first;
    };
    stable_insertion_sort(a.begin(), a.end(), by_key);
    std::stable_sort(b.begin(), b.end(), by_key);
    EXPECT_EQ(a, b) << "round " << round;
  }
}

// --- Config ---

TEST(Config, PaperDefaultsValidate) {
  EXPECT_NO_THROW(SimConfig::paper_defaults().validate());
  EXPECT_NO_THROW(SimConfig::calibrated_defaults().validate());
}

TEST(Config, DerivedSlots) {
  const SimConfig c = SimConfig::paper_defaults();
  EXPECT_EQ(c.upload_slots(), 8);     // 80 / 10
  EXPECT_EQ(c.download_slots(), 80);  // 800 / 10
  EXPECT_DOUBLE_EQ(c.slot_rate(), 1250.0);
  EXPECT_DOUBLE_EQ(c.warmup(), c.sim_duration * c.warmup_fraction);
}

TEST(Config, RejectsBadValues) {
  auto expect_bad = [](auto mutate) {
    SimConfig c = SimConfig::paper_defaults();
    mutate(c);
    EXPECT_THROW(c.validate(), ConfigError);
  };
  expect_bad([](SimConfig& c) { c.num_peers = 1; });
  expect_bad([](SimConfig& c) { c.nonsharing_fraction = 1.5; });
  expect_bad([](SimConfig& c) { c.upload_capacity_kbps = 5.0; });
  expect_bad([](SimConfig& c) { c.lookup_fraction = 0.0; });
  expect_bad([](SimConfig& c) { c.max_pending = 0; });
  expect_bad([](SimConfig& c) { c.max_ring_size = 1; });
  expect_bad([](SimConfig& c) { c.sim_duration = 0.0; });
  expect_bad([](SimConfig& c) { c.warmup_fraction = 1.0; });
  expect_bad([](SimConfig& c) { c.initial_fill_fraction = 0.0; });
  expect_bad([](SimConfig& c) { c.max_categories_per_peer = 1000; });
  expect_bad([](SimConfig& c) { c.bloom_fpp = 1.0; });
  // Fault-model knobs.
  expect_bad([](SimConfig& c) { c.faults.session_fault_rate = -0.1; });
  expect_bad([](SimConfig& c) { c.faults.lookup_loss = 1.0; });
  expect_bad([](SimConfig& c) { c.faults.stale_lookup_ttl = -1.0; });
  expect_bad([](SimConfig& c) { c.faults.retry.base_timeout = 0.0; });
  expect_bad([](SimConfig& c) { c.faults.retry.backoff = 0.5; });
  expect_bad([](SimConfig& c) { c.faults.retry.jitter = 1.0; });
  expect_bad([](SimConfig& c) { c.faults.retry.max_attempts = 0; });
}

TEST(Config, DescribeMentionsPolicy) {
  SimConfig c = SimConfig::paper_defaults();
  c.policy = ExchangePolicy::kLongestFirst;
  c.max_ring_size = 5;
  EXPECT_NE(c.describe().find("5-2-way"), std::string::npos);
}

// Bench headers print describe() as the experiment's operating point, so
// it must cover every knob; this pins the exact Table II rendering. If a
// knob is added to SimConfig, extend describe() and re-pin here.
TEST(Config, DescribePinsEveryKnob) {
  EXPECT_EQ(
      SimConfig::paper_defaults().describe(),
      "peers=200 nonsharing=0.5 dl=800kbps ul=80kbps slot=10kbps "
      "categories=300 f_cat=0.2 f_obj=0.2 object=20MB storage=[5,40] "
      "cats/peer=[1,8] fill=0.5 irq=1000 pending=6 lookup=0.5 providers=8 "
      "backend=oracle gossip=[30s,32,256,600s] dht=[8,3,64] "
      "policy=2-5-way attempts=8 scheduler=fifo liars=0 preemption=on "
      "tree=full-tree bloom=[64,0.02,256] search=30s evict=60s retry=60s "
      "fault_rate=0 lookup_loss=0 stale_ttl=60s retry_policy=[30s,x2,j0.25,4] "
      "duration=30000s warmup=0.2 seed=1 threads=1");
}

// --- Policy labels ---

TEST(Policy, PaperLabels) {
  EXPECT_EQ(policy_label(ExchangePolicy::kNoExchange, 5), "no exchange");
  EXPECT_EQ(policy_label(ExchangePolicy::kPairwiseOnly, 5), "pairwise");
  EXPECT_EQ(policy_label(ExchangePolicy::kShortestFirst, 5), "2-5-way");
  EXPECT_EQ(policy_label(ExchangePolicy::kLongestFirst, 7), "7-2-way");
}

TEST(Policy, ToStringCoversEnums) {
  EXPECT_EQ(to_string(SchedulerKind::kCredit), "credit");
  EXPECT_EQ(to_string(TreeMode::kBloom), "bloom");
  EXPECT_EQ(to_string(ExchangePolicy::kShortestFirst), "shortest-first");
}

// --- Lookup ---

/// The sampled lookup that LookupService::query ran before the oracle
/// backend took it over: each owner other than `except` is kept with
/// probability `fraction`, one draw per owner in ascending peer order,
/// and no draw at all at fraction 1.
std::vector<PeerId> sampled_owners(const LookupService& l, ObjectId object,
                                   PeerId except, double fraction, Rng& rng) {
  std::vector<PeerId> all = l.owners(object, except);
  if (fraction >= 1.0) return all;
  std::vector<PeerId> out;
  out.reserve(all.size());
  for (PeerId p : all)
    if (rng.chance(fraction)) out.push_back(p);
  return out;
}

TEST(Lookup, OwnersSortedAndExcluding) {
  LookupService l;
  l.add_owner(ObjectId{1}, PeerId{5});
  l.add_owner(ObjectId{1}, PeerId{2});
  l.add_owner(ObjectId{1}, PeerId{9});
  const auto owners = l.owners(ObjectId{1}, PeerId{5});
  ASSERT_EQ(owners.size(), 2u);
  EXPECT_EQ(owners[0], PeerId{2});
  EXPECT_EQ(owners[1], PeerId{9});
  EXPECT_EQ(l.owner_count(ObjectId{1}), 3u);
}

TEST(Lookup, RemoveOwnerAndPeer) {
  LookupService l;
  l.add_owner(ObjectId{1}, PeerId{1});
  l.add_owner(ObjectId{2}, PeerId{1});
  l.add_owner(ObjectId{2}, PeerId{2});
  l.remove_owner(ObjectId{1}, PeerId{1});
  EXPECT_EQ(l.owner_count(ObjectId{1}), 0u);
  l.remove_peer(PeerId{1});
  EXPECT_EQ(l.owner_count(ObjectId{2}), 1u);
}

TEST(Lookup, FullFractionReturnsAll) {
  LookupService l;
  Rng rng(1);
  for (std::uint32_t p = 0; p < 10; ++p) l.add_owner(ObjectId{7}, PeerId{p});
  const auto q = sampled_owners(l, ObjectId{7}, PeerId{0}, 1.0, rng);
  EXPECT_EQ(q.size(), 9u);
}

TEST(Lookup, PartialFractionSamples) {
  LookupService l;
  Rng rng(2);
  for (std::uint32_t p = 0; p < 200; ++p) l.add_owner(ObjectId{7}, PeerId{p});
  const auto q = sampled_owners(l, ObjectId{7}, PeerId{999}, 0.25, rng);
  EXPECT_GT(q.size(), 20u);
  EXPECT_LT(q.size(), 90u);
}

TEST(Lookup, UnknownObjectEmpty) {
  const LookupService l;
  Rng rng(3);
  EXPECT_TRUE(l.owners(ObjectId{42}, PeerId{0}).empty());
  EXPECT_TRUE(sampled_owners(l, ObjectId{42}, PeerId{0}, 1.0, rng).empty());
}

TEST(Lookup, ResultsIndependentOfInsertionOrder) {
  // Determinism regression: nothing about the index's internal order —
  // which depends on insertion history — may leak into results. Build
  // the same ownership facts through adversarial histories (ascending,
  // descending, interleaved with removals and re-adds) and require
  // identical owners() and sampled output.
  constexpr std::uint32_t kPeers = 64;
  constexpr std::uint32_t kObjects = 8;

  LookupService ascending;
  for (std::uint32_t o = 0; o < kObjects; ++o)
    for (std::uint32_t p = 0; p < kPeers; ++p)
      ascending.add_owner(ObjectId{o}, PeerId{p});

  LookupService descending;
  for (std::uint32_t o = kObjects; o-- > 0;)
    for (std::uint32_t p = kPeers; p-- > 0;)
      descending.add_owner(ObjectId{o}, PeerId{p});

  // Churned: insert everything twice as much, then strip the extras via
  // both removal paths so the final facts match the other two.
  LookupService churned;
  for (std::uint32_t o = 0; o < kObjects; ++o)
    for (std::uint32_t p = 0; p < 2 * kPeers; ++p)
      churned.add_owner(ObjectId{o}, PeerId{(p * 37) % (2 * kPeers)});
  for (std::uint32_t p = kPeers; p < 2 * kPeers; ++p)
    churned.remove_peer(PeerId{p});
  for (std::uint32_t o = 0; o < kObjects; ++o) {
    churned.remove_owner(ObjectId{o}, PeerId{0});
    churned.add_owner(ObjectId{o}, PeerId{0});
  }

  for (std::uint32_t o = 0; o < kObjects; ++o) {
    const auto want = ascending.owners(ObjectId{o}, PeerId{kPeers});
    EXPECT_EQ(descending.owners(ObjectId{o}, PeerId{kPeers}), want);
    EXPECT_EQ(churned.owners(ObjectId{o}, PeerId{kPeers}), want);
    // Sampled queries must agree too: identical seed, identical draw
    // sequence, regardless of container history.
    Rng ra(17), rd(17), rc(17);
    const auto qa = sampled_owners(ascending, ObjectId{o}, PeerId{3}, 0.5, ra);
    EXPECT_EQ(sampled_owners(descending, ObjectId{o}, PeerId{3}, 0.5, rd), qa);
    EXPECT_EQ(sampled_owners(churned, ObjectId{o}, PeerId{3}, 0.5, rc), qa);
  }
}

// --- Non-ring mixed exchange (Table I / Fig. 3) ---

TEST(NonRing, PaperScenarioFeasible) {
  const MixedExchange e = paper_table1_scenario();
  EXPECT_TRUE(e.feasible());
}

TEST(NonRing, PaperUtilityClaims) {
  const MixedExchange mixed = paper_table1_scenario();
  const MixedExchange pure = paper_table1_pure_pairwise();
  const ObjectId x{0}, y{1};
  // A (index 0) now receives x at 5 instead of not participating.
  EXPECT_DOUBLE_EQ(mixed.receive_rate(0, x), 5.0);
  EXPECT_DOUBLE_EQ(pure.receive_rate(0, x), 0.0);
  // B (index 1) receives y at 10 instead of 5.
  EXPECT_DOUBLE_EQ(mixed.receive_rate(1, y), 10.0);
  EXPECT_DOUBLE_EQ(pure.receive_rate(1, y), 5.0);
  // C is no worse off than in the pure exchange.
  EXPECT_DOUBLE_EQ(mixed.receive_rate(2, x), 5.0);
  EXPECT_DOUBLE_EQ(pure.receive_rate(2, x), 5.0);
  // D participates instead of being left out.
  EXPECT_DOUBLE_EQ(mixed.receive_rate(3, x), 5.0);
  EXPECT_DOUBLE_EQ(pure.receive_rate(3, x), 0.0);
}

TEST(NonRing, UploadBudgetsRespected) {
  const MixedExchange e = paper_table1_scenario();
  for (std::size_t i = 0; i < e.peers.size(); ++i)
    EXPECT_LE(e.upload_used(i), e.peers[i].upload_capacity + 1e-9);
  // A spends its full 10 units relaying.
  EXPECT_DOUBLE_EQ(e.upload_used(0), 10.0);
}

TEST(NonRing, OverBudgetInfeasible) {
  MixedExchange e = paper_table1_scenario();
  e.flows.push_back(MixedFlow{1, 3, ObjectId{0}, 5.0});  // B beyond budget
  EXPECT_FALSE(e.feasible());
}

TEST(NonRing, RelayFasterThanFeedInfeasible) {
  MixedExchange e = paper_table1_scenario();
  // A relays x at 8 while only receiving it at 5.
  e.flows[1].rate = 8.0;
  EXPECT_FALSE(e.feasible());
}

TEST(NonRing, DescribeListsFlows) {
  const std::string s = paper_table1_scenario().describe();
  EXPECT_NE(s.find("B -> A"), std::string::npos);
  EXPECT_NE(s.find("receives"), std::string::npos);
}

// --- Metrics collector ---

DownloadRecord dl(double issue, double complete, bool shares) {
  DownloadRecord r;
  r.peer = PeerId{1};
  r.object = ObjectId{1};
  r.peer_shares = shares;
  r.issue_time = issue;
  r.complete_time = complete;
  r.bytes = 100;
  return r;
}

SessionRecord sess(double start, double end, std::uint8_t ring,
                   Bytes bytes, bool requester_shares = true) {
  SessionRecord r;
  r.provider = PeerId{1};
  r.requester = PeerId{2};
  r.object = ObjectId{3};
  r.type = SessionType{ring};
  r.requester_shares = requester_shares;
  r.request_time = start - 10.0;
  r.start_time = start;
  r.end_time = end;
  r.bytes = bytes;
  return r;
}

TEST(Metrics, WarmupFiltersRecords) {
  MetricsCollector m(100.0);
  m.record_download(dl(50, 200, true));    // issued during warmup: dropped
  m.record_download(dl(150, 400, true));   // kept
  EXPECT_EQ(m.downloads_sharing(), 1u);
  EXPECT_DOUBLE_EQ(m.mean_download_time_sharing(), 250.0);
  m.record_session(sess(50, 60, 0, 10));   // started in warmup: dropped
  m.record_session(sess(150, 160, 2, 10));
  EXPECT_EQ(m.session_count(), 1u);
}

TEST(Metrics, ClassSplitAndRatio) {
  MetricsCollector m(0.0);
  m.record_download(dl(0, 100, true));
  m.record_download(dl(0, 300, false));
  EXPECT_DOUBLE_EQ(m.mean_download_time_sharing(), 100.0);
  EXPECT_DOUBLE_EQ(m.mean_download_time_nonsharing(), 300.0);
  EXPECT_DOUBLE_EQ(m.download_time_ratio(), 3.0);
  EXPECT_DOUBLE_EQ(m.mean_download_time_all(), 200.0);
}

TEST(Metrics, RatioZeroWhenClassMissing) {
  MetricsCollector m(0.0);
  m.record_download(dl(0, 100, true));
  EXPECT_DOUBLE_EQ(m.download_time_ratio(), 0.0);
}

TEST(Metrics, ExchangeFractionAndTypes) {
  MetricsCollector m(0.0);
  m.record_session(sess(0, 10, 0, 100));
  m.record_session(sess(0, 10, 2, 200));
  m.record_session(sess(0, 10, 3, 300));
  m.record_session(sess(0, 10, 2, 400));
  EXPECT_DOUBLE_EQ(m.exchange_session_fraction(), 0.75);
  EXPECT_EQ(m.session_count_by_type(SessionType{2}), 2u);
  const auto types = m.session_types();
  ASSERT_EQ(types.size(), 3u);
  EXPECT_EQ(types[0].ring_size, 0);
  EXPECT_EQ(types[2].ring_size, 3);
}

TEST(Metrics, PerTypeSamples) {
  MetricsCollector m(0.0);
  m.record_session(sess(100, 110, 2, 500));
  const auto& vol = m.volume_by_type(SessionType{2});
  ASSERT_EQ(vol.count(), 1u);
  EXPECT_DOUBLE_EQ(vol.mean(), 500.0);
  const auto& wait = m.waiting_by_type(SessionType{2});
  EXPECT_DOUBLE_EQ(wait.mean(), 10.0);
  EXPECT_EQ(m.volume_by_type(SessionType{5}).count(), 0u);
}

TEST(Metrics, SessionVolumeByRequesterClass) {
  MetricsCollector m(0.0);
  m.record_session(sess(0, 10, 0, 100, true));
  m.record_session(sess(0, 10, 0, 300, false));
  EXPECT_DOUBLE_EQ(m.mean_session_volume_sharing(), 100.0);
  EXPECT_DOUBLE_EQ(m.mean_session_volume_nonsharing(), 300.0);
}

TEST(Metrics, ConservationCounters) {
  MetricsCollector m(0.0);
  m.count_uploaded(500);
  m.count_downloaded(500);
  EXPECT_EQ(m.uploaded(), m.downloaded());
}

TEST(Metrics, SessionTypeNames) {
  EXPECT_EQ(SessionType{0}.name(), "non-exchange");
  EXPECT_EQ(SessionType{2}.name(), "pairwise");
  EXPECT_EQ(SessionType{4}.name(), "4-way");
  EXPECT_FALSE(SessionType{0}.is_exchange());
  EXPECT_TRUE(SessionType{2}.is_exchange());
}

}  // namespace
}  // namespace p2pex
