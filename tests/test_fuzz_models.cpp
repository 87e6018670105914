// Model-based randomized tests: drive the IRQ, Storage and Simulator
// with random operation sequences and compare every observable against a
// trivially correct reference model.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "catalog/storage.h"
#include "proto/irq.h"
#include "sim/simulator.h"
#include "support/fuzz_corpus.h"
#include "util/rng.h"

namespace p2pex {
namespace {

// --- IRQ vs reference map ---

class IrqFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IrqFuzz, MatchesReferenceModel) {
  Rng rng(GetParam());
  const std::size_t capacity = 1 + rng.index(20);
  IncomingRequestQueue irq(capacity);
  // Reference: insertion-ordered vector of keys (FIFO) + state map.
  std::vector<RequestKey> ref_order;
  std::map<RequestKey, RequestState> ref_state;

  for (int step = 0; step < 2000; ++step) {
    const RequestKey key{PeerId{static_cast<std::uint32_t>(rng.index(6))},
                         ObjectId{static_cast<std::uint32_t>(rng.index(6))}};
    switch (rng.index(4)) {
      case 0: {  // add
        IrqEntry e;
        e.requester = key.requester;
        e.object = key.object;
        const bool want_ok =
            ref_order.size() < capacity && ref_state.count(key) == 0;
        ASSERT_EQ(irq.add(e), want_ok) << "step " << step;
        if (want_ok) {
          ref_order.push_back(key);
          ref_state[key] = RequestState::kQueued;
        }
        break;
      }
      case 1: {  // remove
        const bool want_ok = ref_state.count(key) != 0;
        ASSERT_EQ(irq.remove(key), want_ok) << "step " << step;
        if (want_ok) {
          ref_state.erase(key);
          ref_order.erase(
              std::find(ref_order.begin(), ref_order.end(), key));
        }
        break;
      }
      case 2: {  // mutate state of an existing entry
        if (IrqEntry* e = irq.find(key)) {
          ASSERT_TRUE(ref_state.count(key));
          const auto next = static_cast<RequestState>(rng.index(3));
          e->state = next;
          ref_state[key] = next;
        } else {
          ASSERT_EQ(ref_state.count(key), 0u);
        }
        break;
      }
      case 3: {  // oldest_queued agrees with the reference FIFO
        const IrqEntry* got = irq.oldest_queued();
        const RequestKey* want = nullptr;
        for (const auto& k : ref_order)
          if (ref_state[k] == RequestState::kQueued) {
            want = &k;
            break;
          }
        if (want == nullptr) {
          ASSERT_EQ(got, nullptr);
        } else {
          ASSERT_NE(got, nullptr);
          ASSERT_EQ((RequestKey{got->requester, got->object}), *want);
        }
        break;
      }
    }
    ASSERT_EQ(irq.size(), ref_order.size());
    // FIFO order of entries matches the reference at every step.
    std::size_t i = 0;
    for (const IrqEntry& e : irq.entries()) {
      ASSERT_EQ((RequestKey{e.requester, e.object}), ref_order[i]);
      ++i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, IrqFuzz,
                         ::testing::ValuesIn(test::kIrqFuzzSeeds),
                         test::fuzz_seed_name);

// --- Storage vs reference set ---

class StorageFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StorageFuzz, MatchesReferenceModel) {
  Rng rng(GetParam());
  const std::size_t capacity = 1 + rng.index(10);
  Storage storage(capacity);
  std::set<ObjectId> ref;
  std::map<ObjectId, int> ref_pins;

  for (int step = 0; step < 2000; ++step) {
    const ObjectId o{static_cast<std::uint32_t>(rng.index(15))};
    switch (rng.index(5)) {
      case 0:
        ASSERT_EQ(storage.add(o), ref.insert(o).second);
        break;
      case 1: {
        const bool pinned = ref_pins.count(o) && ref_pins[o] > 0;
        if (pinned) break;  // removing pinned objects is a contract error
        ASSERT_EQ(storage.remove(o), ref.erase(o) != 0);
        break;
      }
      case 2:
        if (ref.count(o)) {
          storage.pin(o);
          ++ref_pins[o];
        }
        break;
      case 3:
        if (ref_pins.count(o) && ref_pins[o] > 0) {
          storage.unpin(o);
          if (--ref_pins[o] == 0) ref_pins.erase(o);
        }
        break;
      case 4: {  // eviction respects pins and lands at capacity
        const auto evicted = storage.evict_over_capacity(rng);
        for (ObjectId e : evicted) {
          ASSERT_TRUE(ref.count(e));
          ASSERT_FALSE(ref_pins.count(e) && ref_pins[e] > 0);
          ref.erase(e);
        }
        std::size_t pinned = 0;
        for (const auto& [k, v] : ref_pins)
          if (v > 0 && ref.count(k)) ++pinned;
        ASSERT_TRUE(storage.size() <= capacity ||
                    storage.size() <= pinned)
            << "eviction left unpinned overflow";
        break;
      }
    }
    ASSERT_EQ(storage.size(), ref.size());
    for (ObjectId x : ref) ASSERT_TRUE(storage.contains(x));
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, StorageFuzz,
                         ::testing::ValuesIn(test::kStorageFuzzSeeds),
                         test::fuzz_seed_name);

// --- Simulator vs reference multimap ---

class EventQueueFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// Random one-shot events, owner-side invalidation (a row generation bump
// makes every event queued for the row stale), one or two periodics and
// random run_until slice points, with scheduling and invalidation from
// inside handlers too, as the engine does. Times sit on a quarter-second
// grid: many events share an instant, and every sum stays exact.
TEST_P(EventQueueFuzz, PopsExactlyTheReferenceSchedule) {
  Rng rng(GetParam());
  Simulator sim;
  constexpr std::uint8_t kOneShot = 0;
  constexpr std::size_t kRows = 16;
  std::vector<std::uint64_t> generation(kRows, 0);
  // Current one-shot events: (time, seq) -> row, so FIFO within a time.
  std::map<std::pair<SimTime, std::uint64_t>, std::uint32_t> ref;
  std::uint64_t scheduled = 0;
  std::uint64_t invalidated = 0;
  std::uint64_t fired = 0;
  std::uint64_t dropped = 0;
  const auto grid = [&](std::size_t n) {
    return 0.25 * static_cast<double>(rng.index(n));
  };
  const auto schedule = [&] {
    const auto row = static_cast<std::uint32_t>(rng.index(kRows));
    const SimTime delay = grid(400);
    const std::uint64_t seq =
        sim.schedule_in(delay, kOneShot, row, generation[row]);
    ref.emplace(std::make_pair(sim.now() + delay, seq), row);
    ++scheduled;
  };
  const auto invalidate = [&] {
    const auto row = static_cast<std::uint32_t>(rng.index(kRows));
    ++generation[row];
    invalidated += std::erase_if(
        ref, [row](const auto& kv) { return kv.second == row; });
  };

  std::vector<SimTime> periods(1 + rng.index(2));
  for (std::size_t i = 0; i < periods.size(); ++i) {
    periods[i] = 0.25 + grid(40);
    sim.schedule_periodic(periods[i], static_cast<std::uint8_t>(1 + i));
  }
  std::vector<std::uint64_t> ticks(periods.size(), 0);

  SimTime last = 0.0;
  const auto dispatch = [&](const Event& e) {
    ASSERT_EQ(e.time, sim.now());
    ASSERT_GE(e.time, last) << "time went backwards";
    last = e.time;
    if (e.kind != kOneShot) {  // the k-th firing lands on k x period
      const std::size_t i = e.kind - 1u;
      ASSERT_EQ(e.time, static_cast<double>(++ticks[i]) * periods[i]);
      return;
    }
    if (e.generation != generation[e.row]) {
      ++dropped;  // invalidated: the owner ignores it
      return;
    }
    ASSERT_FALSE(ref.empty());
    ASSERT_EQ(ref.begin()->first, std::make_pair(e.time, e.seq));
    ASSERT_EQ(ref.begin()->second, e.row);
    ref.erase(ref.begin());
    ++fired;
    switch (rng.index(4)) {
      case 0: schedule(); break;
      case 1: invalidate(); break;
      default: break;
    }
  };

  for (int slice = 0; slice < 300; ++slice) {
    for (std::size_t ops = rng.index(12); ops > 0; --ops)
      rng.chance(0.7) ? schedule() : invalidate();
    const SimTime t_end = sim.now() + grid(60);
    sim.run_until(t_end, dispatch);
    if (HasFatalFailure()) return;
    ASSERT_EQ(sim.now(), t_end);
    // Every current event due by t_end fired...
    ASSERT_TRUE(ref.empty() || ref.begin()->first.first > t_end);
    // ...and every periodic occurrence up to t_end, parked ones included.
    for (std::size_t i = 0; i < periods.size(); ++i)
      ASSERT_EQ(ticks[i],
                static_cast<std::uint64_t>(std::floor(t_end / periods[i])));
  }
  // Drain: every event arrives exactly once; the current ones fired in
  // reference order, and exactly the invalidated ones were dropped.
  while (fired + dropped < scheduled) {
    sim.run_until(sim.now() + 100.0, dispatch);
    if (HasFatalFailure()) return;
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(fired + dropped, scheduled);
  EXPECT_EQ(dropped, invalidated);
  EXPECT_GT(fired, 0u);
  EXPECT_GT(dropped, 0u);
}

INSTANTIATE_TEST_SUITE_P(Corpus, EventQueueFuzz,
                         ::testing::ValuesIn(test::kEventQueueFuzzSeeds),
                         test::fuzz_seed_name);

}  // namespace
}  // namespace p2pex
