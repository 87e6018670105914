// Time-ordered queue of plain event records.
//
// Determinism contract: events at equal timestamps fire in schedule order
// (FIFO within a timestamp), so a run is a pure function of (seed, config).
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "util/types.h"

namespace p2pex {

/// One scheduled event, held by value. The queue never interprets
/// `kind`, `row` or `generation`: they are what the owner's dispatch
/// function needs to find the row an event concerns and to tell whether
/// the event is still current.
struct Event {
  static constexpr std::uint8_t kOneShot = 0xFF;

  SimTime time = 0.0;
  std::uint64_t seq = 0;         ///< schedule order, from 1; FIFO tiebreak
  std::uint64_t generation = 0;  ///< the row's generation when scheduled
  std::uint32_t row = 0;         ///< owner-defined row id
  std::uint8_t kind = 0;         ///< owner-defined; dispatch switches on it
  std::uint8_t periodic = kOneShot;  ///< periodic slot, or kOneShot
};

/// Binary min-heap of events ordered by (time, seq).
class EventQueue {
 public:
  /// Pushes `e` stamped with the next seq and returns that seq (never 0).
  /// Requires `e.time` to be no earlier than the last popped time (no
  /// scheduling into the past).
  std::uint64_t push(Event e);

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }

  /// The earliest event. Requires !empty().
  [[nodiscard]] const Event& top() const;

  /// Removes and returns the earliest event. Requires !empty().
  Event pop();

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::uint64_t next_seq_ = 1;
  SimTime last_pop_time_ = 0.0;
};

}  // namespace p2pex
