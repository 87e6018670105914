// Simulation clock and driver.
//
// A Simulator owns the event queue and the virtual clock. Model code
// schedules plain event records relative to `now()`; `run_until()` pops
// them in timestamp order and hands each to the caller's dispatch
// function. Control-plane interactions in p2pex (request registration,
// ring token walks) are synchronous function calls at the current
// instant, matching the paper's zero-latency control model; only data
// transfer progress and periodic maintenance consume simulated time.
//
// There is no cancellation: an owner that supersedes an event makes it
// stale on its own side (a row generation or a kept seq that no longer
// matches), and its dispatch function drops a stale event on arrival.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_queue.h"
#include "util/assert.h"
#include "util/types.h"

namespace p2pex {

/// Discrete-event simulation driver.
class Simulator {
 public:
  /// Current simulated time in seconds.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules a one-shot event `delay` seconds from now (delay >= 0)
  /// and returns its seq, which is never 0: an owner that keeps it can
  /// tell its pending event from one it has since superseded.
  std::uint64_t schedule_in(SimTime delay, std::uint8_t kind,
                            std::uint32_t row = 0,
                            std::uint64_t generation = 0);

  /// Dispatches an event of `kind` every `period` seconds, first at
  /// now()+period, for the simulator's lifetime. An occurrence is
  /// re-armed after its dispatch returns. One that falls past the
  /// current run_until() horizon parks instead; the next run_until()
  /// that reaches it re-arms it on entry (in registration order), at
  /// exactly the instant it parked on. Slicing a run therefore keeps
  /// every periodic instant, but a re-armed occurrence takes a fresh
  /// seq, so it can fall behind same-instant events scheduled before it.
  void schedule_periodic(SimTime period, std::uint8_t kind);

  /// Pops every event due at or before `t_end` in (time, seq) order,
  /// advancing now() to its time and calling `dispatch(const Event&)`;
  /// leaves now() == t_end.
  template <class Dispatch>
  void run_until(SimTime t_end, Dispatch&& dispatch) {
    P2PEX_ASSERT_MSG(t_end >= now_, "running backwards");
    for (std::size_t slot = 0; slot < periodics_.size(); ++slot)
      if (!periodics_[slot].armed && periodics_[slot].next <= t_end)
        arm(slot);
    while (!queue_.empty() && queue_.top().time <= t_end) {
      const Event e = queue_.pop();
      now_ = e.time;
      dispatch(e);
      if (e.periodic == Event::kOneShot) continue;
      Periodic& p = periodics_[e.periodic];
      p.next = now_ + p.period;
      p.armed = false;
      if (p.next <= t_end) arm(e.periodic);
    }
    now_ = t_end;
  }

 private:
  struct Periodic {
    SimTime period = 0.0;
    SimTime next = 0.0;  ///< next occurrence (queued or parked)
    std::uint8_t kind = 0;
    bool armed = false;  ///< an event for `next` sits in the queue
  };

  /// Queues periodic `slot`'s occurrence at its `next`.
  void arm(std::size_t slot);

  EventQueue queue_;
  std::vector<Periodic> periodics_;
  SimTime now_ = 0.0;
};

}  // namespace p2pex
