#include "sim/simulator.h"

namespace p2pex {

std::uint64_t Simulator::schedule_in(SimTime delay, std::uint8_t kind,
                                     std::uint32_t row,
                                     std::uint64_t generation) {
  P2PEX_ASSERT_MSG(delay >= 0.0, "negative delay");
  Event e;
  e.time = now_ + delay;
  e.generation = generation;
  e.row = row;
  e.kind = kind;
  return queue_.push(e);
}

void Simulator::schedule_periodic(SimTime period, std::uint8_t kind) {
  P2PEX_ASSERT_MSG(period > 0.0, "non-positive period");
  P2PEX_ASSERT_MSG(periodics_.size() < Event::kOneShot,
                   "too many periodic tasks");
  Periodic p;
  p.period = period;
  p.next = now_ + period;
  p.kind = kind;
  periodics_.push_back(p);
  arm(periodics_.size() - 1);
}

void Simulator::arm(std::size_t slot) {
  Periodic& p = periodics_[slot];
  Event e;
  e.time = p.next;
  e.kind = p.kind;
  e.periodic = static_cast<std::uint8_t>(slot);
  queue_.push(e);
  p.armed = true;
}

}  // namespace p2pex
