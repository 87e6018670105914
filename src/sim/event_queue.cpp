#include "sim/event_queue.h"

#include "util/assert.h"

namespace p2pex {

std::uint64_t EventQueue::push(Event e) {
  P2PEX_ASSERT_MSG(e.time >= last_pop_time_, "scheduling into the past");
  e.seq = next_seq_++;
  heap_.push(e);
  return e.seq;
}

const Event& EventQueue::top() const {
  P2PEX_ASSERT_MSG(!heap_.empty(), "peek on empty event queue");
  return heap_.top();
}

Event EventQueue::pop() {
  const Event e = top();
  heap_.pop();
  last_pop_time_ = e.time;
  return e;
}

}  // namespace p2pex
