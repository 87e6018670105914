#include "proto/irq.h"

#include "util/assert.h"

namespace p2pex {

IncomingRequestQueue::IncomingRequestQueue(std::size_t capacity)
    : capacity_(capacity) {
  P2PEX_ASSERT_MSG(capacity >= 1, "zero-capacity IRQ");
}

bool IncomingRequestQueue::add(const IrqEntry& entry) {
  if (entries_.size() >= capacity_) return false;
  const RequestKey key{entry.requester, entry.object};
  if (by_key_.count(key) != 0) return false;
  entries_.push_back(entry);
  by_key_[key] = std::prev(entries_.end());
  return true;
}

bool IncomingRequestQueue::remove(RequestKey key) {
  const auto kit = by_key_.find(key);
  if (kit == by_key_.end()) return false;
  entries_.erase(kit->second);
  by_key_.erase(kit);
  return true;
}

IrqEntry* IncomingRequestQueue::find(RequestKey key) {
  const auto it = by_key_.find(key);
  return it == by_key_.end() ? nullptr : &*it->second;
}

const IrqEntry* IncomingRequestQueue::find(RequestKey key) const {
  const auto it = by_key_.find(key);
  return it == by_key_.end() ? nullptr : &*it->second;
}

IrqEntry* IncomingRequestQueue::oldest_queued() {
  for (auto& e : entries_)
    if (e.state == RequestState::kQueued) return &e;
  return nullptr;
}

}  // namespace p2pex
