// Incoming Request Queue (IRQ), Section III.
//
// Every peer keeps an IRQ "where remote peers register their interest for
// a local file". The IRQ is bounded (paper: 1000 entries); registrations
// beyond the bound are refused. Entries are kept in FIFO arrival order
// (the order used to serve non-exchange transfers) and indexed by
// (requester, object) key.
#pragma once

#include <cstddef>
#include <list>
#include <unordered_map>

#include "proto/request.h"
#include "util/types.h"

namespace p2pex {

/// One registered request at a provider.
struct IrqEntry {
  PeerId requester;
  ObjectId object;
  DownloadId download;    ///< the requester-side download this feeds
  SimTime enqueue_time = 0.0;
  SimTime request_time = 0.0;  ///< when the requester first issued the
                               ///< object request (for waiting-time stats)
  RequestState state = RequestState::kQueued;
  SessionId session;      ///< valid iff state != kQueued
};

/// Bounded FIFO of registered requests with a by-key index. Iterators
/// remain valid across unrelated insert/erase (std::list semantics),
/// which the scheduler relies on.
class IncomingRequestQueue {
 public:
  explicit IncomingRequestQueue(std::size_t capacity);

  /// Registers a request; returns false (and does nothing) if the queue
  /// is full or an entry with the same (requester, object) key exists.
  bool add(const IrqEntry& entry);

  /// Removes the entry with the given key; returns false if absent.
  bool remove(RequestKey key);

  /// Finds an entry; nullptr if absent. The pointer is invalidated by
  /// removal of that entry only.
  [[nodiscard]] IrqEntry* find(RequestKey key);
  [[nodiscard]] const IrqEntry* find(RequestKey key) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Oldest queued (state == kQueued) entry, FIFO order; nullptr if none.
  [[nodiscard]] IrqEntry* oldest_queued();

  /// All entries in FIFO order.
  [[nodiscard]] const std::list<IrqEntry>& entries() const { return entries_; }
  [[nodiscard]] std::list<IrqEntry>& entries() { return entries_; }

  /// Estimated heap bytes held: list nodes plus the index map (hash
  /// node overhead approximated at two pointers per entry plus the
  /// bucket array). Deterministic inputs only — capacity/size, never
  /// addresses — so tests can pin budgets on it.
  [[nodiscard]] std::size_t memory_bytes() const {
    constexpr std::size_t kNodeOverhead = 2 * sizeof(void*);
    return entries_.size() * (sizeof(IrqEntry) + kNodeOverhead) +
           by_key_.size() *
               (sizeof(RequestKey) + sizeof(List::iterator) + kNodeOverhead) +
           by_key_.bucket_count() * sizeof(void*);
  }

 private:
  using List = std::list<IrqEntry>;

  std::size_t capacity_;
  List entries_;
  std::unordered_map<RequestKey, List::iterator> by_key_;
};

}  // namespace p2pex
