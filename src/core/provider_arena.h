// Struct-of-arrays arena for per-download discovered-provider rows.
//
// Every Download used to own two std::unordered_set<PeerId> (discovered
// owners and registered providers) plus a parallel watch-slot vector —
// three heap blocks and ~56 bytes of set header per download before the
// first element, with node allocations on top. At million-peer scale the
// download table dominates transient memory, so the per-download state is
// flattened into one arena of parallel arrays addressed by a {start, len}
// span on the Download:
//
//   providers_[i]   — the discovered owner, in lookup-return order. The
//                     request-target sample draws from the lookup-result
//                     vector, not from this copy, and the readers sort
//                     the span (snapshot rows, want_providers) or test
//                     membership, so no draw depends on the order;
//   registered_[i]  — whether a request is actually registered at that
//                     owner (IRQ entry exists): the old `registered` set
//                     as a flag column, valid because registration only
//                     ever targets discovered owners;
//   watch_slots_[i] — the row's slot in the owner's watcher list
//                     (System::watchers_), the old per-download
//                     watch_slots vector.
//
// Spans are recycled through exact-length freelists when a download
// finishes: the discovered-set size distribution is stationary under the
// closed-loop workload, so freed spans match future requests and the
// arena's high-water mark tracks the *live* download population instead
// of the cumulative request count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "util/assert.h"
#include "util/contracts.h"
#include "util/types.h"

namespace p2pex {

/// Arena of discovered-provider rows shared by every Download.
class ProviderArena {
 public:
  /// Allocates a span holding `providers` (order preserved), reusing a
  /// freed span of the same length when one exists. Registered flags
  /// and watch slots of the returned span are zeroed.
  std::uint32_t alloc(std::span<const PeerId> providers) {
    const auto len = narrow_u32(providers.size());
    std::uint32_t start;
    last_alloc_from_free_ = false;
    if (auto it = free_.find(len); it != free_.end() && !it->second.empty()) {
      start = it->second.back();
      it->second.pop_back();
      last_alloc_from_free_ = true;
      ++spans_reused_;
    } else {
      if (providers_.size() + len >=
          static_cast<std::size_t>(std::numeric_limits<std::uint32_t>::max()))
        throw std::overflow_error("ProviderArena overflow: 2^32 rows");
      // p2pex-lint: checked-narrowing (overflow throw above)
      start = static_cast<std::uint32_t>(providers_.size());
      providers_.resize(providers_.size() + len);
      registered_.resize(registered_.size() + len);
      watch_slots_.resize(watch_slots_.size() + len);
    }
    for (std::uint32_t i = 0; i < len; ++i) {
      providers_[start + i] = providers[i];
      registered_[start + i] = 0;
      watch_slots_[start + i] = 0;
    }
    live_rows_ += len;
    last_alloc_start_ = start;
    last_alloc_len_ = len;
    return start;
  }

  /// Returns a span to the freelist. The exact-length bucket means a
  /// future alloc of the same size reuses it verbatim.
  void release(std::uint32_t start, std::uint32_t len) {
    P2PEX_INVARIANT(static_cast<std::size_t>(start) + len <= providers_.size());
    P2PEX_INVARIANT(live_rows_ >= len);
    live_rows_ -= len;
    if (len != 0) free_[len].push_back(start);
  }

  /// Undoes the most recent alloc exactly (the download-rollback path):
  /// a span taken from a freelist bucket goes back on it (LIFO, so the
  /// bucket is restored verbatim); a freshly appended span is trimmed
  /// off the arena tail. Must be the very next arena call after alloc.
  void rollback_alloc(std::uint32_t start, std::uint32_t len) {
    P2PEX_ASSERT_MSG(start == last_alloc_start_ && len == last_alloc_len_,
                     "rollback_alloc must undo the most recent alloc");
    P2PEX_ASSERT(live_rows_ >= len);
    live_rows_ -= len;
    if (last_alloc_from_free_) {
      if (len != 0) {
        free_[len].push_back(start);
        --spans_reused_;
      }
      return;
    }
    providers_.resize(start);
    registered_.resize(start);
    watch_slots_.resize(start);
  }

  [[nodiscard]] std::span<const PeerId> providers(std::uint32_t start,
                                                  std::uint32_t len) const {
    return {providers_.data() + start, providers_.data() + start + len};
  }

  /// Index of `p` within the span, or `len` if absent. Rows are short
  /// (one lookup result), so a linear scan beats any side index.
  [[nodiscard]] std::uint32_t find(std::uint32_t start, std::uint32_t len,
                                   PeerId p) const {
    for (std::uint32_t i = 0; i < len; ++i)
      if (providers_[start + i] == p) return i;
    return len;
  }

  [[nodiscard]] bool registered(std::uint32_t row) const {
    return registered_[row] != 0;
  }
  void set_registered(std::uint32_t row, bool on) {
    registered_[row] = on ? 1 : 0;
  }

  [[nodiscard]] std::uint32_t watch_slot(std::uint32_t row) const {
    return watch_slots_[row];
  }
  void set_watch_slot(std::uint32_t row, std::uint32_t slot) {
    watch_slots_[row] = slot;
  }

  /// High-water arena rows ever materialized (freed spans included).
  [[nodiscard]] std::size_t table_rows() const { return providers_.size(); }
  /// Rows belonging to live downloads right now.
  [[nodiscard]] std::size_t live_rows() const { return live_rows_; }
  /// Spans served from a freelist instead of growing the arena.
  [[nodiscard]] std::uint64_t spans_reused() const { return spans_reused_; }

  /// Heap bytes held (capacities, incl. freelist buckets).
  [[nodiscard]] std::size_t memory_bytes() const {
    std::size_t free_bytes = 0;
    // p2pex-lint: order-insensitive (commutative sum over bucket sizes)
    for (const auto& [len, bucket] : free_)
      free_bytes += bucket.capacity() * sizeof(std::uint32_t) +
                    sizeof(void*) * 4;  // node + bucket overhead estimate
    return providers_.capacity() * sizeof(PeerId) +
           registered_.capacity() * sizeof(std::uint8_t) +
           watch_slots_.capacity() * sizeof(std::uint32_t) + free_bytes;
  }

 private:
  std::vector<PeerId> providers_;
  std::vector<std::uint8_t> registered_;
  std::vector<std::uint32_t> watch_slots_;
  /// Freed spans by exact length.
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> free_;
  std::size_t live_rows_ = 0;
  std::uint64_t spans_reused_ = 0;
  // Most recent alloc, for the exact rollback path.
  std::uint32_t last_alloc_start_ = 0;
  std::uint32_t last_alloc_len_ = 0;
  bool last_alloc_from_free_ = false;
};

}  // namespace p2pex
