#include "core/graph_snapshot.h"

#include <algorithm>
#include <numeric>
#include <type_traits>

#include "util/assert.h"
#include "util/contracts.h"
#include "util/sort.h"

namespace p2pex {

void GraphSnapshot::begin(std::size_t num_peers) {
  num_peers_ = num_peers;
  cursor_ = 0;
  patching_ = false;
  peer_open_ = false;
  open_rows_ = RowKind::kBoth;
  edge_requesters_.clear();
  edge_objects_.clear();
  closures_.clear();
  wants_.clear();
  edge_start_.clear();
  edge_len_.clear();
  closure_start_.clear();
  closure_len_.clear();
  want_start_.clear();
  want_len_.clear();
  edge_start_.reserve(num_peers);
  edge_len_.reserve(num_peers);
  closure_start_.reserve(num_peers);
  closure_len_.reserve(num_peers);
  want_start_.reserve(num_peers);
  want_len_.reserve(num_peers);
  edge_live_ = closure_live_ = want_live_ = 0;
  edge_mark_ = closure_mark_ = want_mark_ = 0;
}

void GraphSnapshot::add_edge(PeerId requester, ObjectId object) {
  P2PEX_INVARIANT_MSG(
      (cursor_ < num_peers_ || peer_open_) &&
          has_rows(open_rows_, RowKind::kEdges),
      "add_edge outside an open peer's edge row");
  edge_requesters_.push_back(requester);
  edge_objects_.push_back(object);
}

void GraphSnapshot::add_closure(PeerId provider, ObjectId object) {
  P2PEX_INVARIANT_MSG(
      (cursor_ < num_peers_ || peer_open_) &&
          has_rows(open_rows_, RowKind::kRoot),
      "add_closure outside an open peer's root rows");
  closures_.push_back(CloseEdge{provider, object});
}

void GraphSnapshot::add_want(ObjectId object, PeerId provider) {
  P2PEX_INVARIANT_MSG(
      (cursor_ < num_peers_ || peer_open_) &&
          has_rows(open_rows_, RowKind::kRoot),
      "add_want outside an open peer's root rows");
  wants_.push_back(WantEdge{object, provider});
}

void GraphSnapshot::seal_rows(std::uint32_t peer) {
  // Group the sealed root's closures by provider; stable so each
  // provider's objects stay in want (issue) order. Insertion sort: the
  // group is small and often pre-sorted, and std::stable_sort would
  // heap-allocate a merge buffer per peer per rebuild.
  stable_insertion_sort(
      closures_.begin() + static_cast<std::ptrdiff_t>(closure_mark_),
      closures_.end(), [](const CloseEdge& a, const CloseEdge& b) {
        return a.provider < b.provider;
      });
  const auto edge_end = narrow_u32(edge_requesters_.size());
  const auto closure_end = narrow_u32(closures_.size());
  const auto want_end = narrow_u32(wants_.size());
  if (patching_) {
    // Add the new length before subtracting the old so the arithmetic
    // stays non-negative (size_t) even when a row shrinks. A kind the
    // patch does not rewrite keeps its descriptors (and appended
    // nothing).
    if (has_rows(open_rows_, RowKind::kEdges)) {
      edge_live_ = edge_live_ + (edge_end - edge_mark_) - edge_len_[peer];
      edge_start_[peer] = edge_mark_;
      edge_len_[peer] = edge_end - edge_mark_;
    }
    if (has_rows(open_rows_, RowKind::kRoot)) {
      closure_live_ =
          closure_live_ + (closure_end - closure_mark_) - closure_len_[peer];
      want_live_ = want_live_ + (want_end - want_mark_) - want_len_[peer];
      closure_start_[peer] = closure_mark_;
      closure_len_[peer] = closure_end - closure_mark_;
      want_start_[peer] = want_mark_;
      want_len_[peer] = want_end - want_mark_;
    }
  } else {
    edge_start_.push_back(edge_mark_);
    edge_len_.push_back(edge_end - edge_mark_);
    closure_start_.push_back(closure_mark_);
    closure_len_.push_back(closure_end - closure_mark_);
    want_start_.push_back(want_mark_);
    want_len_.push_back(want_end - want_mark_);
    edge_live_ += edge_end - edge_mark_;
    closure_live_ += closure_end - closure_mark_;
    want_live_ += want_end - want_mark_;
  }
  edge_mark_ = edge_end;
  closure_mark_ = closure_end;
  want_mark_ = want_end;
}

void GraphSnapshot::next_peer() {
  P2PEX_INVARIANT_MSG(!patching_, "next_peer during a patch");
  P2PEX_INVARIANT_MSG(cursor_ < num_peers_, "next_peer past the last peer");
  seal_rows(narrow_u32(cursor_));
  ++cursor_;
}

void GraphSnapshot::finish() {
  P2PEX_ASSERT_MSG(cursor_ == num_peers_,
                   "finish before every peer was sealed");
}

void GraphSnapshot::begin_patch() {
  P2PEX_ASSERT_MSG(cursor_ == num_peers_ && !patching_,
                   "begin_patch on an unfinished snapshot");
  patching_ = true;
  peer_open_ = false;
}

void GraphSnapshot::patch_peer(PeerId p, RowKind rows) {
  P2PEX_INVARIANT_MSG(patching_ && !peer_open_, "patch_peer outside a patch");
  P2PEX_INVARIANT_MSG(p.value < num_peers_, "patch_peer beyond the population");
  patch_peer_ = p;
  open_rows_ = rows;
  peer_open_ = true;
  edge_mark_ = narrow_u32(edge_requesters_.size());
  closure_mark_ = narrow_u32(closures_.size());
  want_mark_ = narrow_u32(wants_.size());
}

void GraphSnapshot::seal_peer() {
  P2PEX_INVARIANT_MSG(patching_ && peer_open_, "seal_peer without patch_peer");
  seal_rows(patch_peer_.value);
  peer_open_ = false;
}

void GraphSnapshot::finish_patch() {
  P2PEX_ASSERT_MSG(patching_ && !peer_open_,
                   "finish_patch with an open peer");
  // O(num_peers) bookkeeping cross-check, audit builds only: the live
  // counters the compaction heuristic steers by must equal the sum of
  // the per-peer row lengths the patch just rewrote.
  P2PEX_EXPENSIVE_INVARIANT_MSG(
      edge_live_ == std::accumulate(edge_len_.begin(), edge_len_.end(),
                                    std::size_t{0}) &&
          closure_live_ == std::accumulate(closure_len_.begin(),
                                           closure_len_.end(),
                                           std::size_t{0}) &&
          want_live_ == std::accumulate(want_len_.begin(), want_len_.end(),
                                        std::size_t{0}),
      "patched live counters diverge from per-peer row lengths");
  patching_ = false;
  maybe_compact();
}

namespace {
/// Releases a retired compaction buffer: after the arena/scratch swap the
/// old arena — sized to the pre-compaction watermark, which the
/// compaction trigger guarantees is > 2x live — would otherwise pin that
/// watermark forever as scratch. Compactions are amortized-rare, so
/// re-growing the scratch at the next one costs one allocation.
template <class T>
void release_scratch(std::vector<T>& v) {
  v.clear();
  v.shrink_to_fit();
}
}  // namespace

void GraphSnapshot::maybe_compact() {
  // Per-table amortized compaction: a table is repacked (peer order)
  // when its slack exceeds its live size, so total arena size stays
  // within 2x live + slop and the repack cost amortizes over the
  // patches that created the slack. Scratch is sized to the *live* row
  // count, never the retired arena's capacity: reserving to capacity
  // would duplicate the peak watermark and pin it in both buffers for
  // the rest of the run.
  if (edge_requesters_.size() > 2 * edge_live_ + kCompactSlop) {
    scratch_requesters_.clear();
    scratch_objects_.clear();
    scratch_requesters_.reserve(edge_live_);
    scratch_objects_.reserve(edge_live_);
    for (std::size_t i = 0; i < num_peers_; ++i) {
      const std::uint32_t lo = edge_start_[i];
      const std::uint32_t hi = lo + edge_len_[i];
      edge_start_[i] = narrow_u32(scratch_requesters_.size());
      scratch_requesters_.insert(scratch_requesters_.end(),
                                 edge_requesters_.begin() + lo,
                                 edge_requesters_.begin() + hi);
      scratch_objects_.insert(scratch_objects_.end(),
                              edge_objects_.begin() + lo,
                              edge_objects_.begin() + hi);
    }
    edge_requesters_.swap(scratch_requesters_);
    edge_objects_.swap(scratch_objects_);
    release_scratch(scratch_requesters_);
    release_scratch(scratch_objects_);
  }
  if (closures_.size() > 2 * closure_live_ + kCompactSlop) {
    scratch_closures_.clear();
    scratch_closures_.reserve(closure_live_);
    for (std::size_t i = 0; i < num_peers_; ++i) {
      const std::uint32_t lo = closure_start_[i];
      const std::uint32_t hi = lo + closure_len_[i];
      closure_start_[i] = narrow_u32(scratch_closures_.size());
      scratch_closures_.insert(scratch_closures_.end(),
                               closures_.begin() + lo, closures_.begin() + hi);
    }
    closures_.swap(scratch_closures_);
    release_scratch(scratch_closures_);
  }
  if (wants_.size() > 2 * want_live_ + kCompactSlop) {
    scratch_wants_.clear();
    scratch_wants_.reserve(want_live_);
    for (std::size_t i = 0; i < num_peers_; ++i) {
      const std::uint32_t lo = want_start_[i];
      const std::uint32_t hi = lo + want_len_[i];
      want_start_[i] = narrow_u32(scratch_wants_.size());
      scratch_wants_.insert(scratch_wants_.end(), wants_.begin() + lo,
                            wants_.begin() + hi);
    }
    wants_.swap(scratch_wants_);
    release_scratch(scratch_wants_);
  }
}

std::size_t GraphSnapshot::memory_bytes() const {
  const auto vec_bytes = [](const auto& v) {
    return v.capacity() * sizeof(typename std::decay_t<decltype(v)>::value_type);
  };
  return vec_bytes(edge_start_) + vec_bytes(edge_len_) +
         vec_bytes(closure_start_) + vec_bytes(closure_len_) +
         vec_bytes(want_start_) + vec_bytes(want_len_) +
         vec_bytes(edge_requesters_) + vec_bytes(edge_objects_) +
         vec_bytes(closures_) + vec_bytes(wants_) +
         vec_bytes(scratch_requesters_) + vec_bytes(scratch_objects_) +
         vec_bytes(scratch_closures_) + vec_bytes(scratch_wants_);
}

ObjectId GraphSnapshot::request_between(PeerId provider,
                                        PeerId requester) const {
  const std::span<const PeerId> requesters = requesters_of(provider);
  for (std::size_t i = 0; i < requesters.size(); ++i)
    if (requesters[i] == requester)
      return edge_objects_[edge_start_[provider.value] + i];
  return ObjectId{};
}

std::span<const CloseEdge> GraphSnapshot::close_objects(
    PeerId root, PeerId provider) const {
  const std::span<const CloseEdge> all = closures_of(root);
  const auto lo = std::partition_point(
      all.begin(), all.end(),
      [provider](const CloseEdge& e) { return e.provider < provider; });
  auto hi = lo;
  while (hi != all.end() && hi->provider == provider) ++hi;
  return {lo, hi};
}

bool GraphSnapshot::rows_equal(const GraphSnapshot& other) const {
  if (num_peers_ != other.num_peers_) return false;
  const auto span_eq = [](auto a, auto b) {
    return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
  };
  for (std::uint32_t i = 0; i < num_peers_; ++i) {
    const PeerId p{i};
    if (!span_eq(requesters_of(p), other.requesters_of(p))) return false;
    if (!span_eq(edge_objects_of(p), other.edge_objects_of(p))) return false;
    if (!span_eq(closures_of(p), other.closures_of(p))) return false;
    if (!span_eq(want_providers(p), other.want_providers(p))) return false;
  }
  return true;
}

}  // namespace p2pex
