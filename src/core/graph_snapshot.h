// Immutable CSR snapshot of the request graph the ring search walks.
//
// The ring search (ExchangeFinder) visits every reachable peer of a
// request tree per search; querying the live System state per visit used
// to materialize a fresh std::vector (plus an O(N) seen-bitmap) per node,
// making one search O(N^2) in allocations. A GraphSnapshot flattens the
// three facts the finder consumes into contiguous arrays queried by span:
//
//  * requesters_of(p)      — labelled request edges (CSR rows),
//                            one edge per distinct usable requester with
//                            the object of its oldest usable request;
//  * close_objects(r, p)   — per-root ring-closure facts, grouped by
//                            provider (binary-searched subrange);
//  * want_providers(r)     — per-root candidate closers for Bloom-mode
//                            detection, grouped by wanted object.
//
// Rows live in per-table arenas addressed by per-peer {start, len}
// descriptors, which supports two maintenance paths:
//
//  * full build — begin()/add_*()/next_peer()/finish() fills the arenas
//    peer by peer (ids must be dense in [0, num_peers)), packing rows
//    contiguously;
//  * patch — begin_patch()/patch_peer()/add_*()/seal_peer()/
//    finish_patch() rewrites only dirty peers' rows by appending their
//    new rows at the arena tail and repointing the descriptors. Only
//    the row kinds a peer was dirtied with (RowKind) are rewritten; its
//    other rows, like every stable peer's, are untouched. The replaced
//    rows become slack, and finish_patch() compacts an arena
//    (amortized) when its slack exceeds its live size, so reads stay
//    branch-light spans.
//
// All storage is reused across rebuilds and patches, so steady-state
// maintenance performs no allocations once high-water capacity is
// reached. The System maintains the snapshot lazily from a dirty-peer
// set (see System::touch_graph); test fixtures rebuild from their naive
// scripted state on demand.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/types.h"

namespace p2pex {

/// One labelled request edge: `requester` has a usable (non-ring-bound)
/// request for `object` registered in the provider's IRQ.
struct GraphEdge {
  PeerId requester;
  ObjectId object;

  friend constexpr bool operator==(GraphEdge, GraphEdge) = default;
};

/// One ring-closure fact for a search root: `provider` owns `object`,
/// which the root wants and discovered at lookup time.
struct CloseEdge {
  PeerId provider;
  ObjectId object;

  friend constexpr bool operator==(CloseEdge, CloseEdge) = default;
};

/// One Bloom-mode closer candidate for a search root: `provider` can
/// close a ring by serving `object` to the root. Grouped by object in
/// the root's want order, providers ascending within an object.
struct WantEdge {
  ObjectId object;
  PeerId provider;

  friend constexpr bool operator==(WantEdge, WantEdge) = default;
};

/// The rows of one peer a mutation can move, as a bit set: kEdges is
/// its request-edge row as provider (requesters_of/edge_objects_of);
/// kRoot is its closure and want rows as search root
/// (closures_of/want_providers). kNone is the empty set.
enum class RowKind : std::uint8_t {
  kNone = 0,
  kEdges = 1,
  kRoot = 2,
  kBoth = 3,
};

constexpr RowKind operator|(RowKind a, RowKind b) {
  return static_cast<RowKind>(static_cast<std::uint8_t>(a) |
                              static_cast<std::uint8_t>(b));
}

/// Whether the set `rows` includes `kind`.
constexpr bool has_rows(RowKind rows, RowKind kind) {
  return (static_cast<std::uint8_t>(rows) & static_cast<std::uint8_t>(kind)) !=
         0;
}

class GraphSnapshot {
 public:
  // --- full build (strictly sequential: peer 0, 1, ..., n-1) ---

  /// Starts a rebuild for `num_peers` peers. Previously allocated
  /// capacity is kept.
  void begin(std::size_t num_peers);

  /// Appends a request edge of the peer currently being built (as
  /// provider). Call in IRQ first-arrival order, one edge per requester.
  void add_edge(PeerId requester, ObjectId object);

  /// Appends a closure fact of the peer currently being built (as root).
  /// Call in the root's want (issue) order; grouping by provider is done
  /// when the peer is sealed.
  void add_closure(PeerId provider, ObjectId object);

  /// Appends a Bloom closer candidate of the peer currently being built
  /// (as root). Call grouped by object in want order.
  void add_want(ObjectId object, PeerId provider);

  /// Seals the current peer's rows and advances to the next peer.
  void next_peer();

  /// Completes the build; every peer must have been sealed.
  void finish();

  // --- patch (rewrite only dirty peers' rows; any peer order) ---

  /// Starts a patch session on a finished snapshot (same peer count).
  void begin_patch();

  /// Begins rewriting `p`'s `rows`; feed them with add_edge (kEdges) and
  /// add_closure/add_want (kRoot) exactly as during a full build, then
  /// seal_peer(). Rows of a kind not in `rows` keep their current
  /// contents and must not be fed.
  void patch_peer(PeerId p, RowKind rows = RowKind::kBoth);

  /// Seals the peer opened by patch_peer(): repoints the descriptors of
  /// the patched kinds at the freshly appended rows (the old rows become
  /// arena slack).
  void seal_peer();

  /// Ends the patch session; compacts any arena whose slack exceeds its
  /// live size (amortized O(live) — rare by construction).
  void finish_patch();

  // --- queries (valid after finish()/finish_patch()) ---

  [[nodiscard]] std::size_t num_peers() const { return num_peers_; }

  /// Distinct requesters with a usable request at `provider`, in
  /// first-arrival order. Edge labels live in the parallel
  /// edge_objects_of() span (structure-of-arrays: the BFS streams only
  /// requester ids; labels are touched only when a proposal is built).
  [[nodiscard]] std::span<const PeerId> requesters_of(PeerId provider) const {
    return row(edge_requesters_, edge_start_, edge_len_, provider);
  }

  /// Labels parallel to requesters_of(): the object of each requester's
  /// oldest usable request.
  [[nodiscard]] std::span<const ObjectId> edge_objects_of(
      PeerId provider) const {
    return row(edge_objects_, edge_start_, edge_len_, provider);
  }

  /// The object of the oldest usable request `requester` registered at
  /// `provider`; invalid ObjectId if none.
  [[nodiscard]] ObjectId request_between(PeerId provider,
                                         PeerId requester) const;

  /// All of `root`'s closure facts, grouped by provider (ascending),
  /// want order within a provider.
  [[nodiscard]] std::span<const CloseEdge> closures_of(PeerId root) const {
    return row(closures_, closure_start_, closure_len_, root);
  }

  /// Objects `provider` can close a ring with for `root`, in want order.
  [[nodiscard]] std::span<const CloseEdge> close_objects(PeerId root,
                                                         PeerId provider) const;

  /// `root`'s candidate ring closers (Bloom-mode detection input).
  [[nodiscard]] std::span<const WantEdge> want_providers(PeerId root) const {
    return row(wants_, want_start_, want_len_, root);
  }

  /// Live (reachable) row entries — excludes patch slack.
  [[nodiscard]] std::size_t num_edges() const { return edge_live_; }
  [[nodiscard]] std::size_t num_closures() const { return closure_live_; }
  [[nodiscard]] std::size_t num_wants() const { return want_live_; }

  /// Unreachable arena entries left behind by patches (compaction
  /// bounds each table's slack by live + kCompactSlop).
  [[nodiscard]] std::size_t edge_slack() const {
    return edge_requesters_.size() - edge_live_;
  }
  [[nodiscard]] std::size_t closure_slack() const {
    return closures_.size() - closure_live_;
  }
  [[nodiscard]] std::size_t want_slack() const {
    return wants_.size() - want_live_;
  }

  /// Heap bytes held by every descriptor table, arena and compaction
  /// scratch buffer (capacity, not size — what the process actually
  /// pays). The capacity-budget tests pin this against live rows so a
  /// reintroduced watermark-pinning bug fails instead of showing up as
  /// RSS creep on long churn runs.
  [[nodiscard]] std::size_t memory_bytes() const;

  /// Logical row-wise equality (every peer's three rows and edge
  /// labels), independent of arena layout. Used by the
  /// P2PEX_SNAPSHOT_AUDIT cross-check and the patch fuzz suites.
  [[nodiscard]] bool rows_equal(const GraphSnapshot& other) const;

  /// Slack beyond which finish_patch() compacts an arena: slack >
  /// live + kCompactSlop. The slop keeps tiny snapshots from compacting
  /// on every patch.
  static constexpr std::size_t kCompactSlop = 64;

 private:
  template <class T>
  [[nodiscard]] std::span<const T> row(const std::vector<T>& items,
                                       const std::vector<std::uint32_t>& start,
                                       const std::vector<std::uint32_t>& len,
                                       PeerId peer) const {
    const std::uint32_t lo = start[peer.value];
    return {items.data() + lo, items.data() + lo + len[peer.value]};
  }

  /// Seals the rows appended since the current peer's marks: sorts the
  /// closure group and writes the peer's descriptors of kinds open_rows_.
  void seal_rows(std::uint32_t peer);

  void maybe_compact();

  std::size_t num_peers_ = 0;
  std::size_t cursor_ = 0;   ///< peer currently being built (full build)
  bool patching_ = false;    ///< inside begin_patch()..finish_patch()
  bool peer_open_ = false;   ///< inside patch_peer()..seal_peer()
  PeerId patch_peer_;        ///< peer currently being patched
  RowKind open_rows_ = RowKind::kBoth;  ///< kinds the open peer rewrites

  // Arena marks where the currently open peer's rows start.
  std::uint32_t edge_mark_ = 0;
  std::uint32_t closure_mark_ = 0;
  std::uint32_t want_mark_ = 0;

  // Per-peer row descriptors (size n once finished).
  std::vector<std::uint32_t> edge_start_, edge_len_;
  std::vector<std::uint32_t> closure_start_, closure_len_;
  std::vector<std::uint32_t> want_start_, want_len_;

  // Arenas (parallel SoA for edges) + live-entry counts.
  std::vector<PeerId> edge_requesters_;
  std::vector<ObjectId> edge_objects_;
  std::vector<CloseEdge> closures_;
  std::vector<WantEdge> wants_;
  std::size_t edge_live_ = 0;
  std::size_t closure_live_ = 0;
  std::size_t want_live_ = 0;

  // Compaction scratch, swapped with the arenas so capacity ping-pongs
  // instead of reallocating.
  std::vector<PeerId> scratch_requesters_;
  std::vector<ObjectId> scratch_objects_;
  std::vector<CloseEdge> scratch_closures_;
  std::vector<WantEdge> scratch_wants_;
};

}  // namespace p2pex
