// n-way exchange ring search (paper Section III-A).
//
// The request graph G has an edge A -> B labelled o when A has a
// registered request for o in B's IRQ; any cycle of length n is a
// feasible n-way exchange. A peer B searches its *request tree* — the
// peers transitively requesting from it, pruned to depth max_ring_size —
// for a peer P that owns an object B wants and that B discovered as a
// provider at lookup time. The tree path B -> C1 -> ... -> P then closes
// into a ring where each peer serves its tree child and P serves B.
//
// The search runs over a GraphSnapshot (flat CSR arrays, see
// graph_snapshot.h); all per-search working state (visited marks, parent
// pointers, frontier, path) lives in reusable finder scratch buffers, so
// a steady-state search performs no allocations beyond the returned
// proposals.
//
// Two search modes:
//  * kFullTree — exact search over the live graph (paper Section IV);
//    equivalent to perfectly fresh full request trees.
//  * kBloom — Section V's per-level Bloom summaries: the root detects
//    that a cycle *may* exist from its own merged summary, then
//    reconstructs the path with hop-by-hop next-hop lookups against each
//    child's summary. False positives send it down dead ends; summaries
//    are rebuilt periodically, so they can also be stale.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "core/graph_snapshot.h"
#include "core/policy.h"
#include "proto/bloom_summary.h"
#include "proto/token.h"
#include "util/types.h"

namespace p2pex {

/// Search statistics (Bloom-mode ablation reporting).
///
/// Glossary:
///  * `discovered`   — proposals found during searches, before any
///                     post-sort truncation to the candidate cap;
///  * `candidates`   — proposals actually returned to the caller
///                     (candidates <= discovered);
///  * a Bloom *walk* is one hop-by-hop reconstruction attempt for one
///    detection. Per walk, exactly one of: a reconstruction (the path
///    was rebuilt; it may still fail proposal validation when stale), a
///    dead end (the walk fizzled with budget to spare — a false positive
///    or staleness), or a budget exhaustion (the walk was cut short by
///    the hop budget, so nothing is known about the cycle);
///  * `bloom_branch_dead_ends` counts the finer-grained events inside
///    walks: a child summary endorsed a branch that was explored and
///    fizzled. One failed walk can contain many branch dead ends; budget
///    cutoffs are excluded.
struct FinderStats {
  std::uint64_t searches = 0;
  std::uint64_t discovered = 0;            ///< proposals found pre-truncation
  std::uint64_t candidates = 0;            ///< proposals returned to callers
  std::uint64_t bloom_detections = 0;      ///< level hits in root summary
  std::uint64_t bloom_reconstructions = 0; ///< paths successfully rebuilt
  std::uint64_t bloom_dead_ends = 0;       ///< whole walks that fizzled
  std::uint64_t bloom_branch_dead_ends = 0;///< endorsed branches that fizzled
  std::uint64_t bloom_budget_exhausted = 0;///< walks cut by the hop budget
  std::uint64_t nodes_visited = 0;

  friend constexpr bool operator==(const FinderStats&,
                                   const FinderStats&) = default;

  /// Field-wise accumulation (totals over several runs).
  constexpr FinderStats& operator+=(const FinderStats& d) {
    searches += d.searches;
    discovered += d.discovered;
    candidates += d.candidates;
    bloom_detections += d.bloom_detections;
    bloom_reconstructions += d.bloom_reconstructions;
    bloom_dead_ends += d.bloom_dead_ends;
    bloom_branch_dead_ends += d.bloom_branch_dead_ends;
    bloom_budget_exhausted += d.bloom_budget_exhausted;
    nodes_visited += d.nodes_visited;
    return *this;
  }
};

/// Finds candidate exchange rings rooted at a peer.
class ExchangeFinder {
 public:
  /// Next-hop lookups one Bloom reconstruction walk may spend before it
  /// is abandoned (bounds Section V token traffic per attempt).
  static constexpr std::size_t kDefaultBloomHopBudget = 256;

  /// `max_ring_size` — largest ring considered (paper: 5 by default).
  ExchangeFinder(ExchangePolicy policy, std::size_t max_ring_size,
                 TreeMode mode,
                 std::size_t bloom_hop_budget = kDefaultBloomHopBudget);

  /// Returns up to `max_candidates` well-formed ring proposals rooted at
  /// `root`, ordered per policy (kShortestFirst: ascending size;
  /// kLongestFirst: descending size). Empty under kNoExchange or when
  /// nothing closes. In kBloom mode, uses the last rebuilt summaries.
  [[nodiscard]] std::vector<RingProposal> find(const GraphSnapshot& view,
                                               PeerId root,
                                               std::size_t max_candidates);

  /// Rebuilds all per-peer per-level Bloom summaries from the live graph
  /// (kBloom mode; the System calls this on its periodic sweep, modelling
  /// incremental summary propagation latency). Also captures the child
  /// rows and their reverse (parent) index so later refreshes can
  /// propagate dirtiness level by level.
  void rebuild_summaries(const GraphSnapshot& view,
                         std::size_t expected_per_level, double fpp);

  /// Incremental form of rebuild_summaries: `dirty_rows` names the
  /// peers whose requester rows may have changed since the last
  /// rebuild/refresh. Only summary levels whose underlying rows moved
  /// are recomputed — level 1 of the dirty rows, then, per level k, the
  /// (reverse-reachable) peers with an affected child at level k-1 —
  /// producing summaries bit-identical to a full rebuild. Falls back to
  /// rebuild_summaries when the geometry changed or the dirty set
  /// covers most of the population.
  void refresh_summaries(const GraphSnapshot& view,
                         std::span<const PeerId> dirty_rows,
                         std::size_t expected_per_level, double fpp);

  /// Test/audit access to the per-peer summaries (kBloom mode).
  [[nodiscard]] const std::vector<BloomTreeSummary>& summaries() const {
    return summaries_;
  }

  /// Mid-run policy/ring-cap flip (scenario timelines). Stats and scratch
  /// survive; in kBloom mode the caller must rebuild_summaries() so the
  /// per-level summaries match a grown cap.
  void set_policy(ExchangePolicy policy, std::size_t max_ring_size);

  [[nodiscard]] const FinderStats& stats() const { return stats_; }
  [[nodiscard]] ExchangePolicy policy() const { return policy_; }
  [[nodiscard]] std::size_t max_ring_size() const { return max_ring_; }
  [[nodiscard]] std::size_t bloom_hop_budget() const { return hop_budget_; }

  /// Wire bytes one request would carry in the current mode: the full
  /// tree is counted by the caller (it knows tree sizes); this reports
  /// the per-request summary size in Bloom mode, 0 in full-tree mode.
  [[nodiscard]] std::size_t summary_wire_bytes(PeerId peer) const;

 private:
  std::vector<RingProposal> find_full(const GraphSnapshot& view, PeerId root,
                                      std::size_t max_candidates);
  std::vector<RingProposal> find_bloom(const GraphSnapshot& view, PeerId root,
                                       std::size_t max_candidates);

  /// Depth-first next-hop walk: find a path of exactly `remaining`
  /// further hops from `node` to `target`, guided by the children's
  /// Bloom levels, extending `path_`. Consumes from `budget`.
  bool reconstruct_hops(const GraphSnapshot& view, PeerId node, PeerId target,
                        std::size_t remaining, std::size_t& budget);

  /// Builds the proposal for tree path `path` (root first) closed by the
  /// last element serving `close_object` to the root. Returns nullopt if
  /// any hop lacks a usable request (possible in Bloom mode where hops
  /// are probabilistic).
  std::optional<RingProposal> make_proposal(const GraphSnapshot& view,
                                            std::span<const PeerId> path,
                                            ObjectId close_object) const;

  /// Grows the BFS scratch to cover `n` peers.
  void ensure_scratch(std::size_t n);

  ExchangePolicy policy_;
  std::size_t max_ring_;
  TreeMode mode_;
  std::size_t hop_budget_;
  FinderStats stats_;
  std::vector<BloomTreeSummary> summaries_;  ///< per peer, kBloom mode

  // --- incremental summary maintenance state (kBloom mode) ---
  // Geometry of the last build; a mismatch forces a full rebuild.
  std::size_t sum_expected_ = 0;
  double sum_fpp_ = 0.0;
  std::size_t sum_levels_ = 0;
  /// Requester rows as of the last rebuild/refresh (what the summaries
  /// were computed from).
  std::vector<std::vector<PeerId>> sum_children_;
  /// Reverse index over sum_children_ (in-range children only): peers
  /// whose summaries merge a given peer's levels.
  std::vector<std::vector<PeerId>> sum_parents_;
  // Refresh scratch: stamped affected-set dedupe + per-level worklists.
  std::vector<std::uint64_t> affected_stamp_;
  std::uint64_t affected_epoch_ = 0;
  std::vector<PeerId> affected_;
  std::vector<PeerId> next_affected_;

  /// Starts a new search generation; clears all stamped marks on the
  /// (astronomically rare) 32-bit wrap so stale stamps cannot collide.
  std::uint32_t next_stamp();

  // --- reusable per-search scratch (hot path: no per-call allocation) ---
  struct BloomHit {
    ObjectId object;
    PeerId provider;
    std::size_t level;  ///< ring size = level + 1
  };
  /// BFS tree bookkeeping, written once per discovered node.
  struct TreeSlot {
    PeerId parent;
    std::uint32_t depth;  ///< root = 1
  };
  /// Per-root closer mark: maps a visited provider straight to its
  /// subrange of closures_of(root) (O(1) instead of a binary search per
  /// visited node). Valid when stamp matches the current search.
  struct CloserSlot {
    std::uint32_t stamp = 0;
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
  };
  bool walk_cut_ = false;  ///< current Bloom walk hit the budget guard
  std::uint32_t stamp_ = 0;                ///< current search's mark value
  std::vector<std::uint32_t> visit_stamp_; ///< == stamp_ -> visited
  std::vector<TreeSlot> tree_;             ///< valid where visited
  std::vector<CloserSlot> closers_;        ///< valid where stamp matches
  std::vector<PeerId> frontier_;           ///< BFS queue (head index scan)
  std::vector<PeerId> path_;               ///< reconstructed ring path
  std::vector<BloomHit> hits_;             ///< Bloom detections per search
};

}  // namespace p2pex
