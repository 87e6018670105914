#include "core/exchange_finder.h"

#include <algorithm>

#include "util/assert.h"
#include "util/contracts.h"
#include "util/sort.h"

namespace p2pex {

ExchangeFinder::ExchangeFinder(ExchangePolicy policy,
                               std::size_t max_ring_size, TreeMode mode,
                               std::size_t bloom_hop_budget)
    : policy_(policy),
      max_ring_(max_ring_size),
      mode_(mode),
      hop_budget_(bloom_hop_budget) {
  if (policy == ExchangePolicy::kPairwiseOnly) max_ring_ = 2;
  P2PEX_ASSERT_MSG(hop_budget_ > 0, "bloom hop budget must be positive");
}

void ExchangeFinder::set_policy(ExchangePolicy policy,
                                std::size_t max_ring_size) {
  policy_ = policy;
  max_ring_ = policy == ExchangePolicy::kPairwiseOnly ? 2 : max_ring_size;
}

std::vector<RingProposal> ExchangeFinder::find(const GraphSnapshot& view,
                                               PeerId root,
                                               std::size_t max_candidates) {
  if (policy_ == ExchangePolicy::kNoExchange || max_candidates == 0) return {};
  ++stats_.searches;
  auto out = mode_ == TreeMode::kFullTree
                 ? find_full(view, root, max_candidates)
                 : find_bloom(view, root, max_candidates);
  stats_.candidates += out.size();
  return out;
}

std::optional<RingProposal> ExchangeFinder::make_proposal(
    const GraphSnapshot& view, std::span<const PeerId> path,
    ObjectId close_object) const {
  RingProposal proposal;
  proposal.links.reserve(path.size());
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const ObjectId o = view.request_between(path[i], path[i + 1]);
    if (!o.valid()) return std::nullopt;
    proposal.links.push_back(RingLink{path[i], path[i + 1], o});
  }
  proposal.links.push_back(RingLink{path.back(), path.front(), close_object});
  if (!proposal.well_formed()) return std::nullopt;
  return proposal;
}

void ExchangeFinder::ensure_scratch(std::size_t n) {
  if (visit_stamp_.size() < n) {
    visit_stamp_.resize(n, 0);
    tree_.resize(n);
    closers_.resize(n);
  }
}

std::uint32_t ExchangeFinder::next_stamp() {
  if (++stamp_ == 0) {
    std::fill(visit_stamp_.begin(), visit_stamp_.end(), 0u);
    for (CloserSlot& c : closers_) c.stamp = 0;
    stamp_ = 1;
  }
  return stamp_;
}

std::vector<RingProposal> ExchangeFinder::find_full(
    const GraphSnapshot& view, PeerId root, std::size_t max_candidates) {
  // BFS over requester edges with a global visited set: each peer is
  // reached along one (shortest) path, matching the paper's "peers always
  // pick the first feasible exchange in the search process".
  const std::size_t n = view.num_peers();
  ensure_scratch(n);
  const std::uint32_t stamp = next_stamp();

  // Mark the root's ring closers up front so the per-visit closure check
  // is one stamped array probe instead of a search.
  const std::span<const CloseEdge> closures = view.closures_of(root);
  for (std::size_t i = 0; i < closures.size();) {
    std::size_t j = i + 1;
    while (j < closures.size() &&
           closures[j].provider == closures[i].provider)
      ++j;
    if (closures[i].provider.value < n) {
      CloserSlot& c = closers_[closures[i].provider.value];
      c.stamp = stamp;
      c.lo = narrow_u32(i);
      c.hi = narrow_u32(j);
    }
    i = j;
  }

  std::vector<RingProposal> out;
  frontier_.clear();
  std::size_t head = 0;
  visit_stamp_[root.value] = stamp;
  tree_[root.value] = TreeSlot{PeerId{}, 1};
  frontier_.push_back(root);

  const bool shortest_first = policy_ != ExchangePolicy::kLongestFirst;

  while (head < frontier_.size()) {
    const PeerId x = frontier_[head++];
    ++stats_.nodes_visited;
    const std::uint32_t d = tree_[x.value].depth;

    if (x != root && closers_[x.value].stamp == stamp) {
      const CloserSlot& c = closers_[x.value];
      for (std::uint32_t ci = c.lo; ci < c.hi; ++ci) {
        // Reconstruct the path root -> ... -> x from parent pointers.
        path_.clear();
        for (PeerId p = x; p != root; p = tree_[p.value].parent)
          path_.push_back(p);
        path_.push_back(root);
        std::reverse(path_.begin(), path_.end());
        if (auto proposal = make_proposal(view, path_, closures[ci].object)) {
          out.push_back(std::move(*proposal));
          ++stats_.discovered;
          if (shortest_first && out.size() >= max_candidates) return out;
        }
      }
    }

    if (d >= max_ring_) continue;  // children would exceed the ring cap
    for (const PeerId child : view.requesters_of(x)) {
      if (child.value >= n || visit_stamp_[child.value] == stamp) continue;
      visit_stamp_[child.value] = stamp;
      tree_[child.value] = TreeSlot{x, d + 1};
      frontier_.push_back(child);
    }
  }

  if (!shortest_first) {
    // kLongestFirst: prefer the deepest rings; stable to keep BFS order
    // within a size class (allocation-free insertion sort: candidate
    // lists are small and proposals move cheaply).
    stable_insertion_sort(out.begin(), out.end(),
                          [](const RingProposal& a, const RingProposal& b) {
                            return a.size() > b.size();
                          });
    if (out.size() > max_candidates) out.resize(max_candidates);
  }
  return out;
}

void ExchangeFinder::rebuild_summaries(const GraphSnapshot& view,
                                       std::size_t expected_per_level,
                                       double fpp) {
  const std::size_t n = view.num_peers();
  const std::size_t levels = max_ring_ >= 2 ? max_ring_ - 1 : 1;
  summaries_.clear();
  summaries_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    summaries_.emplace_back(levels, expected_per_level, fpp);

  // Capture the rows the summaries are derived from, plus their reverse
  // index, so refresh_summaries() can propagate a dirty set level by
  // level later. resize+clear (not assign) keeps per-slot capacity.
  sum_expected_ = expected_per_level;
  sum_fpp_ = fpp;
  sum_levels_ = levels;
  sum_children_.resize(n);
  sum_parents_.resize(n);
  affected_stamp_.resize(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    sum_children_[i].clear();
    sum_parents_[i].clear();
  }

  // Level 1: each peer's direct requesters, plus the reverse index.
  for (std::size_t i = 0; i < n; ++i) {
    const PeerId p{narrow_u32(i)};
    const std::span<const PeerId> row = view.requesters_of(p);
    sum_children_[i].assign(row.begin(), row.end());
    for (const PeerId r : row) {
      summaries_[i].insert(1, r);
      if (r.value < n) sum_parents_[r.value].push_back(p);
    }
  }

  // Level k = union of the children's level k-1 filters — exactly the
  // protocol's merge of forwarded summaries, so false positives compound
  // with depth as they would on the wire. Writing level k only reads
  // level k-1 (distinct storage even on the same summary), so in-place
  // iteration is sound.
  for (std::size_t k = 2; k <= levels; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      for (const PeerId r : sum_children_[i]) {
        if (r.value >= n) continue;
        summaries_[i].merge_into_level(k, summaries_[r.value].level(k - 1));
      }
    }
  }
}

void ExchangeFinder::refresh_summaries(const GraphSnapshot& view,
                                       std::span<const PeerId> dirty_rows,
                                       std::size_t expected_per_level,
                                       double fpp) {
  const std::size_t n = view.num_peers();
  const std::size_t levels = max_ring_ >= 2 ? max_ring_ - 1 : 1;
  // A geometry change (population, level count, filter sizing) or a
  // majority-dirty set gets no benefit from propagation: start over.
  if (summaries_.size() != n || sum_levels_ != levels ||
      sum_expected_ != expected_per_level || sum_fpp_ != fpp ||
      dirty_rows.size() * 2 >= n) {
    rebuild_summaries(view, expected_per_level, fpp);
    return;
  }

  // Re-point the captured rows and their reverse index at the current
  // graph. Clean peers' rows are — by the dirty-set contract —
  // unchanged, so the stale index stays exact for them; dirty peers are
  // recomputed at every level regardless.
  for (const PeerId p : dirty_rows) {
    P2PEX_INVARIANT_MSG(p.value < n, "dirty row beyond the population");
    for (const PeerId c : sum_children_[p.value]) {
      if (c.value >= n) continue;
      std::vector<PeerId>& parents = sum_parents_[c.value];
      const auto it = std::find(parents.begin(), parents.end(), p);
      P2PEX_INVARIANT_MSG(it != parents.end(), "summary reverse index broken");
      *it = parents.back();  // order-free: merges are commutative unions
      parents.pop_back();
    }
    const std::span<const PeerId> row = view.requesters_of(p);
    sum_children_[p.value].assign(row.begin(), row.end());
    for (const PeerId c : row)
      if (c.value < n) sum_parents_[c.value].push_back(p);
  }

  // Level 1: only the dirty rows' own requester sets moved.
  for (const PeerId p : dirty_rows) {
    BloomTreeSummary& s = summaries_[p.value];
    s.clear_level(1);
    for (const PeerId c : sum_children_[p.value]) s.insert(1, c);
  }

  // Level k: a peer's level k moved iff its own row changed or some
  // child's level k-1 moved — the reverse index walks exactly that
  // frontier. Recomputation is clear + re-merge, which reproduces a
  // from-scratch build bit for bit (unions are order-independent).
  affected_.assign(dirty_rows.begin(), dirty_rows.end());
  for (std::size_t k = 2; k <= levels; ++k) {
    ++affected_epoch_;
    next_affected_.clear();
    for (const PeerId p : dirty_rows) {
      if (affected_stamp_[p.value] == affected_epoch_) continue;
      affected_stamp_[p.value] = affected_epoch_;
      next_affected_.push_back(p);
    }
    for (const PeerId c : affected_) {
      if (c.value >= n) continue;
      for (const PeerId q : sum_parents_[c.value]) {
        if (affected_stamp_[q.value] == affected_epoch_) continue;
        affected_stamp_[q.value] = affected_epoch_;
        next_affected_.push_back(q);
      }
    }
    for (const PeerId q : next_affected_) {
      BloomTreeSummary& s = summaries_[q.value];
      s.clear_level(k);
      for (const PeerId c : sum_children_[q.value]) {
        if (c.value >= n) continue;
        s.merge_into_level(k, summaries_[c.value].level(k - 1));
      }
    }
    affected_.swap(next_affected_);
  }
}

bool ExchangeFinder::reconstruct_hops(const GraphSnapshot& view, PeerId node,
                                      PeerId target, std::size_t remaining,
                                      std::size_t& budget) {
  if (budget == 0) {
    // Unexplored work is being abandoned: the walk is cut, and nothing
    // below this point says anything about the filters.
    walk_cut_ = true;
    return false;
  }
  --budget;
  for (const PeerId child : view.requesters_of(node)) {
    if (std::find(path_.begin(), path_.end(), child) != path_.end()) continue;
    if (remaining == 1) {
      if (child == target) {
        path_.push_back(child);
        return true;
      }
      continue;
    }
    if (child.value >= summaries_.size()) continue;
    if (!summaries_[child.value].maybe_at_level(remaining - 1, target))
      continue;
    path_.push_back(child);
    if (reconstruct_hops(view, child, target, remaining - 1, budget))
      return true;
    path_.pop_back();
    // An endorsed branch that was fully explored and fizzled is a Bloom
    // false positive (or staleness). Once the budget cut abandoned
    // unexplored work, fizzles above the cut are unknowable and not
    // counted; the caller accounts the whole walk as budget-exhausted.
    if (!walk_cut_) ++stats_.bloom_branch_dead_ends;
  }
  return false;
}

std::vector<RingProposal> ExchangeFinder::find_bloom(
    const GraphSnapshot& view, PeerId root, std::size_t max_candidates) {
  std::vector<RingProposal> out;
  if (summaries_.size() != view.num_peers()) return out;  // not built yet

  hits_.clear();
  const std::size_t max_level = max_ring_ >= 2 ? max_ring_ - 1 : 1;
  const auto& mine = summaries_[root.value];
  for (const WantEdge& w : view.want_providers(root)) {
    const std::size_t k = mine.first_level_maybe(w.provider, max_level);
    if (k != 0) {
      hits_.push_back(BloomHit{w.object, w.provider, k});
      ++stats_.bloom_detections;
    }
  }

  const bool shortest_first = policy_ != ExchangePolicy::kLongestFirst;
  stable_insertion_sort(hits_.begin(), hits_.end(),
                        [&](const BloomHit& a, const BloomHit& b) {
                          return shortest_first ? a.level < b.level
                                                : a.level > b.level;
                        });

  for (const BloomHit& hit : hits_) {
    if (out.size() >= max_candidates) break;
    path_.clear();
    path_.push_back(root);
    std::size_t budget = hop_budget_;
    walk_cut_ = false;
    if (reconstruct_hops(view, root, hit.provider, hit.level, budget)) {
      if (auto proposal = make_proposal(view, path_, hit.object)) {
        out.push_back(std::move(*proposal));
        ++stats_.discovered;
        ++stats_.bloom_reconstructions;
      }
    } else if (walk_cut_) {
      // The walk abandoned unexplored work when the hop budget ran out:
      // a search-cap cutoff, not evidence of a false positive. (A walk
      // that merely spent its whole budget on a fully explored subtree
      // is a genuine dead end.)
      ++stats_.bloom_budget_exhausted;
    } else {
      ++stats_.bloom_dead_ends;
    }
  }
  return out;
}

std::size_t ExchangeFinder::summary_wire_bytes(PeerId peer) const {
  if (mode_ != TreeMode::kBloom || peer.value >= summaries_.size()) return 0;
  return summaries_[peer.value].serialized_size_bytes();
}

}  // namespace p2pex
