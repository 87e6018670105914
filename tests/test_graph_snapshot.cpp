// GraphSnapshot coverage: builder/query unit tests, randomized
// equivalence of the snapshot-based ring search against a naive
// reference implementation (the pre-snapshot per-call algorithm), the
// patch-path fuzz (mutate/search interleavings must stay row-identical
// to from-scratch rebuilds, for the snapshot and the Bloom summaries),
// and live audits that a running System's snapshot — full-rebuilt or
// dirty-patched — agrees with its naive accessors.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <vector>

#include "core/exchange_finder.h"
#include "core/graph_snapshot.h"
#include "core/system.h"
#include "scenario/driver.h"
#include "support/fuzz_corpus.h"
#include "support/graph_fixtures.h"
#include "support/scenario.h"
#include "util/rng.h"

namespace p2pex {
namespace {

using test::RandomRequestGraph;
using test::ScriptedGraph;

// ---------------------------------------------------------------------------
// Reference ring search: the pre-snapshot algorithm, querying the naive
// fixture accessors per call. The snapshot-based finder must return
// byte-identical proposals on any graph.
// ---------------------------------------------------------------------------

template <class View>
std::optional<RingProposal> ref_make_proposal(const View& view,
                                              const std::vector<PeerId>& path,
                                              ObjectId close_object) {
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

template <class View>
std::vector<RingProposal> ref_find_full(const View& view,
                                        ExchangePolicy policy,
                                        std::size_t max_ring, PeerId root,
                                        std::size_t max_candidates) {
  if (policy == ExchangePolicy::kPairwiseOnly) max_ring = 2;
  const std::size_t n = view.num_peers();
  std::vector<bool> visited(n, false);
  std::vector<PeerId> parent(n);
  std::vector<std::size_t> depth(n, 0);

  std::vector<RingProposal> out;
  std::deque<PeerId> frontier;
  visited[root.value] = true;
  depth[root.value] = 1;
  frontier.push_back(root);
  const bool shortest_first = policy != ExchangePolicy::kLongestFirst;

  while (!frontier.empty()) {
    const PeerId x = frontier.front();
    frontier.pop_front();
    const std::size_t d = depth[x.value];
    if (x != root) {
      for (ObjectId o : view.close_objects(root, x)) {
        std::vector<PeerId> path;
        for (PeerId p = x; p != root; p = parent[p.value]) path.push_back(p);
        path.push_back(root);
        std::reverse(path.begin(), path.end());
        if (auto proposal = ref_make_proposal(view, path, o)) {
          out.push_back(std::move(*proposal));
          if (shortest_first && out.size() >= max_candidates) return out;
        }
      }
    }
    if (d >= max_ring) continue;
    for (PeerId child : view.requesters_of(x)) {
      if (child.value >= n || visited[child.value]) continue;
      visited[child.value] = true;
      parent[child.value] = x;
      depth[child.value] = d + 1;
      frontier.push_back(child);
    }
  }
  if (!shortest_first) {
    std::stable_sort(out.begin(), out.end(),
                     [](const RingProposal& a, const RingProposal& b) {
                       return a.size() > b.size();
                     });
    if (out.size() > max_candidates) out.resize(max_candidates);
  }
  return out;
}

/// Reference Bloom-mode search: summaries built level by level from the
/// naive accessors, reconstruction via per-call next-hop walks.
template <class View>
class RefBloomFinder {
 public:
  RefBloomFinder(ExchangePolicy policy, std::size_t max_ring)
      : policy_(policy),
        max_ring_(policy == ExchangePolicy::kPairwiseOnly ? 2 : max_ring) {}

  void rebuild(const View& view, std::size_t expected_per_level, double fpp) {
    const std::size_t n = view.num_peers();
    const std::size_t levels = max_ring_ >= 2 ? max_ring_ - 1 : 1;
    summaries_.clear();
    summaries_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      summaries_.emplace_back(levels, expected_per_level, fpp);
    std::vector<std::vector<PeerId>> children(n);
    for (std::size_t i = 0; i < n; ++i) {
      children[i] = view.requesters_of(PeerId{static_cast<std::uint32_t>(i)});
      for (PeerId c : children[i]) summaries_[i].insert(1, c);
    }
    for (std::size_t k = 2; k <= levels; ++k)
      for (std::size_t i = 0; i < n; ++i)
        for (PeerId c : children[i]) {
          if (c.value >= n) continue;
          summaries_[i].merge_into_level(k, summaries_[c.value].level(k - 1));
        }
  }

  std::vector<RingProposal> find(const View& view, PeerId root,
                                 std::size_t max_candidates) {
    std::vector<RingProposal> out;
    if (summaries_.size() != view.num_peers()) return out;
    struct Hit {
      ObjectId object;
      PeerId provider;
      std::size_t level;
    };
    std::vector<Hit> hits;
    const std::size_t max_level = max_ring_ >= 2 ? max_ring_ - 1 : 1;
    const auto& mine = summaries_[root.value];
    for (const auto& [object, providers] : view.want_providers(root))
      for (PeerId p : providers) {
        const std::size_t k = mine.first_level_maybe(p, max_level);
        if (k != 0) hits.push_back(Hit{object, p, k});
      }
    const bool shortest_first = policy_ != ExchangePolicy::kLongestFirst;
    std::stable_sort(hits.begin(), hits.end(),
                     [&](const Hit& a, const Hit& b) {
                       return shortest_first ? a.level < b.level
                                             : a.level > b.level;
                     });
    for (const Hit& hit : hits) {
      if (out.size() >= max_candidates) break;
      std::vector<PeerId> path{root};
      std::size_t budget = ExchangeFinder::kDefaultBloomHopBudget;
      if (walk(view, root, hit.provider, hit.level, path, budget))
        if (auto proposal = ref_make_proposal(view, path, hit.object))
          out.push_back(std::move(*proposal));
    }
    return out;
  }

 private:
  bool walk(const View& view, PeerId node, PeerId target,
            std::size_t remaining, std::vector<PeerId>& path,
            std::size_t& budget) {
    if (budget == 0) return false;
    --budget;
    for (PeerId child : view.requesters_of(node)) {
      if (std::find(path.begin(), path.end(), child) != path.end()) continue;
      if (remaining == 1) {
        if (child == target) {
          path.push_back(child);
          return true;
        }
        continue;
      }
      if (child.value >= summaries_.size()) continue;
      if (!summaries_[child.value].maybe_at_level(remaining - 1, target))
        continue;
      path.push_back(child);
      if (walk(view, child, target, remaining - 1, path, budget)) return true;
      path.pop_back();
    }
    return false;
  }

  ExchangePolicy policy_;
  std::size_t max_ring_;
  std::vector<BloomTreeSummary> summaries_;
};

void expect_same_proposals(const std::vector<RingProposal>& got,
                           const std::vector<RingProposal>& want,
                           const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(got[i].links, want[i].links) << context << " proposal " << i;
}

// ---------------------------------------------------------------------------
// Builder/query unit tests
// ---------------------------------------------------------------------------

TEST(GraphSnapshot, BuilderRowsAndLookups) {
  GraphSnapshot g;
  g.begin(4);
  // peer 0: requesters 2 (o5) then 1 (o6); root closures/wants on 3.
  g.add_edge(PeerId{2}, ObjectId{5});
  g.add_edge(PeerId{1}, ObjectId{6});
  g.add_want(ObjectId{9}, PeerId{3});
  g.add_closure(PeerId{3}, ObjectId{9});
  g.next_peer();
  g.next_peer();  // peer 1: empty
  g.add_edge(PeerId{3}, ObjectId{7});
  g.next_peer();
  g.next_peer();  // peer 3: empty
  g.finish();

  ASSERT_EQ(g.num_peers(), 4u);
  ASSERT_EQ(g.num_edges(), 3u);
  const auto r0 = g.requesters_of(PeerId{0});
  ASSERT_EQ(r0.size(), 2u);
  EXPECT_EQ(r0[0], PeerId{2});  // first-arrival order preserved
  EXPECT_EQ(r0[1], PeerId{1});
  EXPECT_EQ(g.edge_objects_of(PeerId{0})[0], ObjectId{5});
  EXPECT_TRUE(g.requesters_of(PeerId{1}).empty());
  EXPECT_EQ(g.request_between(PeerId{0}, PeerId{1}), ObjectId{6});
  EXPECT_FALSE(g.request_between(PeerId{0}, PeerId{3}).valid());
  EXPECT_FALSE(g.request_between(PeerId{3}, PeerId{0}).valid());

  const auto c = g.close_objects(PeerId{0}, PeerId{3});
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].object, ObjectId{9});
  EXPECT_TRUE(g.close_objects(PeerId{0}, PeerId{1}).empty());
  EXPECT_TRUE(g.close_objects(PeerId{2}, PeerId{3}).empty());
  const auto w = g.want_providers(PeerId{0});
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0].object, ObjectId{9});
  EXPECT_EQ(w[0].provider, PeerId{3});
}

TEST(GraphSnapshot, ClosuresGroupedByProviderKeepingWantOrder) {
  GraphSnapshot g;
  g.begin(3);
  // Interleaved providers in want order; grouping must be stable.
  g.add_closure(PeerId{2}, ObjectId{10});
  g.add_closure(PeerId{1}, ObjectId{11});
  g.add_closure(PeerId{2}, ObjectId{12});
  g.next_peer();
  g.next_peer();
  g.next_peer();
  g.finish();

  const auto all = g.closures_of(PeerId{0});
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].provider, PeerId{1});
  const auto c2 = g.close_objects(PeerId{0}, PeerId{2});
  ASSERT_EQ(c2.size(), 2u);
  EXPECT_EQ(c2[0].object, ObjectId{10});  // want order within the group
  EXPECT_EQ(c2[1].object, ObjectId{12});
}

TEST(GraphSnapshot, ReusedAcrossRebuilds) {
  GraphSnapshot g;
  g.begin(2);
  g.add_edge(PeerId{1}, ObjectId{1});
  g.next_peer();
  g.next_peer();
  g.finish();
  ASSERT_EQ(g.num_edges(), 1u);

  g.begin(3);  // rebuild with different shape: old rows must vanish
  g.next_peer();
  g.add_edge(PeerId{0}, ObjectId{2});
  g.add_closure(PeerId{0}, ObjectId{3});
  g.next_peer();
  g.next_peer();
  g.finish();
  EXPECT_EQ(g.num_peers(), 3u);
  EXPECT_TRUE(g.requesters_of(PeerId{0}).empty());
  ASSERT_EQ(g.requesters_of(PeerId{1}).size(), 1u);
  EXPECT_EQ(g.request_between(PeerId{1}, PeerId{0}), ObjectId{2});
  EXPECT_EQ(g.close_objects(PeerId{1}, PeerId{0}).size(), 1u);
}

// ---------------------------------------------------------------------------
// Randomized snapshot-vs-reference equivalence (fuzz seed corpus)
// ---------------------------------------------------------------------------

class SnapshotEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SnapshotEquivalence, FullTreeProposalsMatchReference) {
  for (std::size_t degree : {2u, 4u, 8u}) {
    const RandomRequestGraph g(60, degree, GetParam() ^ degree);
    for (auto policy : {ExchangePolicy::kPairwiseOnly,
                        ExchangePolicy::kShortestFirst,
                        ExchangePolicy::kLongestFirst}) {
      ExchangeFinder f(policy, 5, TreeMode::kFullTree);
      for (std::uint32_t root = 0; root < 60; ++root) {
        const auto got = f.find(g.snapshot(), PeerId{root}, 8);
        const auto want = ref_find_full(g, policy, 5, PeerId{root}, 8);
        expect_same_proposals(got, want,
                              "deg=" + std::to_string(degree) + " root=" +
                                  std::to_string(root));
      }
    }
  }
}

TEST_P(SnapshotEquivalence, BloomProposalsMatchReference) {
  const RandomRequestGraph g(60, 4, GetParam());
  for (auto policy :
       {ExchangePolicy::kShortestFirst, ExchangePolicy::kLongestFirst}) {
    ExchangeFinder f(policy, 5, TreeMode::kBloom);
    f.rebuild_summaries(g.snapshot(), 32, 0.05);
    RefBloomFinder<RandomRequestGraph> ref(policy, 5);
    ref.rebuild(g, 32, 0.05);
    for (std::uint32_t root = 0; root < 60; ++root) {
      const auto got = f.find(g.snapshot(), PeerId{root}, 8);
      const auto want = ref.find(g, PeerId{root}, 8);
      expect_same_proposals(got, want, "bloom root=" + std::to_string(root));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, SnapshotEquivalence,
                         ::testing::ValuesIn(test::kGraphFuzzSeeds),
                         test::fuzz_seed_name);

// ---------------------------------------------------------------------------
// Patch path: unit tests + mutate/search interleaving fuzz. A snapshot
// maintained through begin_patch()/patch_peer() must stay row-identical
// to a from-scratch rebuild of the same model, and the incremental
// Bloom summary refresh must reproduce a full rebuild bit for bit.
// ---------------------------------------------------------------------------

/// Mutable per-peer row model: rows regenerate randomly; emit() feeds
/// them to a snapshot builder identically for full builds and patches.
class PatchModel {
 public:
  PatchModel(std::size_t n, std::uint64_t seed) : n_(n), rng_(seed), rows_(n) {
    for (std::uint32_t p = 0; p < n; ++p) regen(p, RowKind::kBoth);
  }

  /// One dirty peer and the row kinds its mutations moved.
  struct Dirty {
    PeerId peer;
    RowKind rows;
  };

  /// Regenerates `count` random peers' rows — every kind, or with
  /// `random_kinds` one randomly drawn kind per regeneration; returns the
  /// dirty set, one entry per peer with the union of its kinds.
  std::vector<Dirty> mutate(std::size_t count, bool random_kinds = false) {
    static constexpr RowKind kKinds[] = {RowKind::kEdges, RowKind::kRoot,
                                         RowKind::kBoth};
    std::vector<Dirty> dirty;
    for (std::size_t i = 0; i < count; ++i) {
      const auto p = static_cast<std::uint32_t>(rng_.index(n_));
      const RowKind rows =
          random_kinds ? kKinds[rng_.index(3)] : RowKind::kBoth;
      regen(p, rows);
      const auto it =
          std::find_if(dirty.begin(), dirty.end(),
                       [p](const Dirty& d) { return d.peer == PeerId{p}; });
      if (it == dirty.end())
        dirty.push_back(Dirty{PeerId{p}, rows});
      else
        it->rows = it->rows | rows;
    }
    return dirty;
  }

  void build_full(GraphSnapshot& snap) const {
    snap.begin(n_);
    for (std::uint32_t p = 0; p < n_; ++p) {
      emit(snap, p, RowKind::kBoth);
      snap.next_peer();
    }
    snap.finish();
  }

  void patch(GraphSnapshot& snap, const std::vector<Dirty>& dirty) const {
    snap.begin_patch();
    for (const Dirty& d : dirty) {
      snap.patch_peer(d.peer, d.rows);
      emit(snap, d.peer.value, d.rows);
      snap.seal_peer();
    }
    snap.finish_patch();
  }

 private:
  struct Row {
    std::vector<GraphEdge> edges;      // distinct requesters
    std::vector<WantEdge> wants;       // emitted verbatim
    std::vector<CloseEdge> closures;   // seal groups by provider
  };

  void regen(std::uint32_t p, RowKind rows) {
    Row& r = rows_[p];
    if (has_rows(rows, RowKind::kEdges)) {
      r.edges.clear();
      const std::size_t deg = rng_.index(6);
      for (std::size_t i = 0; i < deg; ++i) {
        const PeerId req{static_cast<std::uint32_t>(rng_.index(n_))};
        const auto dup = std::find_if(
            r.edges.begin(), r.edges.end(),
            [req](const GraphEdge& e) { return e.requester == req; });
        if (dup != r.edges.end()) continue;
        r.edges.push_back(GraphEdge{
            req, ObjectId{static_cast<std::uint32_t>(rng_.index(50))}});
      }
    }
    if (!has_rows(rows, RowKind::kRoot)) return;
    r.wants.clear();
    r.closures.clear();
    const std::size_t closers = rng_.index(4);
    for (std::size_t i = 0; i < closers; ++i) {
      const PeerId prov{static_cast<std::uint32_t>(rng_.index(n_))};
      const ObjectId o{static_cast<std::uint32_t>(rng_.index(50))};
      r.wants.push_back(WantEdge{o, prov});
      r.closures.push_back(CloseEdge{prov, o});
    }
  }

  void emit(GraphSnapshot& snap, std::uint32_t p, RowKind rows) const {
    const Row& r = rows_[p];
    if (has_rows(rows, RowKind::kEdges))
      for (const GraphEdge& e : r.edges) snap.add_edge(e.requester, e.object);
    if (!has_rows(rows, RowKind::kRoot)) return;
    for (const WantEdge& w : r.wants) snap.add_want(w.object, w.provider);
    for (const CloseEdge& c : r.closures)
      snap.add_closure(c.provider, c.object);
  }

  std::size_t n_;
  Rng rng_;
  std::vector<Row> rows_;
};

TEST(GraphSnapshotPatch, RewritesOnlyDirtyRows) {
  GraphSnapshot g;
  g.begin(3);
  g.add_edge(PeerId{1}, ObjectId{5});
  g.add_closure(PeerId{2}, ObjectId{7});
  g.add_want(ObjectId{7}, PeerId{2});
  g.next_peer();
  g.add_edge(PeerId{0}, ObjectId{6});
  g.next_peer();
  g.next_peer();
  g.finish();

  // Rewrite peer 0: shrink the edge row, grow the closure row.
  g.begin_patch();
  g.patch_peer(PeerId{0});
  g.add_closure(PeerId{2}, ObjectId{9});
  g.add_closure(PeerId{1}, ObjectId{8});
  g.seal_peer();
  g.finish_patch();

  EXPECT_TRUE(g.requesters_of(PeerId{0}).empty());
  EXPECT_TRUE(g.want_providers(PeerId{0}).empty());
  const auto c = g.closures_of(PeerId{0});
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0].provider, PeerId{1});  // seal still groups by provider
  EXPECT_EQ(c[1].provider, PeerId{2});
  // The stable row is untouched.
  ASSERT_EQ(g.requesters_of(PeerId{1}).size(), 1u);
  EXPECT_EQ(g.request_between(PeerId{1}, PeerId{0}), ObjectId{6});
  // Live counts exclude the replaced row's slack.
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.num_closures(), 2u);
  EXPECT_EQ(g.num_wants(), 0u);
  EXPECT_EQ(g.edge_slack(), 1u);
}

TEST(GraphSnapshotPatch, RewritesOnlyTheDirtyRowKind) {
  // Peer 0's facts (peers 1 and 2 have none). Each patch below changes
  // one kind of them and patches only that kind.
  std::vector<GraphEdge> edges = {{PeerId{1}, ObjectId{5}}};
  std::vector<CloseEdge> closures = {{PeerId{2}, ObjectId{7}}};
  std::vector<WantEdge> wants = {{ObjectId{7}, PeerId{2}}};
  const auto emit = [&](GraphSnapshot& g, RowKind rows) {
    if (has_rows(rows, RowKind::kEdges))
      for (const GraphEdge& e : edges) g.add_edge(e.requester, e.object);
    if (!has_rows(rows, RowKind::kRoot)) return;
    for (const CloseEdge& c : closures) g.add_closure(c.provider, c.object);
    for (const WantEdge& w : wants) g.add_want(w.object, w.provider);
  };
  const auto full_build = [&](GraphSnapshot& g) {
    g.begin(3);
    emit(g, RowKind::kBoth);
    for (int p = 0; p < 3; ++p) g.next_peer();
    g.finish();
  };
  const auto patch = [&](GraphSnapshot& g, RowKind rows) {
    g.begin_patch();
    g.patch_peer(PeerId{0}, rows);
    emit(g, rows);
    g.seal_peer();
    g.finish_patch();
  };
  GraphSnapshot g, fresh;
  full_build(g);

  // Edges: the edge row moves; the root rows and their counts do not,
  // and their arenas gain no slack (nothing was rewritten there).
  edges = {{PeerId{2}, ObjectId{6}}, {PeerId{1}, ObjectId{5}}};
  patch(g, RowKind::kEdges);
  ASSERT_EQ(g.requesters_of(PeerId{0}).size(), 2u);
  EXPECT_EQ(g.requesters_of(PeerId{0})[0], PeerId{2});
  EXPECT_EQ(g.num_edges(), 2u);
  ASSERT_EQ(g.closures_of(PeerId{0}).size(), 1u);
  EXPECT_EQ(g.closures_of(PeerId{0})[0], (CloseEdge{PeerId{2}, ObjectId{7}}));
  ASSERT_EQ(g.want_providers(PeerId{0}).size(), 1u);
  EXPECT_EQ(g.want_providers(PeerId{0})[0], (WantEdge{ObjectId{7}, PeerId{2}}));
  EXPECT_EQ(g.num_closures(), 1u);
  EXPECT_EQ(g.num_wants(), 1u);
  EXPECT_EQ(g.closure_slack(), 0u);
  EXPECT_EQ(g.want_slack(), 0u);
  full_build(fresh);
  EXPECT_TRUE(g.rows_equal(fresh));

  // Root rows: closures and wants move; the edge row and its count do
  // not, and the edge arena keeps only the first patch's slack.
  closures = {{PeerId{2}, ObjectId{9}}, {PeerId{1}, ObjectId{8}}};
  wants = {{ObjectId{9}, PeerId{2}}, {ObjectId{8}, PeerId{1}}};
  patch(g, RowKind::kRoot);
  ASSERT_EQ(g.closures_of(PeerId{0}).size(), 2u);
  EXPECT_EQ(g.closures_of(PeerId{0})[0].provider, PeerId{1});  // grouped
  EXPECT_EQ(g.num_closures(), 2u);
  EXPECT_EQ(g.num_wants(), 2u);
  ASSERT_EQ(g.requesters_of(PeerId{0}).size(), 2u);
  EXPECT_EQ(g.request_between(PeerId{0}, PeerId{2}), ObjectId{6});
  EXPECT_EQ(g.request_between(PeerId{0}, PeerId{1}), ObjectId{5});
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.edge_slack(), 1u);
  full_build(fresh);
  EXPECT_TRUE(g.rows_equal(fresh));
}

TEST(GraphSnapshotPatch, EmptyPatchIsANoOp) {
  PatchModel model(20, 7);
  GraphSnapshot a, b;
  model.build_full(a);
  model.build_full(b);
  a.begin_patch();
  a.finish_patch();
  EXPECT_TRUE(a.rows_equal(b));
}

TEST(GraphSnapshotPatch, CompactionBoundsSlack) {
  PatchModel model(50, 11);
  GraphSnapshot snap;
  model.build_full(snap);
  // Hundreds of row rewrites: slack must stay within one live size (+
  // slop) of the arena, or compaction is not running.
  for (int round = 0; round < 300; ++round) {
    model.patch(snap, model.mutate(5));
    EXPECT_LE(snap.edge_slack(),
              snap.num_edges() + GraphSnapshot::kCompactSlop);
    EXPECT_LE(snap.closure_slack(),
              snap.num_closures() + GraphSnapshot::kCompactSlop);
    EXPECT_LE(snap.want_slack(),
              snap.num_wants() + GraphSnapshot::kCompactSlop);
  }
  GraphSnapshot fresh;
  model.build_full(fresh);
  EXPECT_TRUE(snap.rows_equal(fresh));
}

TEST(GraphSnapshotPatch, ChurnedFootprintStaysAtTheLiveWatermark) {
  PatchModel model(50, 13);
  GraphSnapshot snap;
  model.build_full(snap);
  // Warm up: let arenas, compaction and the patch scratch reach their
  // steady-state capacities.
  for (int round = 0; round < 25; ++round)
    model.patch(snap, model.mutate(5));
  const std::size_t watermark = snap.memory_bytes();
  ASSERT_GT(watermark, 0u);
  // Hundreds more churn cycles over a stationary live size must not move
  // the footprint past the warm watermark (plus modest headroom for
  // capacity rounding). The old scratch-reserve-to-capacity bug fails
  // this: every compaction re-reserved scratch to the arena's *capacity*
  // instead of its live size, ratcheting the footprint up with churn.
  for (int round = 0; round < 300; ++round) {
    model.patch(snap, model.mutate(5));
    ASSERT_LE(snap.memory_bytes(), watermark + watermark / 2)
        << "round " << round;
  }
  GraphSnapshot fresh;
  model.build_full(fresh);
  EXPECT_TRUE(snap.rows_equal(fresh));
}

class PatchFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PatchFuzz, PatchedSnapshotMatchesFromScratchRebuild) {
  PatchModel model(60, GetParam());
  GraphSnapshot live, fresh;
  model.build_full(live);
  ExchangeFinder live_finder(ExchangePolicy::kShortestFirst, 5,
                             TreeMode::kFullTree);
  ExchangeFinder fresh_finder(ExchangePolicy::kShortestFirst, 5,
                              TreeMode::kFullTree);
  Rng rounds(GetParam() ^ 0xABCDEF);
  for (int round = 0; round < 40; ++round) {
    // Each dirty peer is patched with only the kinds that moved.
    model.patch(live, model.mutate(1 + rounds.index(8), true));
    model.build_full(fresh);
    ASSERT_TRUE(live.rows_equal(fresh)) << "round " << round;
    // Interleaved searches: proposals over the patched arenas must be
    // byte-identical to the contiguous rebuild's.
    for (int s = 0; s < 5; ++s) {
      const PeerId root{static_cast<std::uint32_t>(rounds.index(60))};
      expect_same_proposals(live_finder.find(live, root, 8),
                            fresh_finder.find(fresh, root, 8),
                            "round " + std::to_string(round));
    }
  }
}

TEST_P(PatchFuzz, RefreshedBloomSummariesMatchFullRebuild) {
  PatchModel model(60, GetParam() ^ 0x5EED);
  GraphSnapshot live, fresh;
  model.build_full(live);
  ExchangeFinder inc(ExchangePolicy::kShortestFirst, 5, TreeMode::kBloom);
  ExchangeFinder scratch(ExchangePolicy::kShortestFirst, 5, TreeMode::kBloom);
  inc.rebuild_summaries(live, 32, 0.05);
  Rng rounds(GetParam() ^ 0xF00D);
  for (int round = 0; round < 40; ++round) {
    const std::vector<PatchModel::Dirty> dirty =
        model.mutate(1 + rounds.index(8), true);
    model.patch(live, dirty);
    model.build_full(fresh);
    ASSERT_TRUE(live.rows_equal(fresh)) << "round " << round;
    // Like the System, the summaries hear of every dirty peer, whichever
    // kind moved.
    std::vector<PeerId> dirty_peers;
    for (const PatchModel::Dirty& d : dirty) dirty_peers.push_back(d.peer);
    inc.refresh_summaries(live, dirty_peers, 32, 0.05);
    scratch.rebuild_summaries(fresh, 32, 0.05);
    // Bit-for-bit: every peer's per-level filters (geometry, bits and
    // insert counts) must match a from-scratch build.
    ASSERT_EQ(inc.summaries(), scratch.summaries()) << "round " << round;
    for (int s = 0; s < 5; ++s) {
      const PeerId root{static_cast<std::uint32_t>(rounds.index(60))};
      expect_same_proposals(inc.find(live, root, 8),
                            scratch.find(fresh, root, 8),
                            "bloom round " + std::to_string(round));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, PatchFuzz,
                         ::testing::ValuesIn(test::kPatchFuzzSeeds),
                         test::fuzz_seed_name);

// ---------------------------------------------------------------------------
// Live System audit: the lazily rebuilt snapshot must agree with the
// naive accessors at any reachable state.
// ---------------------------------------------------------------------------

void audit_snapshot_against_naive(const System& s) {
  const GraphSnapshot& snap = s.graph_snapshot();
  ASSERT_EQ(snap.num_peers(), s.num_peers());
  for (std::uint32_t p = 0; p < s.num_peers(); ++p) {
    const PeerId peer{p};
    const std::vector<PeerId> naive_req = s.requesters_of(peer);
    const auto req = snap.requesters_of(peer);
    ASSERT_EQ(req.size(), naive_req.size()) << "provider " << p;
    for (std::size_t i = 0; i < req.size(); ++i) {
      EXPECT_EQ(req[i], naive_req[i]) << "provider " << p;
      EXPECT_EQ(snap.edge_objects_of(peer)[i],
                s.request_between(peer, naive_req[i]))
          << "provider " << p;
    }
    std::size_t naive_wants = 0;
    const auto wants = snap.want_providers(peer);
    std::size_t wi = 0;
    for (const auto& [object, providers] : s.want_providers(peer)) {
      naive_wants += providers.size();
      for (PeerId prov : providers) {
        ASSERT_LT(wi, wants.size()) << "root " << p;
        EXPECT_EQ(wants[wi].object, object) << "root " << p;
        EXPECT_EQ(wants[wi].provider, prov) << "root " << p;
        ++wi;
      }
    }
    EXPECT_EQ(wants.size(), naive_wants) << "root " << p;
    for (std::uint32_t q = 0; q < s.num_peers(); ++q) {
      const std::vector<ObjectId> naive_close =
          s.close_objects(peer, PeerId{q});
      const auto close = snap.close_objects(peer, PeerId{q});
      ASSERT_EQ(close.size(), naive_close.size())
          << "root " << p << " provider " << q;
      for (std::size_t i = 0; i < close.size(); ++i) {
        EXPECT_EQ(close[i].provider, PeerId{q});
        EXPECT_EQ(close[i].object, naive_close[i])
            << "root " << p << " provider " << q;
      }
    }
  }
}

TEST(SystemSnapshot, AgreesWithNaiveAccessorsAcrossTheRun) {
  System s(test::Scenario::view().build());
  // Mid-run states exercise live queues, active rings and evictions; the
  // snapshot must track every mutation epoch.
  for (const double t : {500.0, 2000.0, 3500.0}) {
    s.run_to(t);
    audit_snapshot_against_naive(s);
  }
}

TEST(SystemSnapshot, AgreesWithNaiveAccessorsUnderChurn) {
  // Population dynamics are the states the dirty-peer delta path must
  // get right: offline providers drop out of other roots' closure rows,
  // sharing flips move closer eligibility, rejoins bring rows back.
  scenario::SpecBuilder b;
  b.name("snapshot-churn-audit");
  b.config() = test::Scenario::small(77).build();
  b.churn(0.0, 4000.0, 250.0, 1e-3, 4e-3);
  b.freeride_wave(800.0, 0.3, 1500.0);
  b.flash_crowd(1500.0, CategoryId{0}, 0.5, 1000.0);
  scenario::Driver driver(b.build());
  for (const double t : {600.0, 1200.0, 2000.0, 3000.0, 4000.0}) {
    driver.run_to(t);
    audit_snapshot_against_naive(driver.system());
  }
  EXPECT_GT(driver.system().counters().peer_departures, 0u);
  EXPECT_GT(driver.system().snapshot_patches(), 0u);
}

TEST(SystemSnapshot, MaintainsAtMostOncePerMutationEpoch) {
  System s(test::Scenario::view().build());
  s.run_to(2500.0);
  // Caching: repeated reads with no mutation in between never rebuild
  // or patch.
  (void)s.graph_snapshot();
  const std::uint64_t rebuilds = s.snapshot_rebuilds();
  const std::uint64_t patches = s.snapshot_patches();
  (void)s.graph_snapshot();
  (void)s.graph_snapshot();
  EXPECT_EQ(s.snapshot_rebuilds(), rebuilds);
  EXPECT_EQ(s.snapshot_patches(), patches);
  // Amortization: the run's searches shared snapshots — strictly fewer
  // maintenance passes than ring searches.
  EXPECT_GT(rebuilds, 0u);  // at least the first-read full build
  EXPECT_GT(patches, 0u);
  ASSERT_GT(s.finder_stats().searches, 0u);
  EXPECT_LT(rebuilds + patches, s.finder_stats().searches);
  // Full rebuilds are the rare path now: deltas dominate.
  EXPECT_GT(patches, rebuilds);
}

// Pinned maintenance trajectory of the Scenario::view() run (recorded
// from a Release build; Debug matches — the counters are clock-free).
constexpr std::uint64_t kPinSnapshotRebuilds = 20;
constexpr std::uint64_t kPinSnapshotPatches = 273;
constexpr std::uint64_t kPinDirtyRowsPatched = 1513;

TEST(SystemSnapshot, MaintenanceCountersPinned) {
  // Deterministic run → exact maintenance trajectory. Re-record like
  // test_golden_paper.cpp if a mechanism change legitimately moves the
  // numbers; dirty_rows_patched / snapshot_patches must stay small
  // relative to rows-rebuilt-per-epoch under the old full-rebuild
  // scheme (peers * patches).
  System s(test::Scenario::view().build());
  s.run();
  const SystemCounters& c = s.counters();
  EXPECT_EQ(c.snapshot_rebuilds, kPinSnapshotRebuilds);
  EXPECT_EQ(c.snapshot_patches, kPinSnapshotPatches);
  EXPECT_EQ(c.dirty_rows_patched, kPinDirtyRowsPatched);
  // Mean dirty set well under the population (the point of the deltas).
  EXPECT_LT(c.dirty_rows_patched,
            c.snapshot_patches * s.num_peers() / 4);
  // Build time is wall clock (not pinned), but it must have been
  // accumulated by the maintenance passes.
  EXPECT_GT(c.snapshot_build_ns, 0u);
}

}  // namespace
}  // namespace p2pex
