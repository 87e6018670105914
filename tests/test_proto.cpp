// Tests for the request protocol: IRQ, request trees, Bloom summaries,
// ring tokens.
#include <gtest/gtest.h>

#include <map>

#include "proto/bloom_summary.h"
#include "proto/irq.h"
#include "proto/request_tree.h"
#include "proto/token.h"
#include "util/assert.h"

namespace p2pex {
namespace {

IrqEntry entry(std::uint32_t requester, std::uint32_t object,
               std::uint32_t download = 0) {
  IrqEntry e;
  e.requester = PeerId{requester};
  e.object = ObjectId{object};
  e.download = DownloadId{download};
  return e;
}

TEST(Irq, AddFindRemove) {
  IncomingRequestQueue q(10);
  EXPECT_TRUE(q.add(entry(1, 100)));
  EXPECT_NE(q.find(RequestKey{PeerId{1}, ObjectId{100}}), nullptr);
  EXPECT_TRUE(q.remove(RequestKey{PeerId{1}, ObjectId{100}}));
  EXPECT_EQ(q.find(RequestKey{PeerId{1}, ObjectId{100}}), nullptr);
  EXPECT_FALSE(q.remove(RequestKey{PeerId{1}, ObjectId{100}}));
}

TEST(Irq, RejectsDuplicateKey) {
  IncomingRequestQueue q(10);
  EXPECT_TRUE(q.add(entry(1, 100)));
  EXPECT_FALSE(q.add(entry(1, 100)));
  EXPECT_TRUE(q.add(entry(1, 101)));  // same requester, other object
  EXPECT_TRUE(q.add(entry(2, 100)));  // other requester, same object
  EXPECT_EQ(q.size(), 3u);
}

TEST(Irq, EnforcesCapacity) {
  IncomingRequestQueue q(2);
  EXPECT_TRUE(q.add(entry(1, 1)));
  EXPECT_TRUE(q.add(entry(2, 2)));
  EXPECT_FALSE(q.add(entry(3, 3)));
  EXPECT_EQ(q.size(), 2u);
}

TEST(Irq, OldestQueuedIsFifoAndSkipsActive) {
  IncomingRequestQueue q(10);
  q.add(entry(1, 1));
  q.add(entry(2, 2));
  q.find(RequestKey{PeerId{1}, ObjectId{1}})->state =
      RequestState::kActiveNonExchange;
  IrqEntry* oldest = q.oldest_queued();
  ASSERT_NE(oldest, nullptr);
  EXPECT_EQ(oldest->requester, PeerId{2});
}

// --- Request trees: the paper's Figure 2 topology ---
//
// A's IRQ contains requests from P1 (o1), P2 (o2), P3 (o3); P2's IRQ has
// requests from P5, P6; etc. Edges point requester -> provider.
class Fig2Graph {
 public:
  Fig2Graph() {
    add(1, 0, 1);   // P1 requests o1 from A(=0)
    add(2, 0, 2);   // P2 requests o2 from A
    add(3, 0, 3);   // P3 requests o3 from A
    add(4, 2, 4);   // P4 requests o4 from P2
    add(5, 2, 5);
    add(6, 2, 6);
    add(9, 4, 9);   // P9 requests o9 from P4
    add(10, 4, 10);
    add(7, 3, 7);
    add(8, 3, 8);
    add(11, 8, 11);
  }

  EdgeFn edge_fn() const {
    return [this](PeerId provider) {
      std::vector<std::pair<PeerId, ObjectId>> out;
      const auto it = edges_.find(provider.value);
      if (it != edges_.end()) out = it->second;
      return out;
    };
  }

 private:
  void add(std::uint32_t requester, std::uint32_t provider,
           std::uint32_t object) {
    edges_[provider].emplace_back(PeerId{requester}, ObjectId{object});
  }
  std::map<std::uint32_t, std::vector<std::pair<PeerId, ObjectId>>> edges_;
};

TEST(RequestTree, BuildsFig2Topology) {
  const Fig2Graph g;
  const RequestTree tree = RequestTree::build(PeerId{0}, 5, 1000, g.edge_fn());
  EXPECT_EQ(tree.root().peer, PeerId{0});
  EXPECT_EQ(tree.node_count(), 12u);  // A + P1..P11
  EXPECT_EQ(tree.depth(), 4u);        // A -> P2 -> P4 -> P9
}

TEST(RequestTree, DepthPruning) {
  const Fig2Graph g;
  const RequestTree t2 = RequestTree::build(PeerId{0}, 2, 1000, g.edge_fn());
  EXPECT_EQ(t2.node_count(), 4u);  // A + direct requesters P1 P2 P3
  EXPECT_EQ(t2.depth(), 2u);
  const RequestTree t1 = RequestTree::build(PeerId{0}, 1, 1000, g.edge_fn());
  EXPECT_EQ(t1.node_count(), 1u);
}

TEST(RequestTree, NodeCapBoundsSize) {
  const Fig2Graph g;
  const RequestTree t = RequestTree::build(PeerId{0}, 5, 6, g.edge_fn());
  EXPECT_LE(t.node_count(), 7u);  // cap is approximate (checked pre-child)
}

TEST(RequestTree, FindPathsShallowestFirst) {
  const Fig2Graph g;
  const RequestTree tree = RequestTree::build(PeerId{0}, 5, 1000, g.edge_fn());
  // Find P9 (depth 4) and P2 (depth 2).
  const auto paths = tree.find_paths([](PeerId p, std::size_t) {
    return p == PeerId{9} || p == PeerId{2};
  });
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].back().first, PeerId{2});  // shallower first (BFS)
  EXPECT_EQ(paths[1].back().first, PeerId{9});
  ASSERT_EQ(paths[1].size(), 4u);
  EXPECT_EQ(paths[1][1].first, PeerId{2});
  EXPECT_EQ(paths[1][2].first, PeerId{4});
}

TEST(RequestTree, PathCarriesObjects) {
  const Fig2Graph g;
  const RequestTree tree = RequestTree::build(PeerId{0}, 5, 1000, g.edge_fn());
  const auto paths =
      tree.find_paths([](PeerId p, std::size_t) { return p == PeerId{9}; });
  ASSERT_EQ(paths.size(), 1u);
  // P2 requested o2 from A; P4 requested o4 from P2; P9 requested o9.
  EXPECT_EQ(paths[0][1].second, ObjectId{2});
  EXPECT_EQ(paths[0][2].second, ObjectId{4});
  EXPECT_EQ(paths[0][3].second, ObjectId{9});
}

TEST(RequestTree, NoRepeatAlongPath) {
  // Mutual requests: 0 <-> 1 must not recurse forever.
  EdgeFn edges = [](PeerId p) {
    std::vector<std::pair<PeerId, ObjectId>> out;
    if (p == PeerId{0}) out.emplace_back(PeerId{1}, ObjectId{1});
    if (p == PeerId{1}) out.emplace_back(PeerId{0}, ObjectId{2});
    return out;
  };
  const RequestTree tree = RequestTree::build(PeerId{0}, 5, 1000, edges);
  EXPECT_EQ(tree.node_count(), 2u);
  EXPECT_EQ(tree.depth(), 2u);
}

TEST(RequestTree, SerializedSizeScalesWithNodes) {
  const Fig2Graph g;
  const RequestTree tree = RequestTree::build(PeerId{0}, 5, 1000, g.edge_fn());
  EXPECT_EQ(tree.serialized_size_bytes(20), 12u * 41u);
  EXPECT_EQ(tree.serialized_size_bytes(4), 12u * 9u);
}

TEST(RequestTree, ToStringMentionsPeers) {
  const Fig2Graph g;
  const RequestTree tree = RequestTree::build(PeerId{0}, 5, 1000, g.edge_fn());
  const std::string s = tree.to_string();
  EXPECT_NE(s.find("P0"), std::string::npos);
  EXPECT_NE(s.find("P9"), std::string::npos);
}

// --- Bloom summaries ---

TEST(BloomSummary, LevelMembership) {
  BloomTreeSummary s(4, 32, 0.01);
  s.insert(1, PeerId{7});
  s.insert(3, PeerId{9});
  EXPECT_TRUE(s.maybe_at_level(1, PeerId{7}));
  EXPECT_FALSE(s.maybe_at_level(2, PeerId{7}));
  EXPECT_TRUE(s.maybe_at_level(3, PeerId{9}));
  EXPECT_EQ(s.first_level_maybe(PeerId{9}, 4), 3u);
  EXPECT_EQ(s.first_level_maybe(PeerId{42}, 4), 0u);
}

TEST(BloomSummary, AbsorbChildShiftsLevels) {
  BloomTreeSummary parent(3, 32, 0.01);
  BloomTreeSummary child(3, 32, 0.01);
  child.insert(1, PeerId{5});   // 5 is a direct requester of child
  child.insert(2, PeerId{6});   // 6 is two hops below child
  parent.absorb_child(PeerId{2}, child);
  EXPECT_TRUE(parent.maybe_at_level(1, PeerId{2}));  // the child itself
  EXPECT_TRUE(parent.maybe_at_level(2, PeerId{5}));  // shifted down one
  EXPECT_TRUE(parent.maybe_at_level(3, PeerId{6}));
  // Child's level 3 would exceed parent's depth: trimmed, not crash.
}

TEST(BloomSummary, MergeIntoLevel) {
  BloomTreeSummary s(2, 16, 0.01);
  BloomFilter f = BloomFilter::for_items(16, 0.01);
  f.insert((static_cast<std::uint64_t>(3) + 1) * 0x9E3779B97F4A7C15ULL);
  s.merge_into_level(2, f);
  EXPECT_TRUE(s.maybe_at_level(2, PeerId{3}));
}

TEST(BloomSummary, SerializedSizeCountsAllLevels) {
  const BloomTreeSummary s(4, 64, 0.02);
  EXPECT_EQ(s.serialized_size_bytes(), 4 * s.level(1).serialized_size_bytes());
}

TEST(BloomSummary, ClearEmptiesEverything) {
  BloomTreeSummary s(2, 16, 0.01);
  s.insert(1, PeerId{1});
  s.insert(2, PeerId{2});
  s.clear();
  EXPECT_EQ(s.first_level_maybe(PeerId{1}, 2), 0u);
  EXPECT_EQ(s.first_level_maybe(PeerId{2}, 2), 0u);
}

// --- Ring proposals ---

RingProposal triangle() {
  RingProposal p;
  p.links = {RingLink{PeerId{0}, PeerId{1}, ObjectId{10}},
             RingLink{PeerId{1}, PeerId{2}, ObjectId{11}},
             RingLink{PeerId{2}, PeerId{0}, ObjectId{12}}};
  return p;
}

TEST(RingProposal, WellFormedTriangle) {
  EXPECT_TRUE(triangle().well_formed());
}

TEST(RingProposal, RejectsBrokenClosure) {
  RingProposal p = triangle();
  p.links[2].requester = PeerId{1};  // no longer closes to link 0's provider
  EXPECT_FALSE(p.well_formed());
}

TEST(RingProposal, RejectsDuplicateProvider) {
  RingProposal p;
  p.links = {RingLink{PeerId{0}, PeerId{1}, ObjectId{1}},
             RingLink{PeerId{1}, PeerId{0}, ObjectId{2}},
             RingLink{PeerId{0}, PeerId{0}, ObjectId{3}}};
  EXPECT_FALSE(p.well_formed());
}

TEST(RingProposal, RejectsProviderRepeatedAtNonAdjacentLinks) {
  // Closes link by link (0 1 2 3 1 5 0), but peer 1 provides at links 1
  // and 4.
  const std::uint32_t providers[] = {0, 1, 2, 3, 1, 5};
  RingProposal p;
  for (std::uint32_t i = 0; i < 6; ++i)
    p.links.push_back(RingLink{PeerId{providers[i]},
                               PeerId{providers[(i + 1) % 6]}, ObjectId{i}});
  EXPECT_FALSE(p.well_formed());
}

TEST(RingProposal, AcceptsTwelveLinkRing) {
  RingProposal p;
  for (std::uint32_t i = 0; i < 12; ++i)
    p.links.push_back(
        RingLink{PeerId{i}, PeerId{(i + 1) % 12}, ObjectId{100 + i}});
  EXPECT_TRUE(p.well_formed());
}

TEST(RingProposal, RejectsTooShort) {
  RingProposal p;
  p.links = {RingLink{PeerId{0}, PeerId{0}, ObjectId{1}}};
  EXPECT_FALSE(p.well_formed());
}

TEST(RingProposal, RejectsInvalidIds) {
  RingProposal p = triangle();
  p.links[1].object = ObjectId{};
  EXPECT_FALSE(p.well_formed());
}

TEST(TokenOutcome, ToStringCoversAll) {
  EXPECT_EQ(to_string(TokenOutcome::kAccepted), "accepted");
  EXPECT_EQ(to_string(TokenOutcome::kNoUploadSlot), "no-upload-slot");
  EXPECT_EQ(to_string(TokenOutcome::kBusyInExchange), "busy-in-exchange");
}

}  // namespace
}  // namespace p2pex
