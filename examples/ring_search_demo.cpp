// Ring-search walkthrough on the paper's Figure 2 topology.
//
// Peer A has incoming requests from P1, P2 and P3; P2's queue holds
// requests from P4/P5/P6; P4's from P9/P10; P3's from P7/P8; P8's from
// P11. A wants an object that P9 owns. The demo prints A's request tree,
// finds the cycle A -> P2 -> P4 -> P9 -> A, and shows the 4-way exchange
// proposal the ring token would validate (the paper's figure draws the
// 3-way variant of the same search).
#include <cstdio>
#include <map>

#include "core/exchange_finder.h"
#include "proto/request_tree.h"

using namespace p2pex;

namespace {

/// The request edges of Figure 2 (requester -> provider, labelled
/// object), materialized as the CSR GraphSnapshot the finder searches.
class Fig2Graph {
 public:
  Fig2Graph() {
    add(1, 0, 1);
    add(2, 0, 2);
    add(3, 0, 3);
    add(4, 2, 4);
    add(5, 2, 5);
    add(6, 2, 6);
    add(9, 4, 9);
    add(10, 4, 10);
    add(7, 3, 7);
    add(8, 3, 8);
    add(11, 8, 11);

    snap_.begin(kNumPeers);
    for (std::uint32_t p = 0; p < kNumPeers; ++p) {
      if (const auto it = edges_.find(p); it != edges_.end())
        for (const auto& [r, o] : it->second) snap_.add_edge(r, o);
      if (p == 0) {
        // A (peer 0) wants object o99, which only P9 owns and A
        // discovered at lookup time.
        snap_.add_want(ObjectId{99}, PeerId{9});
        snap_.add_closure(PeerId{9}, ObjectId{99});
      }
      snap_.next_peer();
    }
    snap_.finish();
  }

  const GraphSnapshot& snapshot() const { return snap_; }

  EdgeFn edge_fn() const {
    return [this](PeerId p) {
      std::vector<std::pair<PeerId, ObjectId>> out;
      const auto it = edges_.find(p.value);
      if (it != edges_.end()) out = it->second;
      return out;
    };
  }

 private:
  static constexpr std::uint32_t kNumPeers = 12;

  void add(std::uint32_t requester, std::uint32_t provider,
           std::uint32_t object) {
    edges_[provider].emplace_back(PeerId{requester}, ObjectId{object});
  }

  std::map<std::uint32_t, std::vector<std::pair<PeerId, ObjectId>>> edges_;
  GraphSnapshot snap_;
};

}  // namespace

int main() {
  const Fig2Graph graph;
  const GraphSnapshot& view = graph.snapshot();

  std::printf("A's request tree (paper Figure 2, pruned to depth 5):\n\n");
  const RequestTree tree =
      RequestTree::build(PeerId{0}, 5, 4096, graph.edge_fn());
  std::printf("%s\n", tree.to_string().c_str());
  std::printf("nodes: %zu, depth: %zu, naive wire size: %zu bytes, "
              "(4-byte ids: %zu bytes)\n\n",
              tree.node_count(), tree.depth(), tree.serialized_size_bytes(),
              tree.serialized_size_bytes(4));

  std::printf("A wants o99; its lookup discovered that P9 owns it.\n"
              "Searching the tree for a cycle...\n\n");
  ExchangeFinder finder(ExchangePolicy::kShortestFirst, 5,
                        TreeMode::kFullTree);
  const auto rings = finder.find(view, PeerId{0}, 4);
  for (const RingProposal& ring : rings) {
    std::printf("feasible %zu-way exchange ring:\n", ring.size());
    for (const RingLink& link : ring.links)
      std::printf("  P%-2u serves o%-3u to P%u\n", link.provider.value,
                  link.object.value, link.requester.value);
    std::printf("  well-formed: %s\n\n", ring.well_formed() ? "yes" : "no");
  }

  std::printf("The same search through Bloom summaries (Section V):\n");
  ExchangeFinder bloom(ExchangePolicy::kShortestFirst, 5, TreeMode::kBloom);
  bloom.rebuild_summaries(view, 64, 0.01);
  const auto brings = bloom.find(view, PeerId{0}, 4);
  std::printf("  summary wire size: %zu bytes (vs %zu for the full tree)\n",
              bloom.summary_wire_bytes(PeerId{0}),
              tree.serialized_size_bytes());
  std::printf(
      "  rings reconstructed hop-by-hop: %zu (dead ends: %llu, budget "
      "exhausted: %llu)\n",
      brings.size(),
      static_cast<unsigned long long>(bloom.stats().bloom_dead_ends),
      static_cast<unsigned long long>(bloom.stats().bloom_budget_exhausted));
  return 0;
}
