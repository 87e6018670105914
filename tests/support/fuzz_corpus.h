// Fixed seed corpus for the model-based fuzz suites. Seeds live here —
// not inline in the test files — so the corpus is grown in one place and
// every seed registers as its own CTest case via gtest parameterization.
//
// Growing the corpus: append seeds (never reorder or remove — CTest case
// names encode the seed value, and history should stay comparable).
#pragma once

#include <cstdint>

#include <gtest/gtest.h>

namespace p2pex::test {

inline constexpr std::uint64_t kIrqFuzzSeeds[] = {1, 2, 3, 5, 8, 13, 34};

inline constexpr std::uint64_t kStorageFuzzSeeds[] = {11, 12, 13, 15, 18,
                                                      29, 47};

inline constexpr std::uint64_t kEventQueueFuzzSeeds[] = {21, 22, 23, 25, 28,
                                                         41, 66};

/// Seeds for the randomized snapshot-vs-reference ring-search
/// equivalence suite (test_graph_snapshot.cpp).
inline constexpr std::uint64_t kGraphFuzzSeeds[] = {31, 32, 33, 35, 38,
                                                    53, 97};

/// Seeds for the mutate/search interleaving patch fuzzer
/// (test_graph_snapshot.cpp): randomized row mutations applied through
/// the GraphSnapshot patch path (and the Bloom summary refresh) must
/// stay bit-identical to a from-scratch rebuild.
inline constexpr std::uint64_t kPatchFuzzSeeds[] = {51, 52, 53, 55, 58,
                                                    71, 89};

/// Seeds for the .scn mutation fuzzer (test_scenario_fuzz.cpp): random
/// byte edits of a valid scenario must parse cleanly or raise
/// ScenarioError — never crash or silently default.
inline constexpr std::uint64_t kScenarioFuzzSeeds[] = {41, 42, 43, 45, 48,
                                                       61, 83};

/// Seeds for the thread-count invariance fuzzer (test_parallel_fuzz.cpp):
/// a varied (seed, config) run with 8 worker threads configured must
/// reproduce the output digest pinned for its serial run.
inline constexpr std::uint64_t kParallelFuzzSeeds[] = {71, 72, 73, 75, 78,
                                                       91, 107};

/// Seeds for the fault-storm fuzzer (test_scenario_fuzz.cpp): a random
/// fault schedule (crash storms, fault/kill windows, partitions) derived
/// from each seed must reproduce the output digest pinned for it —
/// faults join the replay contract.
inline constexpr std::uint64_t kFaultStormSeeds[] = {81, 82, 83, 85, 88,
                                                     101, 113};

/// Names a parameterized fuzz instance "seed<N>" so the CTest case list
/// reads as the corpus itself.
inline std::string fuzz_seed_name(
    const ::testing::TestParamInfo<std::uint64_t>& info) {
  return "seed" + std::to_string(info.param);
}

}  // namespace p2pex::test
