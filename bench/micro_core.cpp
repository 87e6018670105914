// Microbenchmarks (google-benchmark) for the hot data structures: event
// queue, power-law and catalog sampling, Bloom filters, IRQ operations,
// request-tree construction — and the ring-search suite (BM_Search*)
// tracked per PR.
//
// The search benches sweep three request-graph shapes at 1k/10k/50k
// peers:
//  * dense     — 32 requests per peer; BFS touches most of the graph.
//  * sparse    — 4 requests per peer; shallow trees, early exhaustion.
//  * deep-ring — a ring lattice plus 2 random shortcuts per peer; long
//                thin request trees (depth-cap bound).
// Each root has 8 formula-derived ring closers, so most searches run the
// tree to exhaustion (the worst case the figure benches stress). Every
// search bench reports allocs_per_search via a counting operator new —
// the regression guard for the allocation-free hot path.
//
// The churned benches (BM_ChurnedSearch*) interleave row mutations with
// searches — the build-once-search-many benches above cannot see graph
// maintenance cost at all. Each iteration dirties a handful of peers,
// brings the snapshot up to date (delta patch, or full rebuild in the
// *FullRebuild baselines), then searches; `maint_us_per_epoch` isolates
// the maintenance cost the dirty-peer delta path exists to cut, and
// `dirty_rows_per_epoch` records the churn intensity.
//
// Run without arguments, the binary writes its results to
// BENCH_search.json (google-benchmark JSON) in the working directory so
// CI can archive the perf trajectory; pass an explicit --benchmark_out
// to override.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "core/exchange_finder.h"
#include "core/graph_snapshot.h"
#include "core/lookup.h"
#include "core/system.h"
#include "core/parallel/shard_map.h"
#include "core/parallel/worker_pool.h"
#include "discovery/lookup_backend.h"
#include "obs/trace.h"
#include "proto/irq.h"
#include "proto/request_tree.h"
#include "sim/event_queue.h"
#include "util/bloom_filter.h"
#include "util/power_law.h"
#include "util/rng.h"

// --- allocation counting (whole binary; benches read deltas) -------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;  // operator new must return a unique pointer
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace p2pex {
namespace {

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    EventQueue q;
    for (int i = 0; i < n; ++i)
      q.schedule(static_cast<double>((i * 7919) % 1000), [] {});
    while (!q.empty()) benchmark::DoNotOptimize(q.pop().first);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1000)->Arg(10000);

void BM_PowerLawSample(benchmark::State& state) {
  const PowerLawSampler s(static_cast<std::size_t>(state.range(0)), 0.8);
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(s.sample(rng));
}
BENCHMARK(BM_PowerLawSample)->Arg(300)->Arg(45000);

// One candidate draw of the request loop: an object of a given category
// by rank popularity, cycling through the categories so every category
// size (uniform 1..300) is drawn from.
void BM_CatalogSampleObject(benchmark::State& state) {
  CatalogConfig cfg;
  cfg.num_categories = static_cast<std::size_t>(state.range(0));
  cfg.object_popularity_f = 0.2;
  Rng build(1);
  const Catalog cat(cfg, build);
  Rng rng(2);
  std::uint32_t c = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cat.sample_object_in(CategoryId{c}, rng));
    if (++c == cat.num_categories()) c = 0;
  }
}
BENCHMARK(BM_CatalogSampleObject)->Arg(60)->Arg(10000);

void BM_BloomInsertQuery(benchmark::State& state) {
  BloomFilter f = BloomFilter::for_items(1000, 0.02);
  Rng rng(2);
  std::uint64_t k = 0;
  for (auto _ : state) {
    f.insert(++k);
    benchmark::DoNotOptimize(f.maybe_contains(k * 2654435761ULL));
  }
}
BENCHMARK(BM_BloomInsertQuery);

void BM_IrqAddRemove(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    IncomingRequestQueue q(static_cast<std::size_t>(n) + 1);
    for (int i = 0; i < n; ++i) {
      IrqEntry e;
      e.requester = PeerId{static_cast<std::uint32_t>(i % 50)};
      e.object = ObjectId{static_cast<std::uint32_t>(i)};
      q.add(e);
    }
    for (int i = 0; i < n; ++i)
      q.remove(RequestKey{PeerId{static_cast<std::uint32_t>(i % 50)},
                          ObjectId{static_cast<std::uint32_t>(i)}});
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_IrqAddRemove)->Arg(100)->Arg(1000);

// --- synthetic search scenarios ------------------------------------------

enum class GraphKind { kDense, kSparse, kDeepRing };

constexpr std::size_t kClosersPerRoot = 8;

/// The j-th formula-derived ring closer of `root` (deterministic, spread
/// across the id space so closure hits are sparse and searches usually
/// run to exhaustion).
std::uint32_t nth_closer(std::uint32_t root, std::size_t j, std::size_t n) {
  return static_cast<std::uint32_t>(
      (root * 2654435761ULL + j * 40503ULL + 3ULL) % n);
}

/// Builds a synthetic request graph shaped like a loaded system: `n`
/// peers with seeded random request edges and kClosersPerRoot closure
/// facts per root (object id == closing provider id).
GraphSnapshot make_graph(GraphKind kind, std::size_t n) {
  Rng rng(7);
  GraphSnapshot g;
  g.begin(n);
  for (std::size_t p = 0; p < n; ++p) {
    if (kind == GraphKind::kDeepRing)
      g.add_edge(PeerId{static_cast<std::uint32_t>((p + 1) % n)},
                 ObjectId{static_cast<std::uint32_t>(rng.index(1000))});
    const std::size_t deg = kind == GraphKind::kDense    ? 32
                            : kind == GraphKind::kSparse ? 4
                                                         : 2;
    for (std::size_t d = 0; d < deg; ++d)
      g.add_edge(PeerId{static_cast<std::uint32_t>(rng.index(n))},
                 ObjectId{static_cast<std::uint32_t>(rng.index(1000))});
    std::uint32_t seen[kClosersPerRoot];
    std::size_t num_seen = 0;
    for (std::size_t j = 0; j < kClosersPerRoot; ++j) {
      const std::uint32_t q =
          nth_closer(static_cast<std::uint32_t>(p), j, n);
      bool dup = false;
      for (std::size_t s = 0; s < num_seen; ++s) dup = dup || seen[s] == q;
      if (dup) continue;
      seen[num_seen++] = q;
      g.add_want(ObjectId{q}, PeerId{q});
      g.add_closure(PeerId{q}, ObjectId{q});
    }
    g.next_peer();
  }
  g.finish();
  return g;
}

/// Graphs are expensive to build at 50k peers; cache per (kind, size).
const GraphSnapshot& graph_for(GraphKind kind, std::size_t n) {
  static std::map<std::pair<int, std::size_t>, GraphSnapshot> cache;
  const auto key = std::make_pair(static_cast<int>(kind), n);
  auto it = cache.find(key);
  if (it == cache.end()) it = cache.emplace(key, make_graph(kind, n)).first;
  return it->second;
}

void run_search_bench(benchmark::State& state, GraphKind kind,
                      TreeMode mode) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const GraphSnapshot& g = graph_for(kind, n);
  ExchangeFinder f(ExchangePolicy::kShortestFirst, 5, mode);
  if (mode == TreeMode::kBloom) f.rebuild_summaries(g, 64, 0.02);
  std::uint32_t root = 0;
  (void)f.find(g, PeerId{root}, 8);  // warm the scratch buffers
  std::uint64_t rings = 0;
  const std::uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  for (auto _ : state) {
    rings += f.find(g, PeerId{root}, 8).size();
    root = (root + 7919) % static_cast<std::uint32_t>(n);
  }
  const std::uint64_t allocs_after =
      g_alloc_count.load(std::memory_order_relaxed);
  state.SetItemsProcessed(state.iterations());
  state.counters["allocs_per_search"] = benchmark::Counter(
      static_cast<double>(allocs_after - allocs_before) /
      static_cast<double>(std::max<std::int64_t>(1, state.iterations())));
  state.counters["rings_per_search"] = benchmark::Counter(
      static_cast<double>(rings) /
      static_cast<double>(std::max<std::int64_t>(1, state.iterations())));
}

void BM_SearchFullDense(benchmark::State& state) {
  run_search_bench(state, GraphKind::kDense, TreeMode::kFullTree);
}
void BM_SearchFullSparse(benchmark::State& state) {
  run_search_bench(state, GraphKind::kSparse, TreeMode::kFullTree);
}
void BM_SearchFullDeepRing(benchmark::State& state) {
  run_search_bench(state, GraphKind::kDeepRing, TreeMode::kFullTree);
}
void BM_SearchBloomDense(benchmark::State& state) {
  run_search_bench(state, GraphKind::kDense, TreeMode::kBloom);
}
BENCHMARK(BM_SearchFullDense)->Arg(1000)->Arg(10000)->Arg(50000);
BENCHMARK(BM_SearchFullSparse)->Arg(1000)->Arg(10000)->Arg(50000);
BENCHMARK(BM_SearchFullDeepRing)->Arg(1000)->Arg(10000)->Arg(50000);
BENCHMARK(BM_SearchBloomDense)->Arg(1000)->Arg(10000);

// --- churned search: mutation/search interleaving -------------------------

/// Mutable synthetic request graph in the make_graph shapes: rows are
/// kept in a naive per-peer model and the GraphSnapshot is maintained
/// either by patching the dirty rows or by a full rebuild (baseline).
class ChurnedGraph {
 public:
  ChurnedGraph(GraphKind kind, std::size_t n)
      : kind_(kind), n_(n), rng_(7), edges_(n), closers_(n), version_(n, 0) {
    for (std::size_t p = 0; p < n; ++p) regen_row(p);
    maintain_rebuild();
  }

  /// Regenerates `count` rows (deterministic victim walk); the dirty
  /// list is what the next maintain_* call must apply.
  void mutate(std::size_t count) {
    dirty_.clear();
    for (std::size_t i = 0; i < count; ++i) {
      victim_ = (victim_ + 7919) % n_;
      regen_row(victim_);
      dirty_.push_back(PeerId{static_cast<std::uint32_t>(victim_)});
    }
  }

  void maintain_patch() {
    snap_.begin_patch();
    for (const PeerId p : dirty_) {
      snap_.patch_peer(p);
      emit_row(p.value);
      snap_.seal_peer();
    }
    snap_.finish_patch();
  }

  void maintain_rebuild() {
    snap_.begin(n_);
    for (std::size_t p = 0; p < n_; ++p) {
      emit_row(static_cast<std::uint32_t>(p));
      snap_.next_peer();
    }
    snap_.finish();
  }

  [[nodiscard]] const GraphSnapshot& snapshot() const { return snap_; }
  [[nodiscard]] std::size_t dirty_rows() const { return dirty_.size(); }

 private:
  void regen_row(std::size_t p) {
    const std::uint32_t salt = ++version_[p];
    auto& edges = edges_[p];
    edges.clear();
    if (kind_ == GraphKind::kDeepRing)
      edges.emplace_back(PeerId{static_cast<std::uint32_t>((p + 1) % n_)},
                         ObjectId{static_cast<std::uint32_t>(rng_.index(1000))});
    const std::size_t deg = kind_ == GraphKind::kDense    ? 32
                            : kind_ == GraphKind::kSparse ? 4
                                                          : 2;
    for (std::size_t d = 0; d < deg; ++d)
      edges.emplace_back(PeerId{static_cast<std::uint32_t>(rng_.index(n_))},
                         ObjectId{static_cast<std::uint32_t>(rng_.index(1000))});
    auto& closers = closers_[p];
    closers.clear();
    for (std::size_t j = 0; j < kClosersPerRoot; ++j) {
      const std::uint32_t q =
          nth_closer(static_cast<std::uint32_t>(p) ^ (salt * 2246822519U), j,
                     n_);
      if (std::find(closers.begin(), closers.end(), q) != closers.end())
        continue;
      closers.push_back(q);
    }
  }

  void emit_row(std::uint32_t p) {
    for (const auto& [requester, object] : edges_[p])
      snap_.add_edge(requester, object);
    for (const std::uint32_t q : closers_[p]) {
      snap_.add_want(ObjectId{q}, PeerId{q});
      snap_.add_closure(PeerId{q}, ObjectId{q});
    }
  }

  GraphKind kind_;
  std::size_t n_;
  Rng rng_;
  std::vector<std::vector<std::pair<PeerId, ObjectId>>> edges_;
  std::vector<std::vector<std::uint32_t>> closers_;
  std::vector<std::uint32_t> version_;
  std::vector<PeerId> dirty_;
  std::size_t victim_ = 0;
  GraphSnapshot snap_;
};

constexpr std::size_t kChurnDirtyPerEpoch = 32;
constexpr std::size_t kChurnSearchesPerEpoch = 4;

void run_churned_bench(benchmark::State& state, GraphKind kind, bool patch) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ChurnedGraph g(kind, n);
  ExchangeFinder f(ExchangePolicy::kShortestFirst, 5, TreeMode::kFullTree);
  std::uint32_t root = 0;
  (void)f.find(g.snapshot(), PeerId{root}, 8);  // warm the scratch buffers
  std::uint64_t rings = 0;
  std::uint64_t maint_ns = 0;
  std::uint64_t maint_allocs = 0;
  std::uint64_t dirty_total = 0;
  for (auto _ : state) {
    g.mutate(kChurnDirtyPerEpoch);
    dirty_total += g.dirty_rows();
    // Allocations are counted around the maintenance call only —
    // including the searches would bury a maintenance-allocation
    // regression under the returned-proposal allocations.
    const std::uint64_t a0 = g_alloc_count.load(std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    if (patch)
      g.maintain_patch();
    else
      g.maintain_rebuild();
    maint_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    maint_allocs += g_alloc_count.load(std::memory_order_relaxed) - a0;
    for (std::size_t s = 0; s < kChurnSearchesPerEpoch; ++s) {
      rings += f.find(g.snapshot(), PeerId{root}, 8).size();
      root = (root + 7919) % static_cast<std::uint32_t>(n);
    }
  }
  const auto iters =
      static_cast<double>(std::max<std::int64_t>(1, state.iterations()));
  state.SetItemsProcessed(state.iterations());
  state.counters["maint_us_per_epoch"] =
      benchmark::Counter(static_cast<double>(maint_ns) / 1000.0 / iters);
  state.counters["dirty_rows_per_epoch"] =
      benchmark::Counter(static_cast<double>(dirty_total) / iters);
  state.counters["allocs_per_epoch"] =
      benchmark::Counter(static_cast<double>(maint_allocs) / iters);
  state.counters["rings_per_search"] = benchmark::Counter(
      static_cast<double>(rings) /
      (iters * static_cast<double>(kChurnSearchesPerEpoch)));
}

void BM_ChurnedSearchDense(benchmark::State& state) {
  run_churned_bench(state, GraphKind::kDense, /*patch=*/true);
}
void BM_ChurnedSearchDenseFullRebuild(benchmark::State& state) {
  run_churned_bench(state, GraphKind::kDense, /*patch=*/false);
}
void BM_ChurnedSearchSparse(benchmark::State& state) {
  run_churned_bench(state, GraphKind::kSparse, /*patch=*/true);
}
void BM_ChurnedSearchSparseFullRebuild(benchmark::State& state) {
  run_churned_bench(state, GraphKind::kSparse, /*patch=*/false);
}
BENCHMARK(BM_ChurnedSearchDense)->Arg(1000)->Arg(10000);
BENCHMARK(BM_ChurnedSearchDenseFullRebuild)->Arg(1000)->Arg(10000);
BENCHMARK(BM_ChurnedSearchSparse)->Arg(10000)->Arg(50000);
BENCHMARK(BM_ChurnedSearchSparseFullRebuild)->Arg(10000)->Arg(50000);

// --- parallel search: thread sweeps over the worker pool ------------------
//
// BM_ParallelSearchDense is the parallel engine's speculation phase in
// isolation: a batch of independent ring searches over the immutable
// 10k-peer dense snapshot, sharded across a WorkerPool with one
// ExchangeFinder per shard (the production configuration). Wall time per
// batch (UseRealTime) is the scaling figure CI tracks — the searches are
// read-only and embarrassingly parallel, so throughput should scale with
// hardware threads. BM_ParallelChurned adds the serial coordinator work
// the real engine interleaves: each epoch mutates rows and patches the
// snapshot on the calling thread, then fans a search batch out to the
// pool — the Amdahl check that maintenance stays small next to the
// parallel phase.

constexpr std::size_t kParallelSearchBatch = 512;

/// Per-shard finder set shared across bench iterations (scratch stays
/// warm, matching the engine's persistent worker finders).
std::vector<std::unique_ptr<ExchangeFinder>> make_finders(
    std::size_t threads, const GraphSnapshot& g) {
  std::vector<std::unique_ptr<ExchangeFinder>> finders;
  finders.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    finders.push_back(std::make_unique<ExchangeFinder>(
        ExchangePolicy::kShortestFirst, 5, TreeMode::kFullTree));
    (void)finders.back()->find(g, PeerId{0}, 8);  // warm the scratch
  }
  return finders;
}

void BM_ParallelSearchDense(benchmark::State& state) {
  const std::size_t n = 10000;
  const auto threads = static_cast<std::size_t>(state.range(0));
  const GraphSnapshot& g = graph_for(GraphKind::kDense, n);
  parallel::WorkerPool pool(threads);
  auto finders = make_finders(threads, g);
  std::vector<std::uint64_t> rings_by_shard(threads, 0);
  const parallel::ShardMap map(kParallelSearchBatch, threads);
  std::uint32_t base = 0;
  for (auto _ : state) {
    pool.run(threads, [&](std::size_t s) {
      ExchangeFinder& f = *finders[s];
      std::uint64_t local = 0;
      const parallel::ShardRange range = map.range(s);
      for (std::size_t i = range.begin; i < range.end; ++i) {
        const auto root = static_cast<std::uint32_t>(
            (base + i * 7919) % n);
        local += f.find(g, PeerId{root}, 8).size();
      }
      rings_by_shard[s] += local;
    });
    base = static_cast<std::uint32_t>((base + kParallelSearchBatch * 7919) % n);
  }
  std::uint64_t rings = 0;
  for (const std::uint64_t r : rings_by_shard) rings += r;
  const auto searches =
      static_cast<double>(state.iterations()) * kParallelSearchBatch;
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kParallelSearchBatch));
  state.counters["searches_per_sec"] = benchmark::Counter(
      searches, benchmark::Counter::kIsRate);
  state.counters["rings_per_search"] = benchmark::Counter(
      static_cast<double>(rings) / std::max(1.0, searches));
}
BENCHMARK(BM_ParallelSearchDense)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void BM_ParallelChurned(benchmark::State& state) {
  const std::size_t n = 10000;
  const auto threads = static_cast<std::size_t>(state.range(0));
  ChurnedGraph g(GraphKind::kDense, n);
  parallel::WorkerPool pool(threads);
  auto finders = make_finders(threads, g.snapshot());
  std::vector<std::uint64_t> rings_by_shard(threads, 0);
  constexpr std::size_t kSearchesPerEpoch = 128;
  const parallel::ShardMap map(kSearchesPerEpoch, threads);
  std::uint64_t maint_ns = 0;
  std::uint32_t base = 0;
  for (auto _ : state) {
    // Serial coordinator work: mutate rows, patch the snapshot.
    const auto t0 = std::chrono::steady_clock::now();
    g.mutate(kChurnDirtyPerEpoch);
    g.maintain_patch();
    maint_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    // Parallel phase: the epoch's search batch over the fresh snapshot.
    const GraphSnapshot& snap = g.snapshot();
    pool.run(threads, [&](std::size_t s) {
      ExchangeFinder& f = *finders[s];
      std::uint64_t local = 0;
      const parallel::ShardRange range = map.range(s);
      for (std::size_t i = range.begin; i < range.end; ++i) {
        const auto root = static_cast<std::uint32_t>(
            (base + i * 7919) % n);
        local += f.find(snap, PeerId{root}, 8).size();
      }
      rings_by_shard[s] += local;
    });
    base = static_cast<std::uint32_t>((base + kSearchesPerEpoch * 7919) % n);
  }
  const auto iters =
      static_cast<double>(std::max<std::int64_t>(1, state.iterations()));
  state.SetItemsProcessed(state.iterations());
  state.counters["maint_us_per_epoch"] =
      benchmark::Counter(static_cast<double>(maint_ns) / 1000.0 / iters);
  state.counters["searches_per_sec"] = benchmark::Counter(
      iters * static_cast<double>(kSearchesPerEpoch),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ParallelChurned)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

// --- crash churn over the full System --------------------------------------
//
// Each epoch crashes a block of peers (lossy teardown: ring collapses
// cascade through the stamped session-scratch buffers, lookup retraction
// is deferred) and rejoins them, with the closed-loop workload running in
// between. allocs_per_epoch is the regression guard for the
// allocation-free collapse path: with the scratch pool and recycled
// entity tables, steady state is event-scheduling noise, not a function
// of collapse volume.
void BM_SystemCrashChurn(benchmark::State& state) {
  SimConfig cfg = SimConfig::paper_defaults();
  cfg.num_peers = 100;
  cfg.sim_duration = 1e12;  // effectively unbounded; the bench paces time
  cfg.seed = 17;
  System sys(cfg);
  constexpr double kEpochDt = 120.0;
  constexpr std::uint32_t kCrashBlock = 8;
  SimTime t = 0.0;
  std::uint32_t base = 0;
  // Warm: let tables/scratch reach steady-state capacity first.
  for (int i = 0; i < 8; ++i) {
    t += kEpochDt;
    sys.run_to(t);
    for (std::uint32_t j = 0; j < kCrashBlock; ++j)
      sys.peer_crash(PeerId{(base + j) % 100});
    t += kEpochDt;
    sys.run_to(t);
    for (std::uint32_t j = 0; j < kCrashBlock; ++j)
      sys.peer_join(PeerId{(base + j) % 100});
    base = (base + kCrashBlock) % 100;
  }
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    const std::uint64_t a0 = g_alloc_count.load(std::memory_order_relaxed);
    t += kEpochDt;
    sys.run_to(t);
    for (std::uint32_t j = 0; j < kCrashBlock; ++j)
      sys.peer_crash(PeerId{(base + j) % 100});
    t += kEpochDt;
    sys.run_to(t);
    for (std::uint32_t j = 0; j < kCrashBlock; ++j)
      sys.peer_join(PeerId{(base + j) % 100});
    base = (base + kCrashBlock) % 100;
    allocs += g_alloc_count.load(std::memory_order_relaxed) - a0;
  }
  const auto iters =
      static_cast<double>(std::max<std::int64_t>(1, state.iterations()));
  state.SetItemsProcessed(state.iterations());
  state.counters["allocs_per_epoch"] =
      benchmark::Counter(static_cast<double>(allocs) / iters);
  state.counters["crashes_per_epoch"] =
      benchmark::Counter(static_cast<double>(kCrashBlock));
}
BENCHMARK(BM_SystemCrashChurn);

// --- discovery backend queries --------------------------------------------
//
// BM_Lookup* measures LookupBackend::query at 10k/100k peers per
// backend: the oracle reads the truth index, PEX scans the requester's
// gossip cache (warmed by 30 rounds), the DHT routes a prefix walk per
// query. Backend construction and population are cached per (kind, n) —
// google-benchmark re-invokes the function while calibrating, and a
// 100k-peer PEX warm-up must not re-run each time. wire_bytes_per_query
// and hops_per_query record the modeled network cost alongside the CPU
// cost.

/// Everyone online and reachable (query cost with no fault noise)
/// unless a bench flips a peer; flips bump the world epoch.
class BenchWorld final : public discovery::WorldView {
 public:
  explicit BenchWorld(std::size_t n) : online_(n, 1) {}
  [[nodiscard]] std::size_t num_peers() const override {
    return online_.size();
  }
  [[nodiscard]] bool peer_online(PeerId p) const override {
    return online_[p.value] != 0;
  }
  [[nodiscard]] std::uint32_t component(PeerId) const override { return 0; }
  void flip(PeerId p) {
    online_[p.value] ^= 1;
    bump_world_epoch();
  }

 private:
  std::vector<std::uint8_t> online_;
};

struct LookupFixture {
  std::unique_ptr<BenchWorld> world;
  std::unique_ptr<LookupService> truth;
  std::unique_ptr<Rng> oracle_rng;
  std::unique_ptr<discovery::LookupBackend> backend;
  SimTime now = 0.0;
};

constexpr std::size_t kLookupObjects = 2000;
constexpr std::size_t kProvidersPerObject = 4;
constexpr std::size_t kPexWarmRounds = 30;

/// `churned` builds a separate instance whose world the bench mutates.
LookupFixture& lookup_fixture(discovery::BackendKind kind, std::size_t n,
                              bool churned = false) {
  static std::map<std::tuple<int, std::size_t, bool>, LookupFixture> cache;
  const auto key = std::make_tuple(static_cast<int>(kind), n, churned);
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  LookupFixture f;
  f.world = std::make_unique<BenchWorld>(n);
  f.truth = std::make_unique<LookupService>();
  f.oracle_rng = std::make_unique<Rng>(11);
  discovery::DiscoveryConfig cfg;
  cfg.backend = kind;
  f.backend = discovery::make_backend(cfg, 0.5, *f.truth, *f.oracle_rng, 11,
                                      *f.world);
  Rng rng(13);
  for (std::size_t o = 0; o < kLookupObjects; ++o) {
    for (std::size_t r = 0; r < kProvidersPerObject; ++r) {
      const PeerId p{static_cast<std::uint32_t>(rng.index(n))};
      if (f.truth->has_owner(ObjectId{static_cast<std::uint32_t>(o)}, p))
        continue;
      f.truth->add_owner(ObjectId{static_cast<std::uint32_t>(o)}, p);
      f.backend->add_owner(ObjectId{static_cast<std::uint32_t>(o)}, p, 0.0);
    }
  }
  if (kind == discovery::BackendKind::kPex) {
    const SimTime dt = cfg.gossip_interval;
    for (std::size_t r = 0; r < kPexWarmRounds; ++r)
      f.backend->tick(static_cast<double>(r + 1) * dt);
    f.now = static_cast<double>(kPexWarmRounds) * dt;
  }
  (void)f.backend->drain_costs();  // setup traffic is not the measurement
  return cache.emplace(key, std::move(f)).first->second;
}

/// Queries between world changes in BM_LookupBackendDhtChurned. The
/// bench/e2e discovery workload changes its world more often, about
/// once per 1400 DHT walks, but at 55 peers a refresh is cheap there.
constexpr std::uint32_t kQueriesPerFlip = 4096;

/// `first_object` shifts the queried ids: 0 queries the published
/// objects, kLookupObjects queries ids nobody ever published. `churned`
/// flips one peer's online state every kQueriesPerFlip queries (taking
/// a peer down, then bringing it back), so each flip costs the DHT a
/// liveness-mask refresh and a cold walk memo.
void run_lookup_bench(benchmark::State& state, discovery::BackendKind kind,
                      std::uint32_t first_object = 0, bool churned = false) {
  const auto n = static_cast<std::size_t>(state.range(0));
  LookupFixture& f = lookup_fixture(kind, n, churned);
  std::uint64_t providers = 0;
  std::uint32_t q = 0;
  std::uint32_t flips = 0;
  for (auto _ : state) {
    if (churned && q % kQueriesPerFlip == 0) {
      f.world->flip(
          PeerId{(flips / 2 * 7919u) % static_cast<std::uint32_t>(n)});
      ++flips;
    }
    const discovery::LookupQuery query{
        ObjectId{first_object +
                 q % static_cast<std::uint32_t>(kLookupObjects)},
        PeerId{(q * 7919u) % static_cast<std::uint32_t>(n)}, f.now};
    providers += f.backend->query(query).providers.size();
    ++q;
  }
  const discovery::DiscoveryCosts costs = f.backend->drain_costs();
  const auto iters =
      static_cast<double>(std::max<std::int64_t>(1, state.iterations()));
  state.SetItemsProcessed(state.iterations());
  state.counters["wire_bytes_per_query"] =
      benchmark::Counter(static_cast<double>(costs.wire_bytes) / iters);
  state.counters["hops_per_query"] =
      benchmark::Counter(static_cast<double>(costs.hops) / iters);
  state.counters["providers_per_query"] =
      benchmark::Counter(static_cast<double>(providers) / iters);
  // Leave the fixture's world as found (everyone online) for the next
  // invocation.
  if (flips % 2 == 1)
    f.world->flip(PeerId{(flips / 2 * 7919u) % static_cast<std::uint32_t>(n)});
}

void BM_LookupBackendOracle(benchmark::State& state) {
  run_lookup_bench(state, discovery::BackendKind::kOracle);
}
void BM_LookupBackendPex(benchmark::State& state) {
  run_lookup_bench(state, discovery::BackendKind::kPex);
}
void BM_LookupBackendDht(benchmark::State& state) {
  run_lookup_bench(state, discovery::BackendKind::kDht);
}
BENCHMARK(BM_LookupBackendOracle)->Arg(10000)->Arg(100000);
BENCHMARK(BM_LookupBackendPex)->Arg(10000)->Arg(100000);
// The engine's DHT traffic is almost all queries for objects nobody
// holds (about 185 per issued request on dht_discovery.scn): same walks,
// no records to return.
void BM_LookupBackendDhtUnpublished(benchmark::State& state) {
  run_lookup_bench(state, discovery::BackendKind::kDht,
                   static_cast<std::uint32_t>(kLookupObjects));
}
BENCHMARK(BM_LookupBackendDht)->Arg(10000)->Arg(100000);
BENCHMARK(BM_LookupBackendDhtUnpublished)->Arg(10000)->Arg(100000);
// Unpublished-object queries while the world churns: the DHT's routing
// cache pays an O(population) mask refresh and refills its walk memo
// after every flip.
void BM_LookupBackendDhtChurned(benchmark::State& state) {
  run_lookup_bench(state, discovery::BackendKind::kDht,
                   static_cast<std::uint32_t>(kLookupObjects),
                   /*churned=*/true);
}
BENCHMARK(BM_LookupBackendDhtChurned)->Arg(10000);

void BM_RequestTreeBuild(benchmark::State& state) {
  const GraphSnapshot& g =
      graph_for(GraphKind::kDense, static_cast<std::size_t>(state.range(0)));
  EdgeFn edges = [&g](PeerId p) {
    std::vector<std::pair<PeerId, ObjectId>> out;
    const std::span<const PeerId> requesters = g.requesters_of(p);
    const std::span<const ObjectId> objects = g.edge_objects_of(p);
    for (std::size_t i = 0; i < requesters.size(); ++i)
      out.emplace_back(requesters[i], objects[i]);
    return out;
  };
  for (auto _ : state)
    benchmark::DoNotOptimize(RequestTree::build(PeerId{0}, 5, 4096, edges));
}
BENCHMARK(BM_RequestTreeBuild)->Arg(1000);

void BM_BloomSummaryRebuild(benchmark::State& state) {
  const GraphSnapshot& g =
      graph_for(GraphKind::kDense, static_cast<std::size_t>(state.range(0)));
  ExchangeFinder f(ExchangePolicy::kShortestFirst, 5, TreeMode::kBloom);
  for (auto _ : state) f.rebuild_summaries(g, 64, 0.02);
}
BENCHMARK(BM_BloomSummaryRebuild)->Arg(1000);

// Per-span cost of P2PEX_TRACE_SPAN. Arg(0): tracing compiled in but no
// recorder installed — the path every engine phase pays on ordinary runs,
// which must stay at one relaxed atomic load. Arg(1): recorder installed
// — two clock reads plus a ring store, the price of running with --trace.
void BM_TraceOverhead(benchmark::State& state) {
  obs::TraceRecorder recorder;
  if (state.range(0) != 0) recorder.install();
  for (auto _ : state) {
    P2PEX_TRACE_SPAN("bench.span", "bench");
    benchmark::ClobberMemory();
  }
  recorder.uninstall();
  state.counters["spans"] = static_cast<double>(recorder.events_recorded());
}
BENCHMARK(BM_TraceOverhead)->ArgName("installed")->Arg(0)->Arg(1);

}  // namespace
}  // namespace p2pex

int main(int argc, char** argv) {
  // Default to archiving JSON results as BENCH_search.json so every run
  // leaves a diffable artifact; an explicit --benchmark_out wins.
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  std::string out_flag = "--benchmark_out=BENCH_search.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int ac = static_cast<int>(args.size());
  benchmark::Initialize(&ac, args.data());
  if (benchmark::ReportUnrecognizedArguments(ac, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
