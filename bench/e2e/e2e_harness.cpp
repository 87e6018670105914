// End-to-end benchmark harness: runs one .scn workload through the
// public p2pex API, as a batch of replicas with consecutive seeds, and
// prints one JSON object with the wall time of every layer call, the
// deterministic work counts and the output digests.
//
//   e2e_harness --scn <file> --seed S --threads T [--replicas K]
//               [--trace-out <path>]
//
// Replica i runs the scenario with seed S + i on T threads. Timed calls
// per replica, in order: Spec::parse_file, the Driver constructor (the
// two together are the set-up), kSlices equal Driver::run_to steps of
// simulated time, the final Driver::run() (finalize), the report
// (summarize_run, format_report, registry JSON) and Driver destruction.
//
// With --trace-out, an obs::TraceRecorder is installed for the whole
// batch and its Chrome trace is written to <path>. The harness adds its
// own "e2e.*" spans around the calls above; the engine adds its phase
// spans inside them. bench/e2e/run.py rebuilds self time from that
// file. Untraced runs install no recorder.
//
// A replica's digest is FNV-1a-64 over format_summary_line +
// format_report + the deterministic registry JSON. It leaves out the
// config echo (which carries threads=) and every wall-clock figure, so
// it is equal across thread counts and across traced and untraced runs.
// It is not always equal to that of one straight run_to (see README.md).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/system.h"
#include "metrics/report.h"
#include "obs/trace.h"
#include "scenario/driver.h"
#include "scenario/spec.h"

namespace {

using Clock = std::chrono::steady_clock;

#if defined(P2PEX_SNAPSHOT_AUDIT) || defined(P2PEX_PARALLEL_AUDIT) || \
    defined(P2PEX_LOOKUP_AUDIT) || defined(P2PEX_EXPENSIVE_CHECKS) || \
    defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) ||  \
    !defined(NDEBUG)
constexpr const char* kUnfitBuild =
    "audit, sanitizer or assert-enabled build; the benchmark needs a plain "
    "Release build";
#else
constexpr const char* kUnfitBuild = nullptr;
#endif

/// Spans kept per thread: enough that the traced pass drops none.
constexpr std::size_t kTraceRing = std::size_t{1} << 20;

/// Equal run_to steps per replica; their times give the slice percentiles.
constexpr std::size_t kSlices = 200;

#ifdef P2PEX_TRACE
constexpr bool kTraceCompiled = true;
#else
constexpr bool kTraceCompiled = false;
#endif

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::string fnv1a64_hex(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

rusage usage_self() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

/// This process's peak resident set in kB. ru_maxrss would also count
/// the parent's resident set at fork, which Linux carries across exec;
/// VmHWM belongs to the address space exec created.
std::uint64_t peak_rss_kb(const rusage& ru) {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtoull(line.c_str() + 6, nullptr, 10);
  }
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

double cpu_seconds(const rusage& ru) {
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

struct Options {
  std::string scn;
  std::uint64_t seed = 0;
  std::size_t threads = 0;  // 0 until --threads is given
  std::size_t replicas = 1;
  std::string trace_out;
};

int usage() {
  std::fprintf(stderr,
               "usage: e2e_harness --scn <file> --seed S --threads T "
               "[--replicas K] [--trace-out <path>]\n");
  return 2;
}

bool parse_number(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

bool parse_args(int argc, char** argv, Options& o) {
  bool has_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--scn") {
      o.scn = value;
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else if (!parse_number(value, n)) {
      return false;
    } else if (flag == "--seed") {
      o.seed = n;
      has_seed = true;
    } else if (flag == "--replicas" && n >= 1) {
      o.replicas = n;
    } else if (flag == "--threads" && n >= 1) {
      o.threads = n;
    } else {
      return false;
    }
  }
  return !o.scn.empty() && has_seed && o.threads != 0;
}

/// Sums over the batch unless noted.
struct Batch {
  std::vector<std::string> digests;
  std::vector<double> setup_ms;   ///< per replica: parse + ctor
  std::vector<double> run_ms;     ///< per replica: slices + finalize
  std::vector<double> slice_ms;   ///< every slice of every replica
  double parse_ms = 0, ctor_ms = 0, finalize_ms = 0, report_ms = 0,
         teardown_ms = 0;
  double sim_duration_s = 0;
  std::size_t peers = 0, threads = 0, actions = 0;
  p2pex::SystemCounters c;
  p2pex::FinderStats f;
  p2pex::SpeculationStats sp;
  p2pex::MemoryFootprint mem;  ///< largest replica, field by field
};

void add(p2pex::SystemCounters& a, const p2pex::SystemCounters& b) {
  a.requests_issued += b.requests_issued;
  a.sessions_started += b.sessions_started;
  a.downloads_completed += b.downloads_completed;
  a.rings_formed += b.rings_formed;
  a.ring_attempts += b.ring_attempts;
  a.preemptions += b.preemptions;
  a.snapshot_rebuilds += b.snapshot_rebuilds;
  a.snapshot_patches += b.snapshot_patches;
  a.dirty_rows_patched += b.dirty_rows_patched;
  a.peer_crashes += b.peer_crashes;
  a.sessions_failed += b.sessions_failed;
  a.transfer_retries += b.transfer_retries;
  a.retry_exhausted += b.retry_exhausted;
  a.stale_proposals += b.stale_proposals;
  a.partition_collapses += b.partition_collapses;
  a.lookup_wire_bytes += b.lookup_wire_bytes;
  a.gossip_rounds += b.gossip_rounds;
  a.dht_hops += b.dht_hops;
  a.lookup_misses += b.lookup_misses;
  a.stale_entries_served += b.stale_entries_served;
}

void run_replica(const Options& o, std::uint64_t seed, Batch& b) {
  using namespace p2pex;

  Clock::time_point t0 = Clock::now();
  scenario::Spec spec;
  {
    P2PEX_TRACE_SPAN("e2e.parse", "e2e");
    spec = scenario::Spec::parse_file(o.scn);
    spec.config.seed = seed;
    spec.config.threads = o.threads;
    spec.validate();
  }
  const double parse_ms = ms_since(t0);

  t0 = Clock::now();
  std::unique_ptr<scenario::Driver> driver;
  {
    P2PEX_TRACE_SPAN("e2e.ctor", "e2e");
    driver = std::make_unique<scenario::Driver>(std::move(spec));
  }
  const double ctor_ms = ms_since(t0);
  b.parse_ms += parse_ms;
  b.ctor_ms += ctor_ms;
  b.setup_ms.push_back(parse_ms + ctor_ms);

  const double duration = driver->system().config().sim_duration;
  double run_ms = 0;
  for (std::size_t i = 1; i <= kSlices; ++i) {
    const double t = i == kSlices ? duration
                                  : duration * static_cast<double>(i) /
                                        static_cast<double>(kSlices);
    t0 = Clock::now();
    {
      P2PEX_TRACE_SPAN("e2e.slice", "e2e");
      driver->run_to(t);
    }
    b.slice_ms.push_back(ms_since(t0));
    run_ms += b.slice_ms.back();
  }

  t0 = Clock::now();
  {
    P2PEX_TRACE_SPAN("e2e.finalize", "e2e");
    driver->run();
  }
  const double finalize_ms = ms_since(t0);
  b.finalize_ms += finalize_ms;
  b.run_ms.push_back(run_ms + finalize_ms);

  t0 = Clock::now();
  std::string output;
  {
    P2PEX_TRACE_SPAN("e2e.report", "e2e");
    const System& sys = driver->system();
    // Timed with the rest of the report layer; its figures are already
    // in format_report, so the digest does not repeat them.
    static_cast<void>(summarize_run(sys));
    output = format_summary_line(sys.metrics()) + "\n" +
             format_report(sys.metrics(), sys.counters()) +
             sys.metrics_registry().to_json(/*include_timing=*/false);
  }
  b.report_ms += ms_since(t0);
  b.digests.push_back(fnv1a64_hex(output));

  const System& sys = driver->system();
  add(b.c, sys.counters());
  b.f += sys.finder_stats();
  const SpeculationStats& sp = sys.speculation_stats();
  b.sp.passes += sp.passes;
  b.sp.speculated += sp.speculated;
  b.sp.consumed += sp.consumed;
  b.sp.stale += sp.stale;
  b.sp.unused += sp.unused;
  const MemoryFootprint m = sys.memory_footprint();
  b.mem.peer_bytes = std::max(b.mem.peer_bytes, m.peer_bytes);
  b.mem.download_bytes = std::max(b.mem.download_bytes, m.download_bytes);
  b.mem.session_bytes = std::max(b.mem.session_bytes, m.session_bytes);
  b.mem.ring_bytes = std::max(b.mem.ring_bytes, m.ring_bytes);
  b.mem.graph_bytes = std::max(b.mem.graph_bytes, m.graph_bytes);
  b.sim_duration_s = duration;
  b.peers = sys.num_peers();
  b.threads = sys.threads();
  b.actions += driver->actions_total();

  t0 = Clock::now();
  {
    P2PEX_TRACE_SPAN("e2e.teardown", "e2e");
    driver.reset();
  }
  b.teardown_ms += ms_since(t0);
}

/// Appends `"key": value` fields to a JSON object.
class JsonOut {
 public:
  void num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    field(key, buf);
  }
  void count(const char* key, std::uint64_t v) {
    field(key, std::to_string(v));
  }
  void str(const char* key, const std::string& v) {
    field(key, '"' + v + '"');
  }
  void strs(const char* key, const std::vector<std::string>& v) {
    std::string list = "[";
    for (const std::string& s : v)
      list.append(list.size() > 1 ? ", \"" : "\"").append(s).append("\"");
    field(key, list + ']');
  }
  void nums(const char* key, const std::vector<double>& v) {
    std::string list = "[";
    for (const double x : v) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", x);
      list.append(list.size() > 1 ? ", " : "").append(buf);
    }
    field(key, list + ']');
  }
  [[nodiscard]] std::string finish() const { return body_ + '}'; }

 private:
  void field(const char* key, const std::string& v) {
    body_.append(body_.size() > 1 ? ", \"" : "\"").append(key);
    body_.append("\": ").append(v);
  }
  std::string body_ = "{";
};

int run(const Options& o) {
  std::unique_ptr<p2pex::obs::TraceRecorder> recorder;
  if (!o.trace_out.empty()) {
    recorder = std::make_unique<p2pex::obs::TraceRecorder>(kTraceRing);
    recorder->install();
  }

  Batch b;
  const double cpu0 = cpu_seconds(usage_self());
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < o.replicas; ++i) run_replica(o, o.seed + i, b);
  const double wall_ms = ms_since(start);
  const rusage ru = usage_self();

  std::string all;
  for (const std::string& d : b.digests) all += d;

  JsonOut j;
  j.str("digest", fnv1a64_hex(all));
  j.strs("replica_digests", b.digests);
  j.count("replicas", o.replicas);
  j.count("first_seed", o.seed);
  j.num("sim_duration_s", b.sim_duration_s);
  j.count("peers", b.peers);
  j.count("threads", b.threads);
  j.num("wall_ms", wall_ms);
  j.num("cpu_s", cpu_seconds(ru) - cpu0);
  j.count("peak_rss_kb", peak_rss_kb(ru));
  j.num("setup_ms_median", percentile(b.setup_ms, 0.5));
  j.nums("replica_run_ms", b.run_ms);
  j.num("parse_ms", b.parse_ms);
  j.num("ctor_ms", b.ctor_ms);
  double run_ms = 0;
  for (const double r : b.run_ms) run_ms += r;
  j.num("run_ms", run_ms);
  j.count("slices", b.slice_ms.size());
  j.num("slice_ms_p50", percentile(b.slice_ms, 0.50));
  j.num("slice_ms_p95", percentile(b.slice_ms, 0.95));
  j.num("finalize_ms", b.finalize_ms);
  j.num("report_ms", b.report_ms);
  j.num("teardown_ms", b.teardown_ms);
  j.count("actions", b.actions);
  j.count("requests_issued", b.c.requests_issued);
  j.count("sessions_started", b.c.sessions_started);
  j.count("downloads_completed", b.c.downloads_completed);
  j.count("rings_formed", b.c.rings_formed);
  j.count("ring_attempts", b.c.ring_attempts);
  j.count("preemptions", b.c.preemptions);
  j.count("snapshot_patches", b.c.snapshot_patches);
  j.count("snapshot_rebuilds", b.c.snapshot_rebuilds);
  j.count("dirty_rows_patched", b.c.dirty_rows_patched);
  j.count("finder_searches", b.f.searches);
  j.count("finder_discovered", b.f.discovered);
  j.count("finder_candidates", b.f.candidates);
  j.count("finder_nodes_visited", b.f.nodes_visited);
  j.count("spec_passes", b.sp.passes);
  j.count("spec_speculated", b.sp.speculated);
  j.count("spec_consumed", b.sp.consumed);
  j.count("spec_stale", b.sp.stale);
  j.count("spec_unused", b.sp.unused);
  j.count("lookup_wire_bytes", b.c.lookup_wire_bytes);
  j.count("dht_hops", b.c.dht_hops);
  j.count("gossip_rounds", b.c.gossip_rounds);
  j.count("lookup_misses", b.c.lookup_misses);
  j.count("stale_entries_served", b.c.stale_entries_served);
  j.count("peer_crashes", b.c.peer_crashes);
  j.count("sessions_failed", b.c.sessions_failed);
  j.count("transfer_retries", b.c.transfer_retries);
  j.count("retry_exhausted", b.c.retry_exhausted);
  j.count("stale_proposals", b.c.stale_proposals);
  j.count("partition_collapses", b.c.partition_collapses);
  j.count("mem_peer_bytes", b.mem.peer_bytes);
  j.count("mem_download_bytes", b.mem.download_bytes);
  j.count("mem_session_bytes", b.mem.session_bytes);
  j.count("mem_ring_bytes", b.mem.ring_bytes);
  j.count("mem_graph_bytes", b.mem.graph_bytes);

  if (recorder) {
    recorder->uninstall();
    j.count("trace_spans", recorder->events_recorded());
    j.count("trace_dropped", recorder->events_dropped());
    std::ofstream out(o.trace_out, std::ios::binary);
    out << recorder->to_chrome_json();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", o.trace_out.c_str());
      return 1;
    }
  }
  std::printf("%s\n", j.finish().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_args(argc, argv, o)) return usage();
  if (kUnfitBuild != nullptr) {
    std::fprintf(stderr, "e2e_harness: refusing to run: %s\n", kUnfitBuild);
    return 3;
  }
  if (!o.trace_out.empty() && !kTraceCompiled) {
    std::fprintf(stderr, "e2e_harness: built without P2PEX_TRACE\n");
    return 3;
  }
  // The ambient P2PEX_THREADS overrides the scenario's threads knob;
  // a workload's thread count must come from its definition alone.
  unsetenv("P2PEX_THREADS");
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_harness: %s\n", e.what());
    return 1;
  }
}
