// Scenario runner: load a declarative .scn workload, execute it, and
// print the standard metrics report.
//
//   ./build/examples/scenario_runner examples/flash_crowd.scn
//   ./build/examples/scenario_runner --print examples/flash_crowd.scn
//   ./build/examples/scenario_runner --stable examples/flash_crowd.scn
//   ./build/examples/scenario_runner --metrics-json out.json
//       --trace out.trace.json examples/flash_crowd.scn
//
// --print dumps the parsed scenario back in canonical form (useful to
// check what a hand-written file actually means) without running it.
// --threads N overrides the scenario's `threads` knob, which is
// validated and echoed in the config line but has no effect (runs are
// serial).
// --lookup overrides the scenario's discovery backend (`set
// lookup_backend ...`), so one .scn compares oracle vs pex vs dht.
// --stable omits the wall-clock figures from the output, so two runs of
// the same scenario must be byte-identical.
// --metrics-json writes the MetricsRegistry snapshot. Under --stable
// the timing domain is omitted, so the file joins the byte-identical
// replay contract; without --stable it carries the timing domain too.
// --trace writes a Chrome trace-event JSON (Perfetto-loadable) of the
// engine's phase spans. Requires the default P2PEX_TRACE=ON build; a
// tracing-free build writes an empty-but-valid trace and warns.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/experiment.h"
#include "metrics/report.h"
#include "obs/trace.h"
#include "scenario/driver.h"
#include "util/table.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: scenario_runner [--print] [--stable] [--threads N] "
               "[--lookup oracle|pex|dht] [--metrics-json <path>] "
               "[--trace <path>] <file.scn>\n");
  return 2;
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace p2pex;

  bool print_only = false;
  bool stable = false;
  std::size_t threads_override = 0;  // 0 = keep the scenario's knob
  std::string lookup_override;       // empty = keep the scenario's knob
  std::string path;
  std::string metrics_path;
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--print") == 0) {
      print_only = true;
    } else if (std::strcmp(argv[i], "--stable") == 0) {
      stable = true;
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      if (i + 1 >= argc) return usage();
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(argv[++i], &end, 10);
      if (end == nullptr || *end != '\0' || parsed < 1) return usage();
      threads_override = parsed;
    } else if (std::strcmp(argv[i], "--lookup") == 0) {
      if (i + 1 >= argc) return usage();
      lookup_override = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-json") == 0) {
      if (i + 1 >= argc) return usage();
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) return usage();
      trace_path = argv[++i];
    } else if (path.empty()) {
      path = argv[i];
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();

  scenario::Spec spec;
  try {
    spec = scenario::Spec::parse_file(path);
    if (threads_override != 0) {
      spec.config.threads = threads_override;
      spec.validate();
    }
    if (!lookup_override.empty()) {
      spec.config.discovery.backend =
          scenario::parse_lookup_backend(lookup_override);
      spec.validate();
    }
  } catch (const scenario::ScenarioError& e) {
    std::fprintf(stderr, "scenario error: %s\n", e.what());
    return 1;
  }

  if (print_only) {
    std::printf("%s", spec.to_text().c_str());
    return 0;
  }

#ifdef P2PEX_TRACE
  // Trace phases whenever the output could be seen: an explicit --trace,
  // or the default (non---stable) report's phase table. --stable stays
  // recorder-free unless asked, so its stdout is untouched by tracing.
  obs::TraceRecorder recorder;
  const bool tracing = !trace_path.empty() || !stable;
  if (tracing) recorder.install();
#else
  const bool tracing = false;
  if (!trace_path.empty())
    std::fprintf(stderr,
                 "warning: built without P2PEX_TRACE; writing an empty "
                 "trace\n");
#endif

  scenario::Driver driver(std::move(spec));
  const SimConfig& cfg = driver.system().config();
  std::printf("scenario: %s (%s base, %zu cohorts, %zu timeline events)\n",
              driver.spec().name.c_str(), driver.spec().base.c_str(),
              driver.spec().cohorts.size(), driver.spec().timeline.size());
  std::printf("config:   %s\n\n", cfg.describe().c_str());

  driver.run();

  const System& system = driver.system();
  const SystemCounters& c = system.counters();
  const RunResult r = summarize_run(system);

  std::printf("%s\n", format_summary_line(system.metrics()).c_str());
  std::printf(
      "dynamics: %llu departures, %llu arrivals, %llu sharing flips, "
      "%llu downloads withdrawn by churn\n",
      static_cast<unsigned long long>(c.peer_departures),
      static_cast<unsigned long long>(c.peer_arrivals),
      static_cast<unsigned long long>(c.sharing_flips),
      static_cast<unsigned long long>(c.downloads_withdrawn));
  std::printf("rings:    %llu formed, %llu preemptions\n",
              static_cast<unsigned long long>(r.rings_formed),
              static_cast<unsigned long long>(r.preemptions));
  // Deterministic-domain counters: the line joins the --stable replay
  // contract (all zero on fault-free scenarios).
  std::printf(
      "faults:   %llu crashes, %llu sessions failed, %llu retries "
      "(%llu exhausted), %llu stale proposals, %llu partition collapses\n",
      static_cast<unsigned long long>(c.peer_crashes),
      static_cast<unsigned long long>(c.sessions_failed),
      static_cast<unsigned long long>(c.transfer_retries),
      static_cast<unsigned long long>(c.retry_exhausted),
      static_cast<unsigned long long>(c.stale_proposals),
      static_cast<unsigned long long>(c.partition_collapses));
  // Discovery-backend counters, deterministic domain: part of the
  // --stable replay contract (all zero on the oracle default).
  std::printf(
      "discovery: %s backend, %llu wire bytes, %llu gossip rounds, "
      "%llu hops, %llu misses, %llu stale entries served\n",
      discovery::to_string(system.discovery_backend().kind()).c_str(),
      static_cast<unsigned long long>(c.lookup_wire_bytes),
      static_cast<unsigned long long>(c.gossip_rounds),
      static_cast<unsigned long long>(c.dht_hops),
      static_cast<unsigned long long>(c.lookup_misses),
      static_cast<unsigned long long>(c.stale_entries_served));
  std::printf("snapshot: %llu full rebuilds, %llu patches (%llu dirty rows)\n",
              static_cast<unsigned long long>(r.snapshot_rebuilds),
              static_cast<unsigned long long>(r.snapshot_patches),
              static_cast<unsigned long long>(r.dirty_rows_patched));
  std::printf("\n%s", format_report(system.metrics(), c).c_str());

#ifdef P2PEX_TRACE
  if (tracing) {
    recorder.uninstall();
    if (!stable) {
      // End-of-run per-phase timing table (wall clock: non---stable only).
      TablePrinter t({"phase", "count", "total ms", "mean us"});
      for (const obs::PhaseTotal& p : recorder.phase_totals()) {
        const double total_ms = static_cast<double>(p.total_ns) / 1e6;
        const double mean_us = static_cast<double>(p.total_ns) / 1e3 /
                               static_cast<double>(p.count);
        t.add_row({p.name, std::to_string(p.count),
                   TablePrinter::num(total_ms, 2),
                   TablePrinter::num(mean_us, 2)});
      }
      std::printf("-- phase timing --\n%s", t.to_string().c_str());
      if (recorder.events_dropped() > 0)
        std::printf("(ring overflow: %llu oldest spans dropped from the "
                    "trace; aggregates above are complete)\n",
                    static_cast<unsigned long long>(recorder.events_dropped()));
      std::printf("\n");
    }
    if (!trace_path.empty() &&
        !write_file(trace_path, recorder.to_chrome_json()))
      return 1;
  }
#else
  if (!trace_path.empty() &&
      !write_file(trace_path,
                  "{\"displayTimeUnit\": \"ms\", \"traceEvents\": []}\n"))
    return 1;
#endif
  static_cast<void>(tracing);

  if (!metrics_path.empty()) {
    // --stable exports the deterministic domain only: the file is part
    // of the byte-identical replay contract.
    const obs::MetricsRegistry& reg = system.metrics_registry();
    if (!write_file(metrics_path, reg.to_json(/*include_timing=*/!stable)))
      return 1;
  }
  return 0;
}
