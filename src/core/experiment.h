// Experiment driver: runs configured simulations and extracts the
// aggregates the paper's figures plot. Every bench binary goes through
// this layer so that figure code is pure sweep + print.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/system.h"

namespace p2pex {

/// Aggregates of one run, in the paper's units (minutes, MB).
struct RunResult {
  std::string label;                ///< e.g. "pairwise", "2-5-way"
  double mean_dl_minutes_sharing = 0.0;
  double mean_dl_minutes_nonsharing = 0.0;
  double mean_dl_minutes_all = 0.0;
  double dl_time_ratio = 0.0;       ///< non-sharing / sharing
  double exchange_fraction = 0.0;   ///< of post-warmup sessions
  std::size_t completed_sharing = 0;
  std::size_t completed_nonsharing = 0;
  double mean_session_volume_mb_sharing = 0.0;
  double mean_session_volume_mb_nonsharing = 0.0;
  std::uint64_t rings_formed = 0;
  std::uint64_t preemptions = 0;
  // --- graph-maintenance cost (snapshot delta path; see System docs) ---
  std::uint64_t snapshot_rebuilds = 0;    ///< full from-scratch builds
  std::uint64_t snapshot_patches = 0;     ///< dirty-row delta builds
  std::uint64_t dirty_rows_patched = 0;   ///< rows rewritten across patches

  [[nodiscard]] std::size_t completed_total() const {
    return completed_sharing + completed_nonsharing;
  }
};

/// Summarizes an already-run System into the paper's units. Label
/// defaults to the policy label of the system's config. Scenario-driven
/// runs (scenario::Driver) go through this to share the figure pipeline.
RunResult summarize_run(const System& system, std::string label = "");

/// Runs one simulation to completion and summarizes it. The System is
/// discarded; use run_system() when CDFs or counters are needed.
RunResult run_experiment(const SimConfig& config, std::string label = "");

/// Runs and returns the whole System for detailed inspection.
std::unique_ptr<System> run_system(const SimConfig& config);

/// The four policy variants the paper's figures compare, applied to a
/// base config: no exchange, pairwise, 5-2-way, 2-5-way (ring cap
/// `max_ring`, default 5).
std::vector<SimConfig> paper_policy_variants(const SimConfig& base,
                                             std::size_t max_ring = 5);

/// Scale factor for bench durations: the REPRO_SCALE environment variable
/// (default 1.0) multiplies sim_duration, letting CI smoke-run the full
/// harness quickly.
double repro_scale();

/// Applies repro_scale() to a config's duration.
SimConfig scaled(SimConfig config);

/// Seconds -> minutes (the paper's download-time unit).
constexpr double to_minutes(double seconds) { return seconds / 60.0; }

}  // namespace p2pex
