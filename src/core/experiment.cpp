#include "core/experiment.h"

#include <cstdlib>
#include <memory>

namespace p2pex {

RunResult summarize_run(const System& system, std::string label) {
  const MetricsCollector& m = system.metrics();
  const SimConfig& config = system.config();

  RunResult r;
  r.label = label.empty() ? policy_label(config.policy, config.max_ring_size)
                          : std::move(label);
  r.mean_dl_minutes_sharing = to_minutes(m.mean_download_time_sharing());
  r.mean_dl_minutes_nonsharing = to_minutes(m.mean_download_time_nonsharing());
  r.mean_dl_minutes_all = to_minutes(m.mean_download_time_all());
  r.dl_time_ratio = m.download_time_ratio();
  r.exchange_fraction = m.exchange_session_fraction();
  r.completed_sharing = m.downloads_sharing();
  r.completed_nonsharing = m.downloads_nonsharing();
  r.mean_session_volume_mb_sharing = m.mean_session_volume_sharing() / 1e6;
  r.mean_session_volume_mb_nonsharing =
      m.mean_session_volume_nonsharing() / 1e6;
  r.rings_formed = system.counters().rings_formed;
  r.preemptions = system.counters().preemptions;
  r.snapshot_rebuilds = system.counters().snapshot_rebuilds;
  r.snapshot_patches = system.counters().snapshot_patches;
  r.dirty_rows_patched = system.counters().dirty_rows_patched;
  return r;
}

RunResult run_experiment(const SimConfig& config, std::string label) {
  System system(config);
  system.run();
  return summarize_run(system, std::move(label));
}

std::unique_ptr<System> run_system(const SimConfig& config) {
  auto system = std::make_unique<System>(config);
  system->run();
  return system;
}

std::vector<SimConfig> paper_policy_variants(const SimConfig& base,
                                             std::size_t max_ring) {
  std::vector<SimConfig> out;
  SimConfig c = base;
  c.policy = ExchangePolicy::kNoExchange;
  out.push_back(c);
  c.policy = ExchangePolicy::kPairwiseOnly;
  c.max_ring_size = 2;
  out.push_back(c);
  c.policy = ExchangePolicy::kLongestFirst;  // "5-2-way"
  c.max_ring_size = max_ring;
  out.push_back(c);
  c.policy = ExchangePolicy::kShortestFirst;  // "2-5-way"
  out.push_back(c);
  return out;
}

double repro_scale() {
  if (const char* env = std::getenv("REPRO_SCALE")) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return 1.0;
}

SimConfig scaled(SimConfig config) {
  config.sim_duration *= repro_scale();
  return config;
}

}  // namespace p2pex
