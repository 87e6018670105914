// Quickstart: run the paper's default system (Table II) under the
// 2-5-way exchange policy and print the headline incentive numbers.
//
// Build & run:   cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "core/experiment.h"
#include "metrics/report.h"

int main() {
  using namespace p2pex;

  SimConfig cfg = SimConfig::paper_defaults();  // Table II
  cfg.policy = ExchangePolicy::kShortestFirst;  // "2-5-way"
  cfg.sim_duration = 20000.0;                   // ~5.5 simulated hours
  cfg.seed = 7;

  std::printf("p2pex quickstart — %s\n\n", cfg.describe().c_str());

  System system(cfg);
  system.run();

  const MetricsCollector& m = system.metrics();
  const SystemCounters& c = system.counters();

  std::printf("completed downloads:   %zu (sharing %zu, free-riding %zu)\n",
              m.downloads_sharing() + m.downloads_nonsharing(),
              m.downloads_sharing(), m.downloads_nonsharing());
  std::printf("mean download time:    sharing %.1f min, free-riding %.1f min "
              "(ratio %.2fx)\n",
              to_minutes(m.mean_download_time_sharing()),
              to_minutes(m.mean_download_time_nonsharing()),
              m.download_time_ratio());
  std::printf("exchange sessions:     %.1f%% of all sessions\n",
              100.0 * m.exchange_session_fraction());
  std::printf("rings formed:          %llu (pairwise %llu, 3-way %llu, "
              "4-way %llu, 5-way %llu)\n",
              static_cast<unsigned long long>(c.rings_formed),
              static_cast<unsigned long long>(c.rings_by_size[2]),
              static_cast<unsigned long long>(c.rings_by_size[3]),
              static_cast<unsigned long long>(c.rings_by_size[4]),
              static_cast<unsigned long long>(c.rings_by_size[5]));
  std::printf("preemptions:           %llu non-exchange transfers displaced "
              "by exchanges\n",
              static_cast<unsigned long long>(c.preemptions));

  std::printf("\nThe gap between the two means is the paper's incentive: "
              "peers that share\nfinish their downloads faster because "
              "exchange transfers get priority.\n");

  // The counters overload appends the snapshot-maintenance section.
  std::printf("\nfull report:\n\n%s", format_report(m, c).c_str());
  return 0;
}
