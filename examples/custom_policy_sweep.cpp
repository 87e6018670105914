// Using the library for your own experiments: sweep a custom knob.
//
// This example varies the free-rider fraction and prints, for each
// population mix, how much faster a sharer finishes than a free-rider —
// a miniature version of the paper's Figure 12 that you can point at any
// SimConfig field.
#include <cstdio>

#include "core/experiment.h"

using namespace p2pex;

int main() {
  SimConfig base = SimConfig::calibrated_defaults();
  base.num_peers = 120;                    // smaller for speed
  base.catalog.num_categories = 120;
  base.catalog.object_size = megabytes(10);
  base.sim_duration = 60000.0;
  base.policy = ExchangePolicy::kShortestFirst;
  base.seed = 2025;

  std::printf("sharing advantage vs free-rider fraction "
              "(2-5-way exchanges, %zu peers)\n\n", base.num_peers);
  std::printf("%-10s %14s %14s %8s %12s\n", "free-ride", "sharing(min)",
              "freeride(min)", "ratio", "rings");

  for (double frac : {0.2, 0.4, 0.6, 0.8}) {
    SimConfig cfg = scaled(base);
    cfg.nonsharing_fraction = frac;
    const RunResult r = run_experiment(cfg);
    std::printf("%-10.1f %14.1f %14.1f %7.2fx %12llu\n", frac,
                r.mean_dl_minutes_sharing, r.mean_dl_minutes_nonsharing,
                r.dl_time_ratio,
                static_cast<unsigned long long>(r.rings_formed));
  }

  std::printf("\nFor deeper analyses keep the System object:\n"
              "  auto s = run_system(cfg);\n"
              "  s->metrics().waiting_by_type(SessionType{2}).percentile(95);\n");
  return 0;
}
