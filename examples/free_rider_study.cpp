// Free-rider study: what does a user gain by sharing?
//
// Runs the calibrated 200-peer system under the four policies the paper
// compares and prints the incentive table — the expected download time a
// user faces depending on whether it shares, under each mechanism.
#include <cstdio>

#include "core/experiment.h"

using namespace p2pex;

int main() {
  SimConfig base = SimConfig::calibrated_defaults();
  base.sim_duration = 100000.0;  // keep the example snappy
  base.seed = 99;

  std::printf("free-rider study — %zu peers, %.0f%% free-riders\n\n",
              base.num_peers, 100.0 * base.nonsharing_fraction);
  std::printf("%-14s %16s %18s %8s %7s\n", "policy", "sharing (min)",
              "free-riding (min)", "ratio", "exch%");

  for (const SimConfig& variant : paper_policy_variants(base)) {
    const RunResult r = run_experiment(scaled(variant));
    std::printf("%-14s %16.1f %18.1f %7.2fx %6.1f%%\n", r.label.c_str(),
                r.mean_dl_minutes_sharing, r.mean_dl_minutes_nonsharing,
                r.dl_time_ratio, 100.0 * r.exchange_fraction);
  }

  std::printf(
      "\nReading the table: under \"no exchange\" both classes fare the\n"
      "same, so rational users free-ride. With exchange priority, sharing\n"
      "buys a multiple of the free-riders' download speed — the paper's\n"
      "incentive argument in one table.\n");
  return 0;
}
