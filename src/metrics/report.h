// Human-readable run reports: renders a MetricsCollector (+ optional
// system counters) into the summary blocks the examples and ad-hoc
// analyses print, without every caller reinventing the formatting.
#pragma once

#include <string>

#include "metrics/collector.h"

namespace p2pex {

struct SystemCounters;  // core/system.h; reports accept it opaquely below

/// Options controlling which report sections are rendered.
struct ReportOptions {
  bool download_times = true;
  bool session_mix = true;
  bool per_type_volume = true;
  bool per_type_waiting = true;
  /// Snapshot-maintenance section (rebuilds/patches/dirty rows); only
  /// rendered by the counters overload below, which has the data.
  bool snapshot_maintenance = true;
  std::size_t cdf_points = 0;  ///< 0 = no CDF tables, else points per type
};

/// Renders the standard report for one run.
std::string format_report(const MetricsCollector& metrics,
                          const ReportOptions& options = {});

/// Standard report plus the counter-derived sections (currently
/// snapshot maintenance). Deterministic, like every SystemCounters
/// field.
std::string format_report(const MetricsCollector& metrics,
                          const SystemCounters& counters,
                          const ReportOptions& options = {});

/// One-line run summary ("sharing 112.9 min, non-sharing 237.2 min,
/// ratio 2.10, exchange 64.2%, 5935 downloads").
std::string format_summary_line(const MetricsCollector& metrics);

}  // namespace p2pex
