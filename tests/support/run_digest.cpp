#include "support/run_digest.h"

#include <cstdint>
#include <cstdio>

#include "core/system.h"
#include "metrics/report.h"

namespace p2pex::test {

std::string run_digest(const System& system) {
  const std::string output =
      format_summary_line(system.metrics()) + "\n" +
      format_report(system.metrics(), system.counters()) +
      system.metrics_registry().to_json(/*include_timing=*/false);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : output) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace p2pex::test
