// Output digest of a finished run, for tests that pin a whole run to one
// value instead of a list of counters.
//
// The digest is FNV-1a-64 over format_summary_line + format_report (with
// the system counters) + the deterministic-domain registry JSON: the
// same string bench/e2e/e2e_harness.cpp hashes per replica. It leaves out
// the config echo and every wall-clock figure, so it depends only on what
// the run computed. To re-record a pin after a deliberate mechanism
// change, copy the "actual" value from the failing assertion.
#pragma once

#include <string>

namespace p2pex {
class System;
}

namespace p2pex::test {

/// 16 lowercase hex digits.
[[nodiscard]] std::string run_digest(const System& system);

}  // namespace p2pex::test
