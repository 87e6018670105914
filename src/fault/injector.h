// Deterministic fault injection (ROADMAP: robustness).
//
// The FaultInjector owns every random draw the fault model makes —
// session-failure lifetimes, retry-holdoff jitter, lookup-result drops —
// on a stream forked off the run seed with its own salt, so enabling or
// disabling faults never perturbs the System's main stream (a run with
// faults off is bit-identical to one built before the fault model
// existed), and fault schedules replay bit-exact.
//
// It also carries the runtime-overridable fault state: scenario `faults`
// windows raise the session-fault and lookup-loss rates for their
// duration (restoring the config baselines on close), and `partition`
// windows install a peer-id-space split that the engine consults through
// reachable().
#pragma once

#include <cstdint>

#include "fault/fault.h"
#include "util/rng.h"
#include "util/types.h"

namespace p2pex::fault {

/// Fault-model state + deterministic draw source for one System.
class FaultInjector {
 public:
  /// `seed` is the run seed; the injector salts it into its own stream.
  FaultInjector(const FaultConfig& config, std::uint64_t seed);

  [[nodiscard]] const FaultConfig& config() const { return cfg_; }

  // --- runtime-overridable fault processes (scenario windows) ---
  [[nodiscard]] double session_fault_rate() const {
    return session_fault_rate_;
  }
  [[nodiscard]] double lookup_loss() const { return lookup_loss_; }
  void set_session_fault_rate(double rate) { session_fault_rate_ = rate; }
  void set_lookup_loss(double loss) { lookup_loss_ = loss; }
  /// Restores both processes to the config baselines (window close).
  void reset_rates() {
    session_fault_rate_ = cfg_.session_fault_rate;
    lookup_loss_ = cfg_.lookup_loss;
  }

  // --- partition state ---
  /// split = 0 means no partition; otherwise peers with id < split and
  /// peers with id >= split cannot reach each other.
  [[nodiscard]] bool partitioned() const { return split_ != 0; }
  [[nodiscard]] std::uint32_t partition_split() const { return split_; }
  void set_partition(std::uint32_t split) { split_ = split; }
  /// The side of the partition `p` is on: 0, or 1 for ids >= split.
  [[nodiscard]] std::uint32_t component(PeerId p) const {
    return split_ != 0 && p.value >= split_ ? 1u : 0u;
  }
  /// Whether `a` and `b` can currently communicate: component(a) ==
  /// component(b), spelled out for the engine's hot paths.
  [[nodiscard]] bool reachable(PeerId a, PeerId b) const {
    return split_ == 0 || (a.value < split_) == (b.value < split_);
  }

  // --- deterministic draws (injector-owned stream) ---
  /// Exponential session lifetime at the current fault rate (which must
  /// be positive: callers gate on the rate so a disabled fault model
  /// consumes no draws).
  [[nodiscard]] SimTime draw_session_lifetime();
  /// Holdoff before retry `attempt` (1-based):
  /// base_timeout * backoff^(attempt-1) * uniform[1-jitter, 1+jitter].
  [[nodiscard]] SimTime draw_retry_holdoff(std::size_t attempt);
  /// Whether one discovered owner is dropped from a lookup result
  /// (callers gate on lookup_loss() > 0: no draws when lossless).
  [[nodiscard]] bool drop_lookup_entry();

 private:
  FaultConfig cfg_;
  Rng rng_;
  double session_fault_rate_;
  double lookup_loss_;
  std::uint32_t split_ = 0;  ///< 0 = no partition
};

}  // namespace p2pex::fault
