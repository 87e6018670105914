// OracleBackend: the paper's idealized discovery model behind the
// LookupBackend interface.
//
// Reads the ground-truth LookupService and samples each owner
// independently at `lookup_fraction` on the *main* System stream —
// the pre-redesign lookup draw-for-draw, so a run configured with the
// oracle (the default) is bit-identical to one built before the
// redesign. Every pre-existing golden pins this equivalence.
#pragma once

#include "discovery/lookup_backend.h"

namespace p2pex::discovery {

class OracleBackend final : public LookupBackend {
 public:
  /// `truth` and `rng` must outlive the backend (both live in System).
  OracleBackend(const LookupService& truth, double fraction, Rng& rng)
      : truth_(&truth), rng_(&rng), fraction_(fraction) {}

  [[nodiscard]] BackendKind kind() const override {
    return BackendKind::kOracle;
  }

  // The oracle has no state of its own: System maintains the truth
  // index it reads, so upkeep is a no-op (and costs nothing).
  void add_owner(ObjectId, PeerId, SimTime) override {}
  void remove_owner(ObjectId, PeerId, SimTime) override {}
  void remove_peer(PeerId, SimTime) override {}

  [[nodiscard]] LookupResult query(const LookupQuery& q) override;

 private:
  const LookupService* truth_;
  Rng* rng_;
  double fraction_;
};

}  // namespace p2pex::discovery
