#include "discovery/oracle_backend.h"

#include "core/lookup.h"
#include "util/rng.h"

namespace p2pex::discovery {

LookupResult OracleBackend::query(const LookupQuery& q) {
  // The paper's lookup: one Bernoulli draw per owner other than the
  // requester, in ascending peer order, on the main stream, and none at
  // all at fraction 1. Changing anything here breaks every pinned
  // golden.
  LookupResult r;
  r.providers = truth_->owners(q.object, q.requester);
  if (fraction_ < 1.0)
    std::erase_if(r.providers,
                  [this](PeerId) { return !rng_->chance(fraction_); });
  // ages stays empty: every oracle answer is authoritative (age 0).
  return r;
}

}  // namespace p2pex::discovery
