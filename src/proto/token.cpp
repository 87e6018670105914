#include "proto/token.h"

namespace p2pex {

bool RingProposal::well_formed() const {
  if (links.size() < 2) return false;
  for (std::size_t i = 0; i < links.size(); ++i) {
    const auto& link = links[i];
    const auto& next = links[(i + 1) % links.size()];
    if (!link.provider.valid() || !link.requester.valid() ||
        !link.object.valid())
      return false;
    if (link.requester != next.provider) return false;
    // Distinct providers by scanning the earlier links: rings are short,
    // and the scan allocates nothing.
    for (std::size_t j = 0; j < i; ++j)
      if (links[j].provider == link.provider) return false;
  }
  return true;
}

std::string to_string(TokenOutcome o) {
  switch (o) {
    case TokenOutcome::kAccepted:       return "accepted";
    case TokenOutcome::kMemberOffline:  return "member-offline";
    case TokenOutcome::kObjectGone:     return "object-gone";
    case TokenOutcome::kDownloadGone:   return "download-gone";
    case TokenOutcome::kBusyInExchange: return "busy-in-exchange";
    case TokenOutcome::kNoUploadSlot:   return "no-upload-slot";
    case TokenOutcome::kNoDownloadSlot: return "no-download-slot";
  }
  return "unknown";
}

}  // namespace p2pex
