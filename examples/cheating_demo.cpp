// Cheating and defenses walkthrough (paper Section III-B).
//
// 1. A junk-server against the synchronous block-exchange window.
// 2. The middleman attack against the mediated encrypted exchange.
#include <cstdio>

#include "security/block_exchange.h"
#include "security/mediator.h"
#include "util/rng.h"

using namespace p2pex;

int main() {
  std::printf("=== 1. junk-server vs the synchronous window protocol ===\n\n");
  BlockExchangeConfig bc;
  bc.block_size = 256 * 1024;
  bc.rtt = 0.2;
  bc.initial_window = 1;
  bc.clean_rounds_before_growth = 2;
  bc.max_window = 16;

  BlockExchangeSession honest(bc);
  for (int round = 0; round < 6; ++round) honest.step(false, false);
  std::printf("honest session after 6 rounds: window=%d, each side got "
              "%.1f MB, elapsed %.0f s\n",
              honest.window(),
              static_cast<double>(honest.total_valid_to_a()) / 1e6,
              honest.elapsed());

  BlockExchangeSession cheated(bc);
  const auto r = cheated.step(false, /*b_sends_junk=*/true);
  std::printf("cheater session: aborted after round 1; victim wasted "
              "%.2f MB, cheater stole %.2f MB (= one window)\n",
              static_cast<double>(r.junk_to_a) / 1e6,
              static_cast<double>(r.valid_to_b) / 1e6);
  std::printf("rate ceiling at window 1: %.1f kbit/s (B_block/RTT, capped "
              "by the %.1f kbit/s slot)\n\n",
              BlockExchangeSession::rate_ceiling(bc, 1) * 8 / 1000,
              bc.slot_capacity * 8 / 1000);

  std::printf("=== 2. middleman vs the mediated exchange ===\n\n");
  Mediator mediator;
  Rng rng(7);
  const PeerId a{1}, b{2}, mm{3};
  const auto key_a = mediator.issue_key(a);
  const auto key_b = mediator.issue_key(b);

  auto blocks = [](std::uint32_t key, PeerId origin, PeerId addressee) {
    std::vector<EncryptedBlock> out;
    for (std::uint32_t i = 0; i < 8; ++i)
      out.push_back(EncryptedBlock{key, origin, addressee, ObjectId{1}, i,
                                   false});
    return out;
  };

  const auto direct = mediator.settle(a, b, blocks(key_b, b, a),
                                      blocks(key_a, a, b), 4, rng);
  std::printf("direct A<->B exchange: %s — A receives key %u, B receives "
              "key %u\n",
              direct.ok ? "settled" : "rejected",
              direct.ok ? direct.keys_to_a[0] : 0,
              direct.ok ? direct.keys_to_b[0] : 0);

  // M shuttles the encrypted blocks between A and B, claiming to each
  // that it owns what the other wants.
  const auto am = mediator.settle(a, mm, blocks(key_b, b, mm),
                                  blocks(key_a, a, mm), 4, rng);
  std::printf("middleman's A<->M exchange: %s (%s)\n",
              am.ok ? "settled (BAD)" : "rejected", am.failure.c_str());
  const auto bm = mediator.settle(b, mm, blocks(key_a, a, mm),
                                  blocks(key_b, b, mm), 4, rng);
  std::printf("middleman's B<->M exchange: %s (%s)\n",
              bm.ok ? "settled (BAD)" : "rejected", bm.failure.c_str());
  std::printf("\nThe middleman forwarded ciphertext it can never decrypt: "
              "no key release,\nno benefit — the paper's defense holds.\n");
  return 0;
}
