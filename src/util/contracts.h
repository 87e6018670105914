// Tiered invariant contracts for p2pex.
//
// The repo's determinism and capacity guarantees are enforced at three
// cost tiers, so callers can state every invariant they know without
// pricing Release hot paths:
//
//   P2PEX_ASSERT / P2PEX_ASSERT_MSG (util/assert.h)
//     Always on, every build type. For cheap checks at API boundaries
//     and for conditions whose violation would silently corrupt results
//     (id-sentinel collisions, span bookkeeping). Throws AssertionError.
//
//   P2PEX_INVARIANT / P2PEX_INVARIANT_MSG
//     Structural checks on hot paths. Compiled out in Release (NDEBUG)
//     unless an audit build re-enables them; in disabled builds the
//     condition is still compiled (never evaluated), so it cannot rot.
//
//   P2PEX_EXPENSIVE_INVARIANT / P2PEX_EXPENSIVE_INVARIANT_MSG
//     O(n)-or-worse cross-checks (rescans, shadow recomputation). Only
//     enabled under the audit options that already gate the runtime
//     cross-check machinery (P2PEX_SNAPSHOT_AUDIT / P2PEX_LOOKUP_AUDIT,
//     or P2PEX_EXPENSIVE_CHECKS explicitly).
//
// All tiers throw AssertionError rather than abort() for the same reason
// util/assert.h does: property tests assert *on* the assertions, and an
// embedded simulation should fail loudly but recoverably.
#pragma once

#include <cstdint>
#include <type_traits>
#include <utility>

#include "util/assert.h"

#if !defined(NDEBUG) || defined(P2PEX_SNAPSHOT_AUDIT) || \
    defined(P2PEX_LOOKUP_AUDIT) || defined(P2PEX_EXPENSIVE_CHECKS)
#define P2PEX_INVARIANTS_ENABLED 1
#endif

#if defined(P2PEX_SNAPSHOT_AUDIT) || defined(P2PEX_LOOKUP_AUDIT) || \
    defined(P2PEX_EXPENSIVE_CHECKS)
#define P2PEX_EXPENSIVE_INVARIANTS_ENABLED 1
#endif

/// Compiles `expr` without evaluating it. Keeps names referenced by a
/// disabled invariant alive for -Werror=unused-* and lets the condition
/// keep type-checking in every build.
#define P2PEX_DETAIL_UNUSED_CHECK(expr) \
  do {                                  \
    if (false) static_cast<void>(expr); \
  } while (0)

#ifdef P2PEX_INVARIANTS_ENABLED
#define P2PEX_INVARIANT(expr) P2PEX_ASSERT(expr)
#define P2PEX_INVARIANT_MSG(expr, msg) P2PEX_ASSERT_MSG(expr, msg)
#else
#define P2PEX_INVARIANT(expr) P2PEX_DETAIL_UNUSED_CHECK(expr)
#define P2PEX_INVARIANT_MSG(expr, msg) \
  do {                                 \
    P2PEX_DETAIL_UNUSED_CHECK(expr);   \
    P2PEX_DETAIL_UNUSED_CHECK(msg);    \
  } while (0)
#endif

#ifdef P2PEX_EXPENSIVE_INVARIANTS_ENABLED
#define P2PEX_EXPENSIVE_INVARIANT(expr) P2PEX_ASSERT(expr)
#define P2PEX_EXPENSIVE_INVARIANT_MSG(expr, msg) P2PEX_ASSERT_MSG(expr, msg)
#else
#define P2PEX_EXPENSIVE_INVARIANT(expr) P2PEX_DETAIL_UNUSED_CHECK(expr)
#define P2PEX_EXPENSIVE_INVARIANT_MSG(expr, msg) \
  do {                                           \
    P2PEX_DETAIL_UNUSED_CHECK(expr);             \
    P2PEX_DETAIL_UNUSED_CHECK(msg);              \
  } while (0)
#endif

namespace p2pex {

/// Checked size_t -> uint32_t narrowing for arena offsets, row counts and
/// id values (the PR 6 overflow family; lint rule D4 bans the raw cast).
/// The range check rides the P2PEX_INVARIANT tier: verified in Debug and
/// audit builds, identical codegen to the bare static_cast in Release.
/// True table-growth boundaries (where 2^32 is actually reachable) must
/// keep an always-on guard instead: StrongId::from_index or an explicit
/// P2PEX_ASSERT before the columns grow.
template <class T>
[[nodiscard]] constexpr std::uint32_t narrow_u32(T v) {
  static_assert(std::is_integral_v<T>,
                "narrow_u32 takes an integral value (cast enums yourself)");
  P2PEX_INVARIANT_MSG(std::in_range<std::uint32_t>(v),
                      "narrow_u32: value outside uint32_t range");
  return static_cast<std::uint32_t>(v);  // p2pex-lint: checked-narrowing
}

}  // namespace p2pex
