// Core runtime entities: sessions, downloads, rings, peers.
//
// All entities live in dense id-indexed tables owned by the System.
// Finished rows are recycled through per-table freelists, so a table's
// size tracks the *live* entity high-water mark instead of the
// cumulative allocation count (a long churn run used to leak one row per
// departed download/session/ring forever). A stale id is still
// detectable while its row is unreused (the `active` flag is false), and
// the System removes every reference to an entity before freeing its row.
// Events are the exception: they stay queued, and carry the row's seq (or,
// for a completion, their own) so that one arriving after its row moved on
// is dropped unseen.
//
// Per-download provider state (the old discovered/registered
// unordered_sets) lives out-of-line in the System's ProviderArena,
// addressed by the {disc_start, disc_len} span below; see
// provider_arena.h for the layout rationale.
#pragma once

#include <cstdint>
#include <vector>

#include "baselines/credit.h"
#include "baselines/participation.h"
#include "catalog/interest.h"
#include "catalog/storage.h"
#include "metrics/records.h"
#include "proto/irq.h"
#include "util/types.h"

namespace p2pex {

/// One provider->requester transfer stream at the fixed slot rate.
///
/// A session consumes one upload slot at the provider and one download
/// slot at the requester for its whole life. Bytes accrue linearly at
/// `rate`; `bytes` is brought up to date (and `last_update` advanced)
/// whenever the surrounding download's session set changes.
struct Session {
  SessionId id;
  PeerId provider;
  PeerId requester;
  ObjectId object;
  DownloadId download;
  RingId ring;       ///< invalid for non-exchange sessions
  SessionType type;  ///< ring size, or 0 for non-exchange
  /// Monotonic creation sequence. Ids are recycled, so index order no
  /// longer equals start order; finalization ends censored sessions in
  /// `seq` order to keep the record stream (and its floating-point
  /// aggregation order) bit-identical to an id-per-row run.
  std::uint64_t seq = 0;
  SimTime request_time = 0.0;  ///< when the object was first requested
  SimTime start_time = 0.0;
  SimTime last_update = 0.0;
  double bytes = 0.0;  ///< fractional: the fluid model accrues rate*dt
  Rate rate = 0.0;
  bool active = true;

  [[nodiscard]] bool is_exchange() const { return ring.valid(); }
};

/// One in-progress object download at a peer. Partial transfers are
/// supported: multiple concurrent sessions (from different providers)
/// feed the same download, each contributing distinct parts.
///
/// The owners discovered at lookup time — and, per owner, whether a
/// request is registered there and which watcher-list slot the download
/// occupies — live in the System's ProviderArena as the span
/// [disc_start, disc_start + disc_len). Ring closure may use any
/// discovered owner (paper: "it can use the original provider list to
/// compute a cycle containing a peer P_j even if it did not originally
/// transmit a request to P_j"); registration is a flag column over the
/// same span because a request only ever targets discovered owners.
struct Download {
  DownloadId id;
  PeerId peer;
  ObjectId object;
  Bytes size = 0;
  double received = 0.0;       ///< accrued up to last_update (fractional)
  SimTime last_update = 0.0;
  SimTime issue_time = 0.0;
  std::uint32_t disc_start = 0;  ///< ProviderArena span of discovered owners
  std::uint32_t disc_len = 0;
  std::uint32_t reg_count = 0;   ///< set registered flags within the span
  /// Monotonic creation sequence (rows are recycled; retry events carry
  /// this to detect a reused row — same contract as Session::seq).
  std::uint64_t seq = 0;
  /// Injected transfer failures this download has absorbed (fault
  /// model); drives the retry backoff and the attempt cap.
  std::uint32_t fault_attempts = 0;
  /// Retry holdoff deadline after a transfer fault: while now < this,
  /// the download's requests are skipped by the schedulers. 0 = none.
  SimTime retry_until = 0.0;
  std::vector<SessionId> sessions;  ///< currently active sessions
  /// Seq of the pending completion event; 0 = none. A completion event
  /// whose seq differs was superseded and is dropped on arrival.
  std::uint64_t completion = 0;
  bool watched = false;  ///< span enrolled in the watcher reverse index
  bool active = true;

  [[nodiscard]] double remaining() const {
    return static_cast<double>(size) - received;
  }
};

/// One live n-way exchange ring: `sessions[i]` serves member i+1 from
/// member i (indices mod n). Collapses as a unit when any member session
/// terminates.
struct Ring {
  RingId id;
  std::vector<SessionId> sessions;
  bool active = true;

  [[nodiscard]] std::size_t size() const { return sessions.size(); }
};

/// One participant node.
struct Peer {
  PeerId id;
  bool shares = true;  ///< false = freeloader: never serves anyone
  bool online = true;
  bool lies_about_participation = false;  ///< participation baseline only
  bool retry_pending = false;  ///< a request-issue retry is scheduled

  int upload_slots = 8;
  int download_slots = 80;
  int upload_in_use = 0;
  int download_in_use = 0;

  Storage storage;
  InterestProfile interests;
  IncomingRequestQueue irq;

  /// Active downloads in issue order (at most SimConfig::max_pending).
  /// Object lookup is a linear scan via System::find_pending — the list
  /// is tiny and bounded, so the old by-object hash map was pure
  /// overhead (56+ heap bytes per peer at million-peer scale).
  std::vector<DownloadId> pending_list;
  /// Upload sessions this peer is currently serving, in start order
  /// (used to pick preemption victims: newest non-exchange first).
  std::vector<SessionId> uploads;

  CreditLedger credit;                ///< kCredit baseline state
  ParticipationLevel participation;   ///< kParticipation baseline state

  Peer(PeerId id_, Storage storage_, InterestProfile interests_,
       std::size_t irq_capacity, bool lies)
      : id(id_),
        storage(std::move(storage_)),
        interests(std::move(interests_)),
        irq(irq_capacity),
        participation(lies) {
    lies_about_participation = lies;
  }

  [[nodiscard]] int free_upload_slots() const {
    return upload_slots - upload_in_use;
  }
  [[nodiscard]] int free_download_slots() const {
    return download_slots - download_in_use;
  }
};

}  // namespace p2pex
