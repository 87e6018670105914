// Phase/span tracing with Chrome trace-event JSON export.
//
// A TraceRecorder collects closed spans (name, category, start, dur,
// thread) into per-thread ring buffers. Recording is lock-free after a
// thread's first span (one mutex acquisition to register the buffer),
// so a span costs two clock reads and a ring store on any thread.
// Exports must happen strictly after the traced threads finish (joining
// them establishes the happens-before edge that makes their buffers
// safe to read).
//
// Spans are emitted through the P2PEX_TRACE_SPAN(name, cat) macro,
// which compiles to `static_cast<void>(0)` unless the build defines
// P2PEX_TRACE (CMake option, default ON). Even when compiled in, spans
// are no-ops until a recorder is installed — ScopedSpan reads one
// relaxed atomic and bails.
//
// Everything here is wall-clock territory by design: trace output is
// never part of the deterministic replay contract, and scenario_runner
// only offers it outside --stable mode.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace p2pex::obs {

/// One closed span. `name`/`cat` must be string literals (or otherwise
/// outlive the recorder) — they are stored unowned.
struct TraceEvent {
  const char* name;
  const char* cat;
  std::uint64_t start_ns;  ///< since recorder construction
  std::uint64_t dur_ns;
  std::uint32_t tid;  ///< registration order, 0 = first recording thread
};

/// Aggregate over every span with the same name, merged across threads
/// (counts survive ring overwrite; the ring only bounds raw events).
struct PhaseTotal {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
};

class TraceRecorder {
 public:
  /// `ring_capacity` bounds raw events kept *per thread*; older events
  /// are overwritten, aggregates keep counting.
  explicit TraceRecorder(std::size_t ring_capacity = 1 << 16);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Makes this the process-wide active recorder (replacing any other).
  void install();
  /// Deactivates tracing if this recorder is the active one.
  void uninstall();
  /// The currently installed recorder, or nullptr when tracing is off.
  [[nodiscard]] static TraceRecorder* active();

  /// Nanoseconds since this recorder was constructed.
  [[nodiscard]] std::uint64_t now_ns() const;

  /// Records a closed span on the calling thread. Called by ScopedSpan;
  /// callable directly for spans that RAII scoping can't express.
  void record(const char* name, const char* cat, std::uint64_t start_ns,
              std::uint64_t end_ns);

  /// Chrome trace-event JSON ("X" complete events, ts/dur in
  /// microseconds) — loads in Perfetto / chrome://tracing. Must not
  /// race live recording.
  [[nodiscard]] std::string to_chrome_json() const;

  /// Per-phase aggregates merged across threads, sorted by name.
  /// Must not race live recording.
  [[nodiscard]] std::vector<PhaseTotal> phase_totals() const;

  /// Total spans recorded / spans lost to ring overwrite.
  [[nodiscard]] std::uint64_t events_recorded() const;
  [[nodiscard]] std::uint64_t events_dropped() const;

 private:
  struct PhaseAgg {
    const char* name;
    const char* cat;
    std::uint64_t count;
    std::uint64_t total_ns;
  };
  struct ThreadBuffer {
    std::uint32_t tid = 0;
    std::vector<TraceEvent> ring;  ///< grows to ring_capacity, then wraps
    std::uint64_t total = 0;       ///< spans ever recorded on this thread
    std::vector<PhaseAgg> agg;     ///< linear-scan by span name
  };

  /// The calling thread's buffer, registering it (under mu_) on the
  /// thread's first record() against this recorder.
  ThreadBuffer& local_buffer();

  const std::uint64_t id_;  ///< process-unique, keys the thread-local cache
  const std::size_t ring_capacity_;
  const std::uint64_t epoch_ns_;  ///< steady-clock origin for now_ns()
  mutable std::mutex mu_;         ///< guards buffers_ registration/export
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span: captures the active recorder and start time at
/// construction, records on destruction. Cheap no-op when no recorder
/// is installed.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* cat)
      : rec_(TraceRecorder::active()), name_(name), cat_(cat) {
    if (rec_ != nullptr) start_ns_ = rec_->now_ns();
  }
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->record(name_, cat_, start_ns_, rec_->now_ns());
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceRecorder* rec_;
  const char* name_;
  const char* cat_;
  std::uint64_t start_ns_ = 0;
};

}  // namespace p2pex::obs

#ifdef P2PEX_TRACE
#define P2PEX_TRACE_CONCAT_INNER(a, b) a##b
#define P2PEX_TRACE_CONCAT(a, b) P2PEX_TRACE_CONCAT_INNER(a, b)
/// Traces the enclosing scope as a span. `name`/`cat` must be string
/// literals. Compiled out entirely when P2PEX_TRACE is off.
#define P2PEX_TRACE_SPAN(name, cat)                                     \
  ::p2pex::obs::ScopedSpan P2PEX_TRACE_CONCAT(p2pex_trace_span_,        \
                                              __LINE__) {               \
    name, cat                                                           \
  }
#else
#define P2PEX_TRACE_SPAN(name, cat) static_cast<void>(0)
#endif
