// Deterministic metrics registry: named counters, gauges and
// log-bucketed histograms with machine-readable JSON export.
//
// Every metric is registered in exactly one of two domains:
//
//  * kDeterministic — replay-invariant values: bit-identical for the
//    same seed on every machine and build type. The pinned output
//    digests of the test suite hash the deterministic JSON, so nothing
//    wall-clock-derived may ever land here.
//  * kTiming — wall-clock figures. Excluded from `--stable` exports;
//    covered by the repo's existing `wall-clock-ok` lint convention.
//    The engine publishes none (its phase costs are trace spans).
//
// References returned by counter()/gauge()/histogram() are stable for
// the registry's lifetime (std::map nodes never move), so hot paths
// register once and bump through a plain pointer. The registry itself
// is not thread-safe: the engine records on the simulation thread only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace p2pex::obs {

enum class Domain : std::uint8_t {
  kDeterministic,  ///< replay-invariant; hashed by the pinned digests
  kTiming,         ///< wall clock; waived
};

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t d = 1) { value_ += d; }
  void set(std::uint64_t v) { value_ = v; }
  [[nodiscard]] std::uint64_t value() const { return value_; }
  [[nodiscard]] Domain domain() const { return domain_; }

 private:
  friend class MetricsRegistry;
  explicit Counter(Domain d) : domain_(d) {}
  Domain domain_;
  std::uint64_t value_ = 0;
};

/// Last-write-wins floating-point value.
class Gauge {
 public:
  void set(double v) { value_ = v; }
  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] Domain domain() const { return domain_; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(Domain d) : domain_(d) {}
  Domain domain_;
  double value_ = 0.0;
};

/// Deterministic log2-bucketed histogram over unsigned values: bucket 0
/// holds exactly {0}; bucket i >= 1 holds [2^(i-1), 2^i). Bucketing by
/// bit width keeps recording allocation-free and replay-exact — no
/// floating-point boundaries, no data-dependent resizing.
class Histogram {
 public:
  /// 0, plus one bucket per possible bit width of a uint64.
  static constexpr std::size_t kBuckets = 65;

  void record(std::uint64_t v);

  /// Bucket index a value lands in (0 for 0, else bit_width(v)).
  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v);
  /// Inclusive bounds of bucket `i`.
  [[nodiscard]] static std::uint64_t bucket_lo(std::size_t i);
  [[nodiscard]] static std::uint64_t bucket_hi(std::size_t i);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t sum() const { return sum_; }
  /// Min/max of recorded values; 0 when empty.
  [[nodiscard]] std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] std::uint64_t max() const { return max_; }
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const {
    return buckets_[i];
  }
  [[nodiscard]] Domain domain() const { return domain_; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(Domain d) : domain_(d) {}
  Domain domain_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~0ULL;
  std::uint64_t max_ = 0;
  std::uint64_t buckets_[kBuckets] = {};
};

/// Named metric registry with domain-partitioned JSON snapshot export.
class MetricsRegistry {
 public:
  /// Returns the named metric, creating it in `domain` on first use.
  /// Re-registering with a different domain is a bug (throws
  /// AssertionError): a metric's domain is part of its contract.
  Counter& counter(const std::string& name, Domain domain);
  Gauge& gauge(const std::string& name, Domain domain);
  Histogram& histogram(const std::string& name, Domain domain);

  /// Lookup without registration; nullptr when absent.
  [[nodiscard]] const Counter* find_counter(const std::string& name) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name) const;
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;

  [[nodiscard]] std::size_t size() const {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

  /// JSON snapshot: `{"schema": ..., "deterministic": {...}}`, plus a
  /// `"timing"` object when `include_timing` is set. Metrics are
  /// emitted sorted by name with shortest-round-trip number formatting,
  /// so for a fixed set of deterministic values the deterministic
  /// portion is byte-identical — the property the replay CI jobs diff.
  [[nodiscard]] std::string to_json(bool include_timing) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace p2pex::obs
