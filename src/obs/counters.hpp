// Process-wide counter/histogram registry.
//
// Counters are monotonically increasing u64s ("runner.retries");
// histograms are bucketed u64 samples with an exact count and max
// ("service.latency.total" in ns, "runner.worker_rss_bytes"). Registration
// is mutex-protected and returns a stable reference (the registry never
// erases), so hot paths hold the reference and pay relaxed atomic ops per
// update — no lock, no lookup.
//
// Two consumers:
//   * RunReport.counters / serve stats "counters": snapshot() flattens the
//     registry into a util::json object (a delta vs a start snapshot for
//     per-run reporting, since the registry is process-global);
//   * the flight recorder: TraceRecorder::counter() emits 'C' events that
//     Perfetto renders as counter tracks alongside the spans.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/json.hpp"

namespace kronotri::obs {

class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Lock-free histogram over fixed log-linear buckets: values below 16 get a
/// bucket each, and every octave [2^e, 2^(e+1)) above is split into 16 equal
/// sub-buckets, so a bucket is at most 1/16 of its lower edge wide. A
/// quantile read at its bucket's midpoint is therefore within 1/32 (3.2%)
/// relative error of the sample at that rank; count and max are exact.
/// record() costs one relaxed fetch_add, plus a CAS only when the max rises.
///
/// A registry snapshot flattens it to u64 counters "<name>.count" and
/// "<name>.b<index>" (non-empty buckets) plus a double "<name>.max", so
/// delta() and the runner's fragment merge subtract and sum the counts and
/// keep the max as a level; summarize() reads quantiles back out.
class Histogram {
 public:
  static constexpr unsigned kSubBits = 4;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) * kSub;

  void record(std::uint64_t v) noexcept {
    buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    std::uint64_t cur = max_.load(std::memory_order_relaxed);
    while (v > cur && !max_.compare_exchange_weak(cur, v,
                                                  std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t bucket(std::size_t b) const noexcept {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  void reset() noexcept;

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t v) noexcept;
  /// Smallest and largest value that lands in bucket `b`.
  [[nodiscard]] static std::uint64_t bucket_low(std::size_t b) noexcept;
  [[nodiscard]] static std::uint64_t bucket_high(std::size_t b) noexcept;

  struct Summary {
    std::uint64_t count = 0;
    double p50 = 0, p99 = 0, max = 0;
  };
  /// Reads histogram `name` back out of a flat snapshot or delta.
  /// Quantiles are nearest-rank (the floor(q·(count−1))-th smallest sample)
  /// at bucket midpoints, capped by the max. The max is the recorded max
  /// capped by the highest non-empty bucket, so over a delta whose earlier
  /// part held a larger sample it is still within the bucket error.
  [[nodiscard]] static Summary summarize(const util::json::Value& counters,
                                         std::string_view name);

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> max_{0};
};

class CounterRegistry {
 public:
  static CounterRegistry& instance();

  /// Find-or-create; the returned reference is valid for the process
  /// lifetime (entries are never erased, values only reset).
  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Flat JSON object name → value. Counters dump as unsigned integers,
  /// histograms as described on Histogram. Zero-valued entries are skipped
  /// so an untouched registry snapshots as {} and per-run deltas stay small.
  [[nodiscard]] util::json::Value snapshot() const;

  /// `now - start` for every u64 entry; doubles (histogram maxima) are
  /// levels and report their current value.
  /// This is what lands in RunReport.counters: the registry is
  /// process-global, so a raw snapshot would leak counts across
  /// back-to-back runs (service worker loop, tests).
  [[nodiscard]] static util::json::Value delta(const util::json::Value& start,
                                               const util::json::Value& end);

  /// Zero every value (names and references stay valid). Test hygiene.
  void reset();

 private:
  CounterRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

/// Shorthands: obs::counter("runner.retries").add();
inline Counter& counter(std::string_view name) {
  return CounterRegistry::instance().counter(name);
}
inline Histogram& histogram(std::string_view name) {
  return CounterRegistry::instance().histogram(name);
}

}  // namespace kronotri::obs
