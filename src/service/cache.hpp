// Deterministic result cache: canonical plan identity → cached RunReport.
//
// Generation is seed-deterministic and every analysis in the repo is
// determinism-tested across thread counts, so two plans that describe the
// same work produce bit-identical reports — caching is SOUND, not
// best-effort. The key is therefore the plan's semantic identity, not its
// spelling: cache_key() canonicalizes the plan JSON (sorted keys via
// util::json::dump_canonical, defaults normalized by RunPlan::to_json
// emitting every option) and DROPS the fields that provably cannot change
// the result — description (free text), threads and batch_size (all
// kernels are bit-identical across both, the PR-2/3/4 invariant the tests
// pin). seed, mem_budget and the full spec/analysis list stay in.
//
// Plans that write output files (options.output) are side-effecting and are
// never cached — the server rejects them outright (cacheable() is the
// admission predicate).
//
// The store is an LRU bounded by bytes (key + value + fixed per-entry
// overhead), looked up by the full canonical key string — the 64-bit
// FNV digest is the cheap wire/report identifier, the string comparison is
// what makes collisions harmless.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "api/plan.hpp"
#include "util/json.hpp"

namespace kronotri::service {

/// Canonical identity string of a plan (see file comment for what is
/// dropped). hash64() of this string is the plan_hash on the wire.
[[nodiscard]] std::string cache_key(const api::RunPlan& plan);

/// False when the plan has side effects a cached replay would skip
/// (currently: a non-empty options.output).
[[nodiscard]] bool cacheable(const api::RunPlan& plan);

class ResultCache {
 public:
  /// capacity_bytes == 0 disables the cache (every get misses, put drops).
  explicit ResultCache(std::size_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  /// The cached serialized report for `key`, refreshing its recency.
  [[nodiscard]] std::optional<std::string> get(const std::string& key);

  /// Inserts (or refreshes) key → serialized report, evicting
  /// least-recently-used entries until under capacity. A single value
  /// larger than the whole capacity is not stored.
  void put(const std::string& key, std::string report_json);

  /// Bookkeeping charge per entry on top of its key and value bytes: the
  /// list node and the index slot.
  static constexpr std::size_t kEntryOverhead = 128;

  struct Stats {
    std::size_t entries = 0;
    std::size_t bytes = 0;
    std::size_t capacity_bytes = 0;
    std::uint64_t evictions = 0;
  };
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] util::json::Value stats_json() const;

 private:
  struct Entry {
    std::string key;
    std::string value;
  };
  [[nodiscard]] static std::size_t charge(const Entry& e) {
    return e.key.size() + e.value.size() + kEntryOverhead;
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  ///< front = most recent; owns each key once
  /// Keyed by views into the list nodes' keys (list nodes never move).
  std::unordered_map<std::string_view, std::list<Entry>::iterator> index_;
  std::size_t bytes_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace kronotri::service
