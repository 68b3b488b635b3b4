#include "obs/counters.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace kronotri::obs {

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

std::size_t Histogram::bucket_of(std::uint64_t v) noexcept {
  if (v < kSub) return static_cast<std::size_t>(v);
  const unsigned e = static_cast<unsigned>(std::bit_width(v)) - 1;
  return (e - kSubBits + 1) * kSub + ((v >> (e - kSubBits)) & (kSub - 1));
}

std::uint64_t Histogram::bucket_low(std::size_t b) noexcept {
  if (b < kSub) return b;
  const std::size_t e = b / kSub + kSubBits - 1;
  return (kSub + b % kSub) << (e - kSubBits);
}

std::uint64_t Histogram::bucket_high(std::size_t b) noexcept {
  return b + 1 < kBuckets ? bucket_low(b + 1) - 1 : ~std::uint64_t{0};
}

Histogram::Summary Histogram::summarize(const util::json::Value& counters,
                                        std::string_view name) {
  Summary s;
  const std::string prefix = std::string(name) + ".";
  std::vector<std::pair<std::size_t, std::uint64_t>> buckets;
  double max = 0;
  for (const auto& [key, v] : counters.members()) {
    if (!key.starts_with(prefix)) continue;
    const std::string_view rest = std::string_view(key).substr(prefix.size());
    std::size_t b = kBuckets;
    if (rest == "max") {
      max = v.as_double();
    } else if (rest.starts_with('b')) {
      std::from_chars(rest.data() + 1, rest.data() + rest.size(), b);
    }
    if (b < kBuckets) {
      buckets.emplace_back(b, v.as_uint());
      s.count += v.as_uint();
    }
  }
  if (buckets.empty()) return s;
  std::sort(buckets.begin(), buckets.end());
  s.max = std::min(max, static_cast<double>(bucket_high(buckets.back().first)));
  const auto at_rank = [&](double q) {
    const auto rank =
        static_cast<std::uint64_t>(q * static_cast<double>(s.count - 1));
    std::uint64_t seen = 0;
    std::size_t b = 0;
    for (const auto& [bucket, c] : buckets) {
      b = bucket;
      seen += c;
      if (seen > rank) break;
    }
    const double mid = (static_cast<double>(bucket_low(b)) +
                        static_cast<double>(bucket_high(b))) / 2;
    return std::min(mid, s.max);
  };
  s.p50 = at_rank(0.50);
  s.p99 = at_rank(0.99);
  return s;
}

// std::map keeps node addresses stable across inserts — the contract that
// lets hot paths cache Counter&/Histogram& across registry growth.
struct CounterRegistry::Impl {
  mutable std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

CounterRegistry& CounterRegistry::instance() {
  static CounterRegistry reg;
  return reg;
}

CounterRegistry::Impl& CounterRegistry::impl() const {
  static Impl impl;
  return impl;
}

namespace {

template <typename T>
T& find_or_create(std::mutex& mu,
                  std::map<std::string, std::unique_ptr<T>, std::less<>>& map,
                  std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu);
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), std::make_unique<T>()).first;
  }
  return *it->second;
}

}  // namespace

Counter& CounterRegistry::counter(std::string_view name) {
  return find_or_create(impl().mu, impl().counters, name);
}

Histogram& CounterRegistry::histogram(std::string_view name) {
  return find_or_create(impl().mu, impl().histograms, name);
}

util::json::Value CounterRegistry::snapshot() const {
  Impl& i = impl();
  const std::lock_guard<std::mutex> lock(i.mu);
  util::json::Value out = util::json::Value::object();
  for (const auto& [name, c] : i.counters) {
    const std::uint64_t v = c->value();
    if (v != 0) out.set(name, v);
  }
  // Histogram keys are unique by construction: append skips set()'s scan.
  for (const auto& [name, h] : i.histograms) {
    const std::string bucket_key = name + ".b";
    std::uint64_t n = 0;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      if (const std::uint64_t c = h->bucket(b); c != 0) {
        out.append(bucket_key + std::to_string(b), c);
        n += c;
      }
    }
    if (n == 0) continue;
    out.append(name + ".count", n);
    if (h->max() != 0) out.append(name + ".max", static_cast<double>(h->max()));
  }
  return out;
}

util::json::Value CounterRegistry::delta(const util::json::Value& start,
                                         const util::json::Value& end) {
  util::json::Value out = util::json::Value::object();
  if (!end.is_object()) return out;
  // Indexed once: histogram buckets make snapshots hundreds of entries
  // long, and a find() per entry would make every per-run delta quadratic.
  std::unordered_map<std::string_view, std::uint64_t> base_of;
  if (start.is_object()) {
    for (const auto& [name, v] : start.members()) {
      if (v.kind() == util::json::Value::Kind::kUInt) {
        base_of.emplace(name, v.as_uint());
      }
    }
  }
  // A snapshot's keys are unique, so append skips set()'s scan too.
  for (const auto& [name, v] : end.members()) {
    if (v.kind() == util::json::Value::Kind::kUInt) {
      const auto it = base_of.find(name);
      const std::uint64_t base = it == base_of.end() ? 0 : it->second;
      const std::uint64_t now = v.as_uint();
      if (now > base) out.append(name, now - base);
    } else {
      // Histogram maxima are levels, not accumulators: report the end value.
      out.append(name, v);
    }
  }
  return out;
}

void CounterRegistry::reset() {
  Impl& i = impl();
  const std::lock_guard<std::mutex> lock(i.mu);
  for (auto& [name, c] : i.counters) c->reset();
  for (auto& [name, h] : i.histograms) h->reset();
}

}  // namespace kronotri::obs
