#include "service/cache.hpp"

#include <utility>

namespace kronotri::service {

std::string cache_key(const api::RunPlan& plan) {
  using util::json::Value;
  // RunPlan::to_json emits every option with its default filled in, which
  // is the "normalized defaults" half of canonicalization; dump_canonical
  // is the sorted-keys half. Execution-shape fields are dropped here —
  // results are bit-identical across threads/batch_size by the repo's
  // determinism contract, so plans differing only there must share a slot.
  Value v = plan.to_json();
  Value key = Value::object();
  key.set("spec", *v.find("spec"));
  key.set("analyses", *v.find("analyses"));
  const Value* opts = v.find("options");
  Value kopts = Value::object();
  kopts.set("mem_budget", *opts->find("mem_budget"));
  kopts.set("seed", *opts->find("seed"));
  kopts.set("stream", *opts->find("stream"));
  key.set("options", std::move(kopts));
  return key.dump_canonical_string();
}

bool cacheable(const api::RunPlan& plan) {
  return plan.options.output.empty();
}

std::optional<std::string> ResultCache::get(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->value;
}

void ResultCache::put(const std::string& key, std::string report_json) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = index_.find(key); it != index_.end()) {
    bytes_ -= charge(*it->second);
    it->second->value = std::move(report_json);
    bytes_ += charge(*it->second);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.push_front(Entry{key, std::move(report_json)});
    bytes_ += charge(lru_.front());
    index_.emplace(lru_.front().key, lru_.begin());
  }
  while (bytes_ > capacity_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    bytes_ -= charge(victim);
    index_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
  }
}

ResultCache::Stats ResultCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return Stats{lru_.size(), bytes_, capacity_, evictions_};
}

util::json::Value ResultCache::stats_json() const {
  const Stats s = stats();
  util::json::Value v = util::json::Value::object();
  v.set("entries", static_cast<std::uint64_t>(s.entries));
  v.set("bytes", static_cast<std::uint64_t>(s.bytes));
  v.set("capacity_bytes", static_cast<std::uint64_t>(s.capacity_bytes));
  v.set("evictions", s.evictions);
  return v;
}

}  // namespace kronotri::service
