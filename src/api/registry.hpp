// GeneratorRegistry — the one place graphs come from.
//
// Every generator family the library ships (the deterministic validation
// instruments of gen/classic, the random models of gen/random + gen/rmat +
// gen/one_triangle_pa, and `kron:`-composed products over arbitrary factor
// specs) is registered under a string key, so the CLI, examples, benches and
// any future scenario construct graphs from a GraphSpec instead of
// hand-wiring free-function calls. New workloads are one add() away.
#pragma once

#include <functional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "api/spec.hpp"
#include "core/graph.hpp"

namespace kronotri::api {

/// Thread-safety: builtin()'s lazy construction is a C++11 magic static
/// (safe to race on first lookup from service worker threads), and every
/// member takes a reader/writer lock — concurrent contains()/build() run
/// shared, add() exclusive — so applications may keep registering scenarios
/// while a server is already executing plans.
class GeneratorRegistry {
 public:
  using Factory = std::function<Graph(const GraphSpec&)>;

  /// Registers (or replaces) a family. `help` is the one-line parameter
  /// summary printed by the CLI's family listing.
  void add(std::string family, std::string help, Factory factory);

  [[nodiscard]] bool contains(const std::string& family) const;

  /// Builds the graph a spec describes. Composite "kron" specs build every
  /// factor recursively and materialize their product (kron::kron_graph).
  /// The universal modifier params are applied afterwards, in order:
  /// prune=1 (§III.D(a) reduction to Δ ≤ 1, with optional seed param as the
  /// tie-break seed), then loops=1 (A + I). Throws std::invalid_argument on
  /// unknown families.
  [[nodiscard]] Graph build(const GraphSpec& spec) const;
  [[nodiscard]] Graph build(std::string_view spec_text) const;

  /// Builds the factor list of a spec without forming the product: a "kron"
  /// spec yields one graph per factor (outer modifiers are NOT applied — a
  /// kron spec's own loops/prune refer to the product), anything else yields
  /// the single built graph. This is what streaming pipelines consume.
  [[nodiscard]] std::vector<Graph> build_factors(const GraphSpec& spec) const;

  /// (family, help) pairs in sorted order, for --list / usage output.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> families()
      const;

  /// The process-wide registry, pre-populated with every built-in family.
  /// Mutable so applications can register their own scenarios at startup.
  static GeneratorRegistry& builtin();

 private:
  /// build()/build_factors() recurse into each other for kron specs; the
  /// unlocked cores keep that recursion under the ONE shared lock taken at
  /// the public entry (recursively re-locking a shared_mutex is UB).
  [[nodiscard]] Graph build_unlocked(const GraphSpec& spec) const;
  [[nodiscard]] std::vector<Graph> build_factors_unlocked(
      const GraphSpec& spec) const;

  mutable std::shared_mutex mutex_;
  std::vector<std::pair<std::string, std::string>> help_;  // insertion order
  std::unordered_map<std::string, Factory> factories_;
};

}  // namespace kronotri::api
