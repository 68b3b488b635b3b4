// AnalysisRegistry — the one place analyses come from.
//
// The paper's workflow is generate → measure diverse triangle statistics →
// validate against the closed forms. GeneratorRegistry covers the first
// step; this module covers the rest: every analysis the library ships
// (census, degree, truss, components, clustering, egonet, labeled-census,
// validate) is registered under a string key as a factory from a parameter
// map to an Analysis object, so run plans, the CLI and any future scenario
// request analyses declaratively instead of hand-wiring kernel calls.
//
// An Analysis can consume the job in two ways, and the run engine picks
// the cheapest combination:
//   * sink-backed — make_sink() returns one EdgeSink per partition, and
//     the analysis rides THE single stream_parallel pass (composed with
//     every other sink-backed analysis through one TeeSink per partition);
//   * factor/graph-backed — execute() reads the PlanContext: the factor
//     list, the lazily built oracle/view, or the materialized graph
//     (needs_graph() tells the engine to materialize — during the stream
//     pass via a CooCollectorSink when one runs anyway, by building the
//     spec otherwise).
// Either way execute() produces an AnalysisReport: a pass/fail verdict,
// a human-readable rendering, and a structured JSON payload.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "api/pipeline.hpp"
#include "api/sink.hpp"
#include "api/spec.hpp"
#include "core/graph.hpp"
#include "kron/oracle.hpp"
#include "kron/view.hpp"
#include "triangle/census.hpp"
#include "util/json.hpp"

namespace kronotri::api {

/// Execution options shared by the whole run (plan "options" object).
struct RunOptions {
  /// stream_parallel partitions/workers (0 = hardware concurrency).
  unsigned threads = 1;
  std::size_t batch_size = kDefaultBatchSize;
  /// Default accumulator budget for budgeted analyses (validate).
  std::size_t mem_budget_bytes = 64ull << 20;
  /// Default generator seed, injected into the root spec iff it names a
  /// non-kron family without its own seed param.
  std::uint64_t seed = 0;
  /// When non-empty, the generated edge list is written here (text or
  /// binary); a multi-partition stream writes output.partN per partition.
  std::string output;
  std::string format = "text";  ///< "text" | "binary" (stream output only)
  /// Force the generate→sink stream pass even with no sink-backed
  /// analyses (the `generate --stream` contract: never materialize C).
  bool stream = false;
  /// Multi-process execution (runner::execute): number of forked worker
  /// processes the plan is decomposed over; <= 1 runs in-process.
  unsigned workers = 1;
  /// Per-attempt wall-clock timeout for one worker (seconds; 0 = none).
  /// A worker past its deadline is SIGKILLed and its unit re-dispatched.
  double shard_timeout_s = 0;
  /// Re-dispatch budget per work unit beyond the first attempt; exhausting
  /// it fails the whole run with a structured error report.
  unsigned max_retries = 2;
  /// Fault-injection spec (util::fault grammar) forwarded to workers;
  /// empty defers to the KRONOTRI_FAULT environment variable.
  std::string fault;
};

/// Throws std::invalid_argument naming the offending key and listing the
/// accepted ones — the one "actionable unknown key" message shared by
/// analysis params and plan-document keys.
[[noreturn]] void throw_unknown_key(const std::string& context,
                                    const std::string& key,
                                    std::initializer_list<const char*> known);

/// Typed, validated view over an analysis's key=value parameter map.
class Params {
 public:
  Params(std::string analysis, std::map<std::string, std::string> kv)
      : analysis_(std::move(analysis)), kv_(std::move(kv)) {}

  [[nodiscard]] const std::string& analysis() const noexcept {
    return analysis_;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return kv_.count(key) > 0;
  }
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const;
  [[nodiscard]] std::uint64_t get_uint(const std::string& key,
                                       std::uint64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;
  /// Byte count with K/M/G suffix (util::parse_byte_count).
  [[nodiscard]] std::size_t get_bytes(const std::string& key,
                                      std::size_t fallback) const;

  /// Throws std::invalid_argument unless every supplied key is in `known`,
  /// naming the offending key and listing the accepted ones — the
  /// "actionable error" contract of the registry.
  void require_known(std::initializer_list<const char*> known) const;

  [[nodiscard]] const std::map<std::string, std::string>& raw() const noexcept {
    return kv_;
  }

 private:
  std::string analysis_;
  std::map<std::string, std::string> kv_;
};

/// Everything an Analysis may read about the job. Factor-side structures
/// (view, oracle) are built lazily ONCE and shared by every
/// analysis — census and validate both need the oracle, but it is
/// constructed a single time per run. So are the triangle counts t, Δ
/// and τ: truss, clustering, census and egonet read them here instead of
/// each computing them again. On a product they are the oracle's closed
/// forms, so no triangle of C is enumerated; on any other graph they come
/// from one census of it. The context owns the factors.
class PlanContext {
 public:
  PlanContext(GraphSpec spec, RunOptions options, std::vector<Graph> factors);

  [[nodiscard]] const GraphSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const RunOptions& options() const noexcept { return options_; }
  [[nodiscard]] const std::vector<Graph>& factors() const noexcept {
    return factors_;
  }

  /// True when the job is a Kronecker product of exactly two factors with
  /// no outer modifiers — the regime where the implicit view and the
  /// partitioned edge stream apply.
  [[nodiscard]] bool two_factor() const noexcept { return two_factor_; }
  /// True for any multi-factor product without outer modifiers (k >= 2).
  [[nodiscard]] bool is_product() const noexcept { return product_; }

  /// Implicit product view; requires two_factor().
  [[nodiscard]] const kron::KronGraphView& view() const;
  /// Closed-form oracle over the factor list; requires is_product().
  [[nodiscard]] const kron::TriangleOracle& oracle() const;

  /// The explicit graph of the job: the single built graph for non-product
  /// specs, the materialized product otherwise (built on first use, or
  /// injected by the run engine from the stream pass's collector).
  [[nodiscard]] const Graph& graph() const;
  [[nodiscard]] bool graph_ready() const noexcept;
  void set_graph(Graph g);

  /// Whether an analysis of the plan reads edge_triangles(). The run
  /// engine sets it from Analysis::needs_edge_triangles() before any
  /// analysis executes (default true); changing it drops the census.
  void set_needs_edge_triangles(bool needed);

  /// The census workspace of graph(), built on first use and kept until
  /// the plan ends: with edge ids when the plan reads Δ(e), vertex-only
  /// (no edge-id map) otherwise. A product plan's analyses never need it.
  [[nodiscard]] const triangle::CensusWorkspace& census() const;
  /// Δ(e) per undirected edge id of census().edge_index(), on first use
  /// only: one census pass. Throws std::logic_error when the plan declared
  /// no reader, and on a product, whose Δ_C is oracle().edge_expr() (its
  /// truss peel reads it at factor slots).
  [[nodiscard]] const std::vector<count_t>& edge_triangles() const;
  /// t_v per vertex of graph(). A product expands the oracle's t_C and
  /// needs no materialized graph. Otherwise it is ½·Σ_{e∋v} Δ(e), an O(m)
  /// sweep over edge_triangles(), when the plan reads Δ(e), and the single
  /// vertex-only pass when it does not. Either way a plan pays at most one
  /// census pass, whatever the order of its analyses.
  [[nodiscard]] const std::vector<count_t>& vertex_triangles() const;
  /// τ(graph()): the oracle's on a product, ⅓·Σ_v t_v otherwise.
  [[nodiscard]] count_t total_triangles() const;

 private:
  GraphSpec spec_;
  RunOptions options_;
  std::vector<Graph> factors_;
  bool two_factor_ = false;
  bool product_ = false;
  bool needs_edge_triangles_ = true;
  mutable std::optional<kron::KronGraphView> view_;
  mutable std::optional<kron::TriangleOracle> oracle_;
  mutable std::optional<Graph> graph_;
  mutable std::optional<triangle::CensusWorkspace> census_;
  mutable std::optional<std::vector<count_t>> edge_triangles_;
  mutable std::optional<std::vector<count_t>> vertex_triangles_;
};

/// One analysis's typed result inside a RunReport.
struct AnalysisReport {
  std::string name;
  bool pass = true;
  double wall_s = 0;
  /// Human-readable rendering — what the CLI prints for this stage.
  std::string text;
  /// Structured results (the `data` member of the report JSON).
  util::json::Value data;
};

class Analysis {
 public:
  virtual ~Analysis() = default;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Whether execute() will read ctx.graph(). The engine materializes the
  /// product before execute() when any analysis answers true.
  [[nodiscard]] virtual bool needs_graph(const PlanContext&) const {
    return false;
  }

  /// Whether execute() will read ctx.edge_triangles(). When no analysis of
  /// a plan does, the plan's census skips the edge-id map.
  [[nodiscard]] virtual bool needs_edge_triangles(const PlanContext&) const {
    return false;
  }

  /// Whether make_sink() would return a sink in this context — lets the
  /// engine decide if a stream pass is worth running without constructing
  /// throwaway sinks. Must agree with make_sink().
  [[nodiscard]] virtual bool wants_stream(const PlanContext&) const {
    return false;
  }

  /// Per-partition stream sink, or nullptr when this analysis does not
  /// consume the stream in the given context. Called once per partition on
  /// the spawning thread; the returned sinks come back to execute() in
  /// partition order.
  virtual std::unique_ptr<EdgeSink> make_sink(const PlanContext&,
                                              std::uint64_t /*part*/,
                                              std::uint64_t /*nparts*/) {
    return nullptr;
  }

  /// Runs the analysis. `sinks` holds this analysis's per-partition sinks
  /// in partition order (empty when not sink-backed or no pass ran).
  virtual AnalysisReport execute(PlanContext& ctx,
                                 std::span<EdgeSink* const> sinks) = 0;

 protected:
  /// Pre-filled report (name set, pass true).
  [[nodiscard]] AnalysisReport report() const {
    AnalysisReport r;
    r.name = name_;
    return r;
  }

 private:
  std::string name_;
};

/// String-keyed analysis factories — the mirror of GeneratorRegistry, with
/// the same thread-safety contract: builtin()'s lazy construction is a
/// magic static, lookups/builds take a shared lock, add() an exclusive one,
/// so service worker threads may race on first lookup and applications may
/// register analyses while a server is executing plans.
class AnalysisRegistry {
 public:
  using ParamMap = std::map<std::string, std::string>;
  using Factory = std::function<std::unique_ptr<Analysis>(const Params&)>;

  /// Registers (or replaces) an analysis. `help` is the one-line parameter
  /// summary printed by the CLI listing.
  void add(std::string name, std::string help, Factory factory);

  [[nodiscard]] bool contains(const std::string& name) const;

  /// Builds the named analysis; the factory validates `params`
  /// (unknown keys throw std::invalid_argument with the accepted list).
  /// Unknown analysis names throw, listing every registered name.
  [[nodiscard]] std::unique_ptr<Analysis> build(const std::string& name,
                                                const ParamMap& params) const;

  /// (name, help) pairs in registration order, for listings.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> families()
      const;

  /// The process-wide registry, pre-populated with every built-in analysis.
  static AnalysisRegistry& builtin();

 private:
  mutable std::shared_mutex mutex_;
  std::vector<std::pair<std::string, std::string>> help_;  // insertion order
  std::map<std::string, Factory> factories_;
};

}  // namespace kronotri::api
