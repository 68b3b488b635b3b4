// RunPlan / api::run() — the declarative job engine.
//
// A RunPlan is the whole paper workflow as one value: a graph spec, a list
// of named analyses with parameters, and execution options (threads,
// batch size, memory budget, output). api::run() executes it in as few
// stream passes as possible — every sink-backed analysis (plus the edge-
// list writer and, when an analysis needs the explicit graph, a collector)
// rides ONE stream_parallel pass through a per-partition TeeSink, merged
// per partition in partition order so counts stay bit-identical to
// independent passes — and returns a RunReport: per-stage edge counts and
// wall/CPU timings, every analysis's typed result, and a pass/fail
// verdict, serializable to JSON.
//
// Plans round-trip through JSON (`kronotri run --plan plan.json`) and a
// one-line shorthand ("SPEC analysis[:k=v,…] …"); a plan is also the unit
// the ROADMAP's distributed partition scheduling will ship to remote
// nodes.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "api/analysis.hpp"
#include "api/registry.hpp"
#include "api/spec.hpp"
#include "util/json.hpp"

namespace kronotri::api {

/// One requested analysis: a registry key plus its parameter map.
struct AnalysisRequest {
  std::string name;
  std::map<std::string, std::string> params;

  /// Parses the shorthand token `name[:key=value,…]`.
  static AnalysisRequest parse(std::string_view token);
};

struct RunPlan {
  GraphSpec spec;
  std::vector<AnalysisRequest> analyses;
  RunOptions options;
  std::string description;  ///< free-form, echoed into the report

  /// Parses either form: a JSON document (first non-space byte '{') or the
  /// shorthand `SPEC [analysis[:k=v,…]]…` (whitespace-separated). Throws
  /// std::invalid_argument with an actionable message on unknown keys.
  static RunPlan parse(std::string_view text);
  static RunPlan from_json(const util::json::Value& v);

  [[nodiscard]] util::json::Value to_json() const;
};

/// One timed stage of a run (generate, stream, materialize, write, or one
/// analysis).
struct StageTiming {
  std::string name;
  double wall_s = 0;
  double cpu_s = 0;
  esz edges = 0;  ///< stored entries processed by the stage (0 if n/a)
};

/// One scheduling event of the multi-process runner: the outcome of a
/// single worker attempt, classified from waitpid status so crashes,
/// nonzero exits, timeouts and truncated result frames stay
/// distinguishable in the report.
struct WorkerEvent {
  unsigned unit = 0;     ///< work-unit index (0 = base plan when present)
  std::string kind;      ///< "base" | "validate" | "run"
  unsigned attempt = 0;  ///< 0-based attempt counter for the unit
  long pid = 0;          ///< worker process id (0 when never spawned)
  /// "ok" | "exit" | "signal" | "timeout" | "truncated" | "spawn_failed" |
  /// "speculative_loss" | "aborted" | "degraded" | "oom" (worker died at
  /// kOomExitCode after the RLIMIT_AS guard tripped its allocation path) |
  /// "resumed" (unit reloaded from a journal, not re-executed) | "corrupt"
  /// (a journaled fragment failed CRC/digest verification on resume and
  /// the unit was re-queued) | "disconnect" (the remote agent running the
  /// attempt lost its connection or missed its heartbeat deadline — the
  /// unit re-dispatches exactly like a SIGKILLed local child) | "garbled"
  /// (a result frame from the agent failed its CRC and was rejected)
  std::string outcome;
  int detail = 0;  ///< exit code ("exit") or signal number ("signal"/…)
  double wall_s = 0;
  /// Remote attempts only: the agent endpoint ("HOST:PORT") the attempt
  /// ran on; empty for local fork/exec workers.
  std::string host;
  /// Per-attempt resource accounting from the coordinator's wait4()
  /// rusage: the worker process's own peak RSS and split CPU time. All 0
  /// for attempts that never ran (spawn_failed, resumed) — and on the few
  /// platforms without wait4.
  std::size_t max_rss_bytes = 0;
  double cpu_user_s = 0;
  double cpu_sys_s = 0;
  /// OpenMP team the worker process ran with: the per-host budget
  /// (util::omp_budget) of the coordinator for local attempts, of the agent
  /// for remote ones. 0 where unknown: attempts that never ran
  /// (spawn_failed, resumed) and remote attempts whose result frame never
  /// arrived (disconnect, garbled, aborted). Read next to
  /// (cpu_user_s + cpu_sys_s) / wall_s, it shows whether a worker kept its
  /// team busy or oversubscribed its cores.
  unsigned omp_threads = 0;

  [[nodiscard]] util::json::Value to_json() const;
  static WorkerEvent from_json(const util::json::Value& v);
};

struct RunReport {
  RunPlan plan;  ///< the executed plan, echoed
  vid num_vertices = 0;
  count_t num_undirected_edges = 0;
  esz stored_entries = 0;  ///< entries streamed (or nnz of the built graph)
  bool streamed = false;   ///< a stream_parallel pass ran
  unsigned partitions = 0;
  std::vector<StageTiming> stages;
  std::vector<AnalysisReport> analyses;
  bool pass = true;  ///< conjunction of every analysis verdict
  double total_wall_s = 0;
  double total_cpu_s = 0;
  /// Process peak RSS (getrusage ru_maxrss) sampled when the run finishes —
  /// a high-water mark over the whole process, so in a multi-job server it
  /// bounds, rather than attributes, this job's footprint. 0 when the
  /// platform has no getrusage.
  std::size_t peak_rss_bytes = 0;
  /// Time the job sat in a queue before execute started. api::run() cannot
  /// know it, so it stays 0 for direct runs; the service layer fills it in
  /// so its latency metrics decompose into wait vs. execute.
  double queue_wait_s = 0;
  util::json::Value metadata;  ///< util::run_metadata()
  /// Per-attempt scheduling trail of the multi-process runner; empty for
  /// in-process runs. Volatile (pids, timings) — comparison helpers strip
  /// it alongside the timing fields.
  std::vector<WorkerEvent> worker_events;
  /// obs::CounterRegistry delta over this run (edges streamed, shards
  /// executed, retries, …). Volatile like the timings — comparison helpers
  /// strip it. Null when nothing incremented.
  util::json::Value counters;
  /// Non-empty when the run failed structurally (a work unit exhausted its
  /// retry budget, a worker could not be spawned); pass is false then.
  std::string error;

  [[nodiscard]] util::json::Value to_json() const;
  /// Inverse of to_json() — how the runner coordinator reads worker
  /// fragments back. The echoed plan and metadata are restored verbatim.
  static RunReport from_json(const util::json::Value& v);
  /// Human-readable rendering: header, per-analysis text blocks, verdict.
  void print(std::ostream& os) const;
};

/// Executes the plan. Generator and analysis lookups use the given
/// registries (the builtins by default). Throws std::invalid_argument for
/// malformed plans/params, and propagates analysis errors.
RunReport run(const RunPlan& plan,
              const GeneratorRegistry& generators = GeneratorRegistry::builtin(),
              const AnalysisRegistry& analyses = AnalysisRegistry::builtin());

}  // namespace kronotri::api
