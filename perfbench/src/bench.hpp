// perfbench — shared declarations of the repository benchmark driver.
//
// One binary runs one named workload per invocation:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// and prints, as its last stdout line, one JSON object
// {"correct","attempted","failed","metrics"}. Untraced runs report the
// end-to-end metrics; traced runs report the per-layer metrics, each timed
// around a public library call from outside the library.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/plan.hpp"
#include "util/json.hpp"

namespace kronotri::net {
class Agent;
}
namespace kronotri::service {
class Server;
}

namespace perfbench {

namespace api = kronotri::api;
namespace json = kronotri::util::json;
using kronotri::count_t;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Attempted vs failed operations. An operation is one timed plan (or one
/// service reply); it fails when its output does not verify.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

struct Result {
  Tally tally;
  std::vector<Metric> metrics;
  /// False when something other than a counted operation went wrong: a
  /// reference report that fails its own closed-form check, or a layer
  /// probe whose output disagrees with the reference.
  bool sound = true;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// ---- measurement helpers (workloads.cpp) ---------------------------------

double now_s();
/// RUSAGE_SELF + RUSAGE_CHILDREN user+sys seconds: agent and runner worker
/// children count once they are reaped.
double process_cpu_s();
/// max(RUSAGE_SELF, RUSAGE_CHILDREN) high-water RSS in MiB.
double peak_rss_mib();
/// Linear-interpolation quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
/// Deterministic 31-bit factor seed for (run seed, stream, index).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index);

// ---- workload inputs ------------------------------------------------------

/// One plan of a workload with everything its check needs: the closed-form
/// facts from kron::TriangleOracle and the runner::comparable() dump of a
/// reference report computed outside every timed phase.
struct Input {
  std::string text;  ///< plan shorthand
  api::RunPlan plan;
  count_t edges = 0;      ///< oracle: undirected non-loop product edges
  count_t triangles = 0;  ///< oracle: τ(C)
  double global_clustering = 0;
  /// Wall of the library calls that built this input: plan parse, both
  /// factor builds and the oracle.
  double setup_s = 0;
  std::string reference;  ///< identity() of the reference; empty until computed
  /// api::run wall of the reference; traced runs only, where references
  /// run one at a time before the timed phase.
  double reference_wall_s = 0;
};

/// Checks one report against its input's closed forms (pass, the oracle's
/// edge and triangle counts, clustering) and its reference report.
bool verify(const Input& in, const json::Value& report);

// ---- workloads ------------------------------------------------------------

struct Workload {
  const char* name;
  /// Plan inputs per run for the plan-fixed workloads; hot-set size for
  /// service_mix.
  unsigned inputs;
};

const std::vector<Workload>& workloads();

/// Builds input `index` of a workload (plan parse + oracle facts; no
/// reference yet). `fresh` selects service_mix's miss stream.
Input make_input(const std::string& workload, std::uint64_t seed,
                 std::uint64_t index, bool fresh = false);

/// Runs one workload: set-up (repeated, median), the timed phase, then the
/// references every timed output is compared with. With args.trace the
/// timed phase alternates untraced and traced work and the per-layer
/// probes run instead of the end-to-end report.
Result run_workload(const Args& args);

// ---- per-layer probes (layers.cpp) ---------------------------------------

struct LayerContext {
  const std::vector<Input>& inputs;  ///< with references
  /// api::run reports of the inputs' references.
  std::vector<api::RunReport> reports;
  /// Traced / untraced wall of the same work.
  double trace_overhead = 0;
  /// True when the workload's own traced phase already added the
  /// runner/net (distributed) or service (service_mix) metrics; otherwise
  /// the probes measure them on a standalone run of the first input.
  bool have_runner = false;
  bool have_service = false;
};

/// Adds every per-layer metric (see BENCHMARK.json) to `out`.
void probe_layers(LayerContext& ctx, Result& out);

/// Span totals of one traced runner::execute call.
struct TraceSummary {
  double generate_spans = 0;  ///< 'X' events named stage:generate
  double merge_s = 0;         ///< summed runner::merge span time
};
/// Exports the recorder's events, summarizes them and clears it.
TraceSummary summarize_trace();

/// Per-layer runner/net metrics of traced runner::execute calls: their
/// reports, walls and trace summaries, and the summed api::run wall of the
/// same plans (the runner.inproc_ratio base).
void add_runner_metrics(const std::vector<api::RunReport>& reports,
                        const std::vector<double>& walls,
                        const std::vector<TraceSummary>& traces,
                        double inproc_wall_s, Result& out);

/// One verified service reply, as a client saw it.
struct ServiceSample {
  bool hit = false;
  double rtt_s = 0;
  double queue_wait_s = 0;
  double execute_s = 0;
};
/// Per-layer service metrics of a conversation plus the server's `stats`
/// reply (Client::stats).
void add_service_metrics(const std::vector<ServiceSample>& samples,
                         const json::Value& stats_reply, Result& out);

/// Number member of a JSON object, or `fallback`.
double get_number(const json::Value& v, std::string_view key,
                  double fallback = 0);

// ---- shared set-up pieces (workloads.cpp) ---------------------------------

/// Agent::start plus one hello/welcome round trip; 2 slots.
std::unique_ptr<kronotri::net::Agent> start_agent();
/// Server::start (2 workers, default queue and cache) plus the first
/// answered ping, on a socket under .bench_build/tmp.
std::unique_ptr<kronotri::service::Server> start_server(
    const std::string& socket);
std::string socket_path(const std::string& tag);

/// Worker executable for runner workers and agent children.
const char* worker_exe();

}  // namespace perfbench
