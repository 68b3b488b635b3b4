// perfbench per-layer probes: each metric is timed around one public call
// of its layer, on the workload's first input, from outside the library.
// Results the probes compute are cross-checked against the input's oracle
// facts; a disagreement makes the run unsound.
#include <algorithm>
#include <functional>
#include <numeric>
#include <set>
#include <stdexcept>

#include "api/pipeline.hpp"
#include "api/registry.hpp"
#include "api/sink.hpp"
#include "bench.hpp"
#include "kron/oracle.hpp"
#include "net/agent.hpp"
#include "obs/trace.hpp"
#include "runner/runner.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "triangle/census.hpp"
#include "triangle/clustering.hpp"
#include "truss/decompose.hpp"
#include "validate/report.hpp"
#include "validate/streaming_census.hpp"

namespace perfbench {

namespace {

using kronotri::Graph;
using kronotri::vid;
namespace obs = kronotri::obs;
namespace runner = kronotri::runner;
namespace service = kronotri::service;
namespace validate = kronotri::validate;

/// Unit of the counts that repeat exactly for a given seed, so a later change
/// can rest a claim on them as counts.
constexpr const char* kExact = "count_exact";

/// Median wall of `reps` calls of fn.
double time_median(unsigned reps, const std::function<void()>& fn) {
  std::vector<double> walls;
  for (unsigned i = 0; i < reps; ++i) {
    const double t0 = now_s();
    fn();
    walls.push_back(now_s() - t0);
  }
  return median(walls);
}

/// Collects the product's directed entries across stream partitions.
std::vector<std::pair<vid, vid>> collect(const Graph& a, const Graph& b,
                                         unsigned threads) {
  const auto sinks = api::stream_parallel(
      a, b, threads, [](std::uint64_t, std::uint64_t) {
        return std::make_unique<api::CooCollectorSink>();
      });
  std::vector<std::pair<vid, vid>> edges;
  for (const auto& s : sinks) {
    const auto& part = static_cast<const api::CooCollectorSink&>(*s).edges();
    edges.insert(edges.end(), part.begin(), part.end());
  }
  return edges;
}

void probe_kernels(const Input& in, const Graph& a, const Graph& b,
                   Result& out) {
  const unsigned threads = std::max(1u, in.plan.options.threads);
  const vid n = a.num_vertices() * b.num_vertices();

  // kron: one stream pass into a degree census.
  double stream_s = 0;
  kronotri::esz streamed = 0;
  {
    const double t0 = now_s();
    const auto sinks = api::stream_parallel(
        a, b, threads, [n](std::uint64_t, std::uint64_t) {
          return std::make_unique<api::DegreeCensusSink>(n);
        });
    stream_s = now_s() - t0;
    for (const auto& s : sinks) streamed += s->edges_consumed();
  }
  out.sound = out.sound && streamed == 2 * in.edges;
  out.add("kron.stream_edges_per_s",
          static_cast<double>(in.edges) / stream_s, "1/s");

  // core: stream into a collector and build the explicit graph.
  double t0 = now_s();
  Graph g = [&] {
    const auto edges = collect(a, b, threads);
    return Graph::from_edges(n, edges, false);
  }();
  out.add("core.materialize_s", now_s() - t0, "s");
  out.sound = out.sound && g.num_undirected_edges() == in.edges;

  // triangle: the census engine, then both clustering coefficients.
  t0 = now_s();
  const kronotri::triangle::CensusWorkspace ws(g);
  const std::vector<count_t> per_edge = ws.edge_census();
  const double census_s = now_s() - t0;
  const count_t triangles =
      std::accumulate(per_edge.begin(), per_edge.end(), count_t{0}) / 3;
  out.sound = out.sound && triangles == in.triangles;
  out.add("triangle.census_s", census_s, "s");
  out.add("triangle.triangles_per_s",
          static_cast<double>(triangles) / census_s, "1/s");
  t0 = now_s();
  const double global = kronotri::triangle::global_clustering(g);
  (void)kronotri::triangle::average_clustering(g);
  out.add("triangle.clustering_s", now_s() - t0, "s");
  out.sound = out.sound && std::abs(global - in.global_clustering) <= 1e-9;

  // truss: the parallel peel.
  t0 = now_s();
  const auto truss = kronotri::truss::decompose(g);
  const double truss_s = now_s() - t0;
  out.sound = out.sound && truss.max_truss >= 2;
  out.add("truss.decompose_s", truss_s, "s");
  out.add("truss.edges_per_s", static_cast<double>(in.edges) / truss_s,
          "1/s");
}

void probe_validate(const Input& in, const Graph& a, const Graph& b,
                    Result& out) {
  validate::StreamingOptions opt;
  opt.mem_budget_bytes = 1u << 20;
  double t0 = now_s();
  const validate::StreamingCensus engine(a, b, opt);
  const validate::StreamingStats stats = engine.run();
  const double census_s = now_s() - t0;
  out.sound = out.sound && stats.total_triangles == in.triangles;
  out.add("validate.census_s", census_s, "s");
  out.add("validate.wedge_checks", static_cast<double>(stats.wedge_checks),
          kExact);
  out.add("validate.wedge_checks_per_s",
          static_cast<double>(stats.wedge_checks) / census_s, "1/s");
  out.add("validate.shards", static_cast<double>(stats.num_shards), kExact);
  out.add("validate.peak_accumulator_bytes",
          static_cast<double>(stats.peak_accumulator_bytes), "B");

  t0 = now_s();
  const validate::ValidationReport report = validate::validate_product(a, b, opt);
  const double product_s = now_s() - t0;
  out.sound = out.sound && report.pass();
  // validate_product = its census + the closed-form diff.
  out.add("validate.diff_s", product_s - census_s, "s");
}

void probe_api_util(const LayerContext& ctx, Result& out) {
  const Input& in = ctx.inputs.front();
  out.add("api.plan_parse_s",
          time_median(51, [&] { (void)api::RunPlan::parse(in.text); }), "s");

  std::vector<double> orchestration;
  for (const api::RunReport& r : ctx.reports) {
    double inner = 0;
    for (const api::StageTiming& s : r.stages) inner += s.wall_s;
    for (const api::AnalysisReport& a : r.analyses) inner += a.wall_s;
    orchestration.push_back(r.total_wall_s - inner);
  }
  out.add("api.orchestration_s", median(orchestration), "s");

  const api::RunReport& report = ctx.reports.front();
  std::string text;
  const double dump_s =
      time_median(9, [&] { text = report.to_json().dump_string(0); });
  const double parse_s = time_median(9, [&] {
    const api::RunReport back =
        api::RunReport::from_json(json::Value::parse(text));
    out.sound = out.sound && back.num_undirected_edges == in.edges;
  });
  out.add("util.report_json_bytes", static_cast<double>(text.size()), "B");
  out.add("util.report_dump_s", dump_s, "s");
  out.add("util.report_parse_s", parse_s, "s");
}

/// One traced runner::execute of the first input over 2 local slots plus
/// the agent's 2 remote slots.
void probe_runner(const LayerContext& ctx, const kronotri::net::Agent& agent,
                  Result& out) {
  const Input& in = ctx.inputs.front();
  runner::Options opt = runner::options_from(in.plan);
  opt.workers = 2;
  opt.worker_exe = worker_exe();
  opt.agents = {agent.endpoint()};
  obs::TraceRecorder& rec = obs::TraceRecorder::instance();
  rec.clear();
  rec.set_enabled(true);
  const double t0 = now_s();
  api::RunReport report = runner::execute(in.plan, opt);
  const double wall = now_s() - t0;
  rec.set_enabled(false);
  const TraceSummary summary = summarize_trace();
  out.sound = out.sound && verify(in, report.to_json());
  add_runner_metrics({std::move(report)}, {wall}, {summary},
                     in.reference_wall_s, out);
}

/// A single-client conversation on a fresh server: the first input misses
/// once, then hits 15 times.
void probe_service(const LayerContext& ctx, const std::string& socket,
                   Result& out) {
  service::Client client;
  client.connect(socket);
  std::vector<ServiceSample> samples;
  const auto submit = [&](const Input& in) {
    const double t0 = now_s();
    const json::Value reply = client.submit(in.plan);
    const double rtt = now_s() - t0;
    const json::Value* report = reply.find("report");
    const bool ok = reply.get_bool("ok", false) && report != nullptr &&
                    verify(in, *report);
    out.sound = out.sound && ok;
    if (ok) {
      samples.push_back({reply.get_string("cache", "") == "hit", rtt,
                         get_number(reply, "queue_wait_s"),
                         get_number(reply, "execute_s")});
    }
  };
  for (int i = 0; i < 16; ++i) submit(ctx.inputs.front());
  add_service_metrics(samples, client.stats(), out);
}

}  // namespace

TraceSummary summarize_trace() {
  obs::TraceRecorder& rec = obs::TraceRecorder::instance();
  TraceSummary s;
  const json::Value doc = rec.export_json();
  if (const json::Value* events = doc.find("traceEvents")) {
    for (const json::Value& ev : events->items()) {
      if (ev.get_string("ph", "") != "X") continue;
      const std::string name = ev.get_string("name", "");
      if (name == "stage:generate") s.generate_spans += 1;
      if (name == "runner::merge") s.merge_s += get_number(ev, "dur") * 1e-6;
    }
  }
  rec.clear();
  return s;
}

void add_runner_metrics(const std::vector<api::RunReport>& reports,
                        const std::vector<double>& walls,
                        const std::vector<TraceSummary>& traces,
                        double inproc_wall_s, Result& out) {
  const double plans = std::max<double>(1, static_cast<double>(reports.size()));
  double units = 0;
  double attempts = 0;
  double ok = 0;
  double worker_cpu = 0;
  double disconnects = 0;
  std::vector<double> local;
  std::vector<double> remote;
  for (const api::RunReport& r : reports) {
    std::set<std::pair<std::string, unsigned>> seen;
    for (const api::WorkerEvent& e : r.worker_events) {
      seen.insert({e.kind, e.unit});
      attempts += 1;
      worker_cpu += e.cpu_user_s + e.cpu_sys_s;
      if (e.outcome == "disconnect") disconnects += 1;
      if (e.outcome != "ok") continue;
      ok += 1;
      (e.host.empty() ? local : remote).push_back(e.wall_s);
    }
    units += static_cast<double>(seen.size());
  }
  const double wall = std::accumulate(walls.begin(), walls.end(), 0.0);
  double spans = 0;
  double merge = 0;
  for (const TraceSummary& t : traces) {
    spans += t.generate_spans;
    merge += t.merge_s;
  }
  const double local_p50 = median(local);
  const double remote_p50 = median(remote);
  out.add("runner.inproc_ratio", inproc_wall_s > 0 ? wall / inproc_wall_s : 0,
          "ratio");
  out.add("runner.units", units / plans, kExact);
  out.add("runner.attempts", attempts / plans, "count");
  out.add("runner.attempts_ok_ratio", attempts > 0 ? ok / attempts : 0,
          "ratio");
  out.add("runner.local_attempt_p50_s", local_p50, "s");
  out.add("runner.worker_cpu_s", worker_cpu / plans, "s");
  out.add("runner.worker_cpu_per_wall", wall > 0 ? worker_cpu / wall : 0,
          "ratio");
  out.add("runner.generate_spans",
          spans / std::max<double>(1, static_cast<double>(traces.size())),
          kExact);
  out.add("runner.merge_s",
          merge / std::max<double>(1, static_cast<double>(traces.size())),
          "s");
  out.add("net.remote_attempt_p50_s", remote_p50, "s");
  out.add("net.remote_over_local", local_p50 > 0 ? remote_p50 / local_p50 : 0,
          "ratio");
  out.add("net.disconnects", disconnects, kExact);
}

void add_service_metrics(const std::vector<ServiceSample>& samples,
                         const json::Value& stats_reply, Result& out) {
  const json::Value* stats = stats_reply.find("stats");
  if (stats == nullptr) throw std::runtime_error("service: no stats");
  std::vector<double> hit;
  std::vector<double> miss;
  std::vector<double> wait;
  std::vector<double> exec;
  for (const ServiceSample& s : samples) {
    if (s.hit) {
      hit.push_back(s.rtt_s);
      continue;
    }
    miss.push_back(s.rtt_s);
    wait.push_back(s.queue_wait_s);
    exec.push_back(s.execute_s);
  }
  double rejected = 0;
  if (const json::Value* r = stats->find("rejected")) {
    for (const auto& [key, value] : r->members()) rejected += value.as_double();
  }
  const json::Value* cache = stats->find("cache");
  out.add("service.hit_rtt_p50_s", median(hit), "s");
  out.add("service.miss_rtt_p50_s", median(miss), "s");
  out.add("service.queue_wait_p50_s", median(wait), "s");
  out.add("service.execute_p50_s", median(exec), "s");
  out.add("service.cache_hit_ratio",
          cache != nullptr ? get_number(*cache, "hit_rate") : 0, "ratio");
  out.add("service.rejected", rejected, "count");
}

void probe_layers(LayerContext& ctx, Result& out) {
  const Input& in = ctx.inputs.front();
  const api::GeneratorRegistry& reg = api::GeneratorRegistry::builtin();

  // gen + kron set-up pieces.
  Graph a;
  Graph b;
  out.add("gen.factor_build_s", time_median(5, [&] {
            a = reg.build(in.plan.spec.factors.at(0));
            b = reg.build(in.plan.spec.factors.at(1));
          }),
          "s");
  out.add("kron.oracle_build_s", time_median(5, [&] {
            const kronotri::kron::TriangleOracle oracle(a, b);
            out.sound = out.sound && oracle.total_triangles() == in.triangles;
          }),
          "s");

  probe_kernels(in, a, b, out);
  probe_validate(in, a, b, out);

  if (ctx.reports.empty()) ctx.reports.push_back(api::run(in.plan));
  probe_api_util(ctx, out);

  // net: agent start + handshake, the agent then serves the runner probe.
  {
    std::unique_ptr<kronotri::net::Agent> agent;
    const double t0 = now_s();
    agent = start_agent();
    out.add("net.agent_start_s", now_s() - t0, "s");
    if (!ctx.have_runner) probe_runner(ctx, *agent, out);
  }

  // service: server start to first ping; the probe conversation unless the
  // workload's own traced phase already measured it.
  {
    const std::string socket = socket_path("probe");
    const double t0 = now_s();
    auto server = start_server(socket);
    out.add("service.start_s", now_s() - t0, "s");
    if (!ctx.have_service) probe_service(ctx, socket, out);
  }

  out.add("obs.trace_overhead", ctx.trace_overhead, "ratio");
}

}  // namespace perfbench
