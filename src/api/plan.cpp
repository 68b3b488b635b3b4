#include "api/plan.hpp"

#include <cctype>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "api/pipeline.hpp"
#include "core/io.hpp"
#include "obs/counters.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/runmeta.hpp"
#include "util/table.hpp"

namespace kronotri::api {

namespace {

using util::json::Value;

[[noreturn]] void bad_plan(const std::string& why) {
  throw std::invalid_argument("RunPlan: " + why);
}

void require_keys(const Value& obj, const char* where,
                  std::initializer_list<const char*> known) {
  for (const auto& [key, value] : obj.members()) {
    bool ok = false;
    for (const char* k : known) ok = ok || key == k;
    if (!ok) throw_unknown_key(std::string("RunPlan ") + where, key, known);
  }
}

/// A JSON param value as the string the Params getters parse.
std::string param_string(const std::string& analysis, const std::string& key,
                         const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kString: return v.as_string();
    case Value::Kind::kUInt: return std::to_string(v.as_uint());
    case Value::Kind::kInt: return std::to_string(v.as_int());
    case Value::Kind::kDouble: return v.dump_string(0);
    case Value::Kind::kBool: return v.as_bool() ? "1" : "0";
    default:
      bad_plan("analysis \"" + analysis + "\" param \"" + key +
               "\" must be a scalar");
  }
}

std::size_t byte_count_field(const Value& options, const char* key,
                             std::size_t fallback) {
  const Value* v = options.find(key);
  if (v == nullptr) return fallback;
  if (v->is_string()) return util::parse_byte_count(v->as_string());
  return static_cast<std::size_t>(v->as_uint());
}

/// One report stage: its "stage:<name>" trace span and one obs::Stopwatch,
/// whose wall and CPU seconds done() appends to the report's stages.
struct StageClock {
  StageClock(std::vector<StageTiming>& out, const char* name)
      : out(out), name(name), span("stage:", name) {}
  void done(esz edges = 0) {
    out.push_back({name, sw.wall_s(), sw.cpu_s(), edges});
  }
  std::vector<StageTiming>& out;
  const char* name;
  obs::Span span;
  const obs::Stopwatch sw;
};

}  // namespace

AnalysisRequest AnalysisRequest::parse(std::string_view token) {
  AnalysisRequest req;
  const std::size_t colon = token.find(':');
  req.name = std::string(token.substr(0, colon));
  if (req.name.empty()) bad_plan("empty analysis name");
  if (colon == std::string_view::npos) return req;
  std::string_view rest = token.substr(colon + 1);
  std::size_t pos = 0;
  while (pos < rest.size()) {
    std::size_t comma = rest.find(',', pos);
    if (comma == std::string_view::npos) comma = rest.size();
    const std::string_view kv = rest.substr(pos, comma - pos);
    const std::size_t eq = kv.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      bad_plan("analysis \"" + req.name + "\": expected key=value, got \"" +
               std::string(kv) + "\"");
    }
    req.params[std::string(kv.substr(0, eq))] = std::string(kv.substr(eq + 1));
    pos = comma + 1;
  }
  return req;
}

RunPlan RunPlan::from_json(const Value& v) {
  if (!v.is_object()) bad_plan("plan document must be a JSON object");
  require_keys(v, "plan", {"description", "spec", "analyses", "options"});

  RunPlan plan;
  plan.description = v.get_string("description", "");
  const Value* spec = v.find("spec");
  if (spec == nullptr) bad_plan("missing required key \"spec\"");
  plan.spec = GraphSpec::parse(spec->as_string());

  if (const Value* analyses = v.find("analyses")) {
    for (const Value& entry : analyses->items()) {
      if (entry.is_string()) {
        plan.analyses.push_back(AnalysisRequest::parse(entry.as_string()));
        continue;
      }
      require_keys(entry, "analyses[]", {"name", "params"});
      AnalysisRequest req;
      const Value* name = entry.find("name");
      if (name == nullptr) bad_plan("analyses[] entry missing \"name\"");
      req.name = name->as_string();
      if (const Value* params = entry.find("params")) {
        for (const auto& [key, val] : params->members()) {
          req.params[key] = param_string(req.name, key, val);
        }
      }
      plan.analyses.push_back(std::move(req));
    }
  }

  if (const Value* options = v.find("options")) {
    require_keys(*options, "options",
                 {"threads", "batch_size", "mem_budget", "seed", "output",
                  "format", "stream", "workers", "shard_timeout",
                  "max_retries", "fault"});
    RunOptions& o = plan.options;
    o.threads = static_cast<unsigned>(options->get_uint("threads", o.threads));
    o.batch_size = options->get_uint("batch_size", o.batch_size);
    o.mem_budget_bytes =
        byte_count_field(*options, "mem_budget", o.mem_budget_bytes);
    o.seed = options->get_uint("seed", o.seed);
    o.output = options->get_string("output", o.output);
    o.format = options->get_string("format", o.format);
    o.stream = options->get_bool("stream", o.stream);
    o.workers =
        static_cast<unsigned>(options->get_uint("workers", o.workers));
    if (const Value* t = options->find("shard_timeout")) {
      o.shard_timeout_s = t->as_double();
    }
    o.max_retries =
        static_cast<unsigned>(options->get_uint("max_retries", o.max_retries));
    o.fault = options->get_string("fault", o.fault);
    if (o.format != "text" && o.format != "binary") {
      bad_plan("options.format must be \"text\" or \"binary\"");
    }
  }
  return plan;
}

RunPlan RunPlan::parse(std::string_view text) {
  std::size_t start = 0;
  while (start < text.size() &&
         (text[start] == ' ' || text[start] == '\t' || text[start] == '\n' ||
          text[start] == '\r')) {
    ++start;
  }
  if (start == text.size()) bad_plan("empty plan");
  if (text[start] == '{') return from_json(Value::parse(text));

  // Shorthand: SPEC [analysis[:k=v,…]]… — whitespace-separated tokens.
  RunPlan plan;
  std::vector<std::string_view> tokens;
  std::size_t pos = start;
  while (pos < text.size()) {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(
                                    text[pos]))) {
      ++pos;
    }
    std::size_t end = pos;
    while (end < text.size() && !std::isspace(static_cast<unsigned char>(
                                    text[end]))) {
      ++end;
    }
    if (end > pos) tokens.push_back(text.substr(pos, end - pos));
    pos = end;
  }
  plan.spec = GraphSpec::parse(tokens.front());
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    plan.analyses.push_back(AnalysisRequest::parse(tokens[i]));
  }
  return plan;
}

Value RunPlan::to_json() const {
  Value v = Value::object();
  if (!description.empty()) v.set("description", description);
  v.set("spec", spec.to_string());
  Value reqs = Value::array();
  for (const AnalysisRequest& req : analyses) {
    Value entry = Value::object();
    entry.set("name", req.name);
    Value params = Value::object();
    for (const auto& [key, value] : req.params) params.set(key, value);
    entry.set("params", std::move(params));
    reqs.push_back(std::move(entry));
  }
  v.set("analyses", std::move(reqs));
  Value opts = Value::object();
  opts.set("threads", options.threads);
  opts.set("batch_size", options.batch_size);
  opts.set("mem_budget", options.mem_budget_bytes);
  opts.set("seed", options.seed);
  opts.set("output", options.output);
  opts.set("format", options.format);
  opts.set("stream", options.stream);
  opts.set("workers", options.workers);
  opts.set("shard_timeout", options.shard_timeout_s);
  opts.set("max_retries", options.max_retries);
  opts.set("fault", options.fault);
  v.set("options", std::move(opts));
  return v;
}

Value WorkerEvent::to_json() const {
  Value v = Value::object();
  v.set("unit", unit);
  v.set("kind", kind);
  v.set("attempt", attempt);
  v.set("pid", static_cast<std::int64_t>(pid));
  v.set("outcome", outcome);
  v.set("detail", static_cast<std::int64_t>(detail));
  v.set("wall_s", wall_s);
  if (max_rss_bytes != 0) v.set("max_rss_bytes", max_rss_bytes);
  if (cpu_user_s != 0) v.set("cpu_user_s", cpu_user_s);
  if (cpu_sys_s != 0) v.set("cpu_sys_s", cpu_sys_s);
  if (omp_threads != 0) v.set("omp_threads", omp_threads);
  if (!host.empty()) v.set("host", host);
  return v;
}

WorkerEvent WorkerEvent::from_json(const Value& v) {
  WorkerEvent e;
  e.unit = static_cast<unsigned>(v.get_uint("unit", 0));
  e.kind = v.get_string("kind", "");
  e.attempt = static_cast<unsigned>(v.get_uint("attempt", 0));
  if (const Value* pid = v.find("pid")) e.pid = pid->as_int();
  e.outcome = v.get_string("outcome", "");
  if (const Value* detail = v.find("detail")) {
    e.detail = static_cast<int>(detail->as_int());
  }
  if (const Value* wall = v.find("wall_s")) e.wall_s = wall->as_double();
  e.max_rss_bytes = v.get_uint("max_rss_bytes", 0);
  if (const Value* u = v.find("cpu_user_s")) e.cpu_user_s = u->as_double();
  if (const Value* s = v.find("cpu_sys_s")) e.cpu_sys_s = s->as_double();
  e.omp_threads = static_cast<unsigned>(v.get_uint("omp_threads", 0));
  e.host = v.get_string("host", "");
  return e;
}

Value RunReport::to_json() const {
  Value v = Value::object();
  v.set("plan", plan.to_json());
  v.set("num_vertices", num_vertices);
  v.set("num_undirected_edges", num_undirected_edges);
  v.set("stored_entries", stored_entries);
  v.set("streamed", streamed);
  v.set("partitions", partitions);
  Value sts = Value::array();
  for (const StageTiming& st : stages) {
    Value s = Value::object();
    s.set("name", st.name);
    s.set("wall_s", st.wall_s);
    s.set("cpu_s", st.cpu_s);
    s.set("edges", st.edges);
    sts.push_back(std::move(s));
  }
  v.set("stages", std::move(sts));
  Value ars = Value::array();
  for (const AnalysisReport& ar : analyses) {
    Value a = Value::object();
    a.set("name", ar.name);
    a.set("pass", ar.pass);
    a.set("wall_s", ar.wall_s);
    a.set("text", ar.text);
    a.set("data", ar.data);
    ars.push_back(std::move(a));
  }
  v.set("analyses", std::move(ars));
  v.set("pass", pass);
  v.set("total_wall_s", total_wall_s);
  v.set("total_cpu_s", total_cpu_s);
  v.set("peak_rss_bytes", peak_rss_bytes);
  v.set("queue_wait_s", queue_wait_s);
  v.set("metadata", metadata);
  if (!worker_events.empty()) {
    Value evs = Value::array();
    for (const WorkerEvent& e : worker_events) evs.push_back(e.to_json());
    v.set("worker_events", std::move(evs));
  }
  if (counters.is_object() && !counters.members().empty()) {
    v.set("counters", counters);
  }
  if (!error.empty()) v.set("error", error);
  return v;
}

RunReport RunReport::from_json(const Value& v) {
  RunReport r;
  if (const Value* plan = v.find("plan")) r.plan = RunPlan::from_json(*plan);
  r.num_vertices = v.get_uint("num_vertices", 0);
  r.num_undirected_edges = v.get_uint("num_undirected_edges", 0);
  r.stored_entries = v.get_uint("stored_entries", 0);
  r.streamed = v.get_bool("streamed", false);
  r.partitions = static_cast<unsigned>(v.get_uint("partitions", 0));
  if (const Value* stages = v.find("stages")) {
    for (const Value& s : stages->items()) {
      StageTiming st;
      st.name = s.get_string("name", "");
      if (const Value* w = s.find("wall_s")) st.wall_s = w->as_double();
      if (const Value* c = s.find("cpu_s")) st.cpu_s = c->as_double();
      st.edges = s.get_uint("edges", 0);
      r.stages.push_back(std::move(st));
    }
  }
  if (const Value* analyses = v.find("analyses")) {
    for (const Value& a : analyses->items()) {
      AnalysisReport ar;
      ar.name = a.get_string("name", "");
      ar.pass = a.get_bool("pass", false);
      if (const Value* w = a.find("wall_s")) ar.wall_s = w->as_double();
      ar.text = a.get_string("text", "");
      if (const Value* data = a.find("data")) ar.data = *data;
      r.analyses.push_back(std::move(ar));
    }
  }
  r.pass = v.get_bool("pass", false);
  if (const Value* w = v.find("total_wall_s")) r.total_wall_s = w->as_double();
  if (const Value* c = v.find("total_cpu_s")) r.total_cpu_s = c->as_double();
  r.peak_rss_bytes = v.get_uint("peak_rss_bytes", 0);
  if (const Value* q = v.find("queue_wait_s")) {
    r.queue_wait_s = q->as_double();
  }
  if (const Value* m = v.find("metadata")) r.metadata = *m;
  if (const Value* evs = v.find("worker_events")) {
    for (const Value& e : evs->items()) {
      r.worker_events.push_back(WorkerEvent::from_json(e));
    }
  }
  if (const Value* c = v.find("counters")) r.counters = *c;
  r.error = v.get_string("error", "");
  return r;
}

void RunReport::print(std::ostream& os) const {
  os << "run: " << plan.spec.to_string() << "\n";
  if (!plan.description.empty()) os << "  " << plan.description << "\n";
  os << "  vertices " << util::commas(num_vertices) << ", undirected edges "
     << util::commas(num_undirected_edges);
  if (streamed) {
    os << ", streamed " << util::commas(stored_entries)
       << " stored entries over " << partitions << " partition"
       << (partitions > 1 ? "s" : "");
  }
  os << "\n";
  for (const StageTiming& st : stages) {
    os << "  stage " << st.name << ": " << st.wall_s << " s wall, "
       << st.cpu_s << " s cpu";
    if (st.edges > 0) os << ", " << util::commas(st.edges) << " entries";
    os << "\n";
  }
  if (!worker_events.empty()) {
    std::size_t recoveries = 0;
    for (const WorkerEvent& e : worker_events) {
      if (e.outcome != "ok" && e.outcome != "speculative_loss") ++recoveries;
    }
    os << "  workers: " << worker_events.size() << " attempt"
       << (worker_events.size() > 1 ? "s" : "") << ", " << recoveries
       << " fault" << (recoveries == 1 ? "" : "s") << " recovered or fatal\n";
    for (const WorkerEvent& e : worker_events) {
      os << "    unit " << e.unit << " (" << e.kind << ") attempt "
         << e.attempt << ": " << e.outcome;
      if (e.outcome == "exit") os << " code " << e.detail;
      if (e.outcome == "signal" || e.outcome == "timeout") {
        os << " sig " << e.detail;
      }
      os << " (" << e.wall_s << " s)\n";
    }
  }
  for (const AnalysisReport& ar : analyses) {
    os << "\n-- " << ar.name << " (" << ar.wall_s << " s) "
       << std::string(ar.name.size() < 40 ? 40 - ar.name.size() : 1, '-')
       << "\n"
       << ar.text;
  }
  if (!error.empty()) os << "\nerror: " << error << "\n";
  os << "\n" << (pass ? "PASS" : "FAIL") << " (" << total_wall_s
     << " s wall, " << total_cpu_s << " s cpu)\n";
}

RunReport run(const RunPlan& plan, const GeneratorRegistry& generators,
              const AnalysisRegistry& registry) {
  const obs::Stopwatch elapsed;
  // The registry is process-global; the report carries this run's delta so
  // back-to-back runs (service worker loop, tests) don't inherit counts.
  const util::json::Value counters_start =
      obs::CounterRegistry::instance().snapshot();
  obs::Span run_span("api::run");
  RunReport report;
  report.plan = plan;

  // Build every analysis first: parameter validation is cheap and should
  // fail before any generation work starts.
  std::vector<std::unique_ptr<Analysis>> analyses;
  analyses.reserve(plan.analyses.size());
  for (const AnalysisRequest& req : plan.analyses) {
    analyses.push_back(registry.build(req.name, req.params));
  }

  // Default-seed injection: a plan-level seed seeds a non-kron root spec
  // that did not pin its own (kron factors keep their per-factor seeds).
  GraphSpec spec = plan.spec;
  if (plan.options.seed != 0 && !spec.is_kron() && !spec.has("seed")) {
    spec.params["seed"] = std::to_string(plan.options.seed);
  }

  // Generate. A kron spec with outer modifiers (loops/prune apply to the
  // product) is materialized here — its factor-side structures would
  // describe a different graph.
  const bool modified_kron =
      spec.is_kron() &&
      (spec.get_bool("prune", false) || spec.get_bool("loops", false));
  std::vector<Graph> factors;
  {
    StageClock stage(report.stages, "generate");
    if (modified_kron) {
      factors.push_back(generators.build(spec));
    } else if (spec.is_kron()) {
      // Build each distinct factor spec once: B defaulting to A (the
      // common census/validate shape) must not read or generate the same
      // factor twice. Repeats are copies — factors are small by design.
      std::map<std::string, std::size_t> built;
      for (const GraphSpec& f : spec.factors) {
        const auto [it, fresh] = built.emplace(f.to_string(), factors.size());
        if (fresh) {
          factors.push_back(generators.build(f));
        } else {
          factors.push_back(factors[it->second]);
        }
      }
    } else {
      factors = generators.build_factors(spec);
    }
    stage.span.arg("factors", factors.size());
    stage.done();
  }

  PlanContext ctx(spec, plan.options, std::move(factors));
  if (ctx.two_factor()) {
    report.num_vertices = ctx.view().num_vertices();
    report.num_undirected_edges = ctx.view().num_undirected_edges();
  } else if (ctx.is_product()) {
    report.num_vertices = ctx.chain().num_vertices();
    report.num_undirected_edges = ctx.chain().num_undirected_edges();
  } else {
    report.num_vertices = ctx.graph().num_vertices();
    report.num_undirected_edges = ctx.graph().num_undirected_edges();
    report.stored_entries = ctx.graph().nnz();
  }

  // Decide the stream pass: it runs when the product is streamable and
  // either the plan forces it (options.stream) or at least one analysis
  // rides it. Everything that wants the edges — file writers, sink-backed
  // analyses, the collector that materializes for kernel-backed analyses —
  // shares the ONE pass through a per-partition TeeSink.
  bool want_stream = plan.options.stream;
  if (plan.options.stream && !ctx.two_factor()) {
    bad_plan(
        "options.stream requires a 2-factor kron spec without loops/prune "
        "modifiers (got \"" +
        spec.to_string() + "\")");
  }
  for (const auto& a : analyses) want_stream = want_stream || a->wants_stream(ctx);
  const bool pass_runs = ctx.two_factor() && want_stream;

  bool needs_graph = false, needs_edge_triangles = false;
  for (const auto& a : analyses) {
    needs_graph = needs_graph || a->needs_graph(ctx);
    needs_edge_triangles = needs_edge_triangles || a->needs_edge_triangles(ctx);
  }
  ctx.set_needs_edge_triangles(needs_edge_triangles);
  // A non-stream run that must write output materializes and writes below.
  const bool write_materialized = !plan.options.output.empty() && !pass_runs;

  std::vector<std::unique_ptr<EdgeSink>> pass_sinks;   // own the tees
  std::vector<std::unique_ptr<std::ofstream>> files;   // output streams
  std::vector<std::vector<EdgeSink*>> analysis_sinks(analyses.size());

  if (pass_runs) {
    std::vector<CooCollectorSink*> collectors;
    const bool binary = plan.options.format == "binary";
    const bool collect = needs_graph && !ctx.graph_ready();
    StageClock stage(report.stages, "stream");
    pass_sinks = stream_parallel(
        ctx.factors()[0], ctx.factors()[1], plan.options.threads,
        [&](std::uint64_t part,
            std::uint64_t nparts) -> std::unique_ptr<EdgeSink> {
          std::vector<std::unique_ptr<EdgeSink>> children;
          if (!plan.options.output.empty()) {
            const std::string name =
                nparts == 1 ? plan.options.output
                            : plan.options.output + ".part" +
                                  std::to_string(part);
            files.push_back(std::make_unique<std::ofstream>(
                name, binary ? std::ios::binary : std::ios::out));
            if (!*files.back()) {
              throw std::runtime_error("cannot open " + name);
            }
            if (binary) {
              children.push_back(
                  std::make_unique<BinaryEdgeSink>(*files.back()));
            } else {
              children.push_back(
                  std::make_unique<TextEdgeSink>(*files.back()));
            }
          }
          for (std::size_t i = 0; i < analyses.size(); ++i) {
            if (auto sink = analyses[i]->make_sink(ctx, part, nparts)) {
              analysis_sinks[i].push_back(sink.get());
              children.push_back(std::move(sink));
            }
          }
          if (collect) {
            auto col = std::make_unique<CooCollectorSink>();
            collectors.push_back(col.get());
            children.push_back(std::move(col));
          }
          return std::make_unique<TeeSink>(std::move(children));
        },
        plan.options.batch_size);
    esz total = 0;
    for (const auto& s : pass_sinks) total += s->edges_consumed();
    stage.span.arg("edges", total).arg("partitions", pass_sinks.size());
    stage.done(total);
    obs::counter("api.edges_streamed").add(total);
    report.streamed = true;
    report.partitions = static_cast<unsigned>(pass_sinks.size());
    report.stored_entries = total;

    if (collect) {
      // Per-partition merge in partition order: the concatenation is
      // exactly the single-threaded stream's edge multiset, so the
      // materialized graph is identical at every partition count.
      StageClock mstage(report.stages, "materialize");
      std::vector<std::pair<vid, vid>> edges;
      edges.reserve(total);
      for (CooCollectorSink* col : collectors) {
        edges.insert(edges.end(), col->edges().begin(), col->edges().end());
      }
      ctx.set_graph(Graph::from_edges(report.num_vertices, edges, false));
      mstage.done(total);
    }
  } else if ((needs_graph || write_materialized) && !ctx.graph_ready()) {
    StageClock stage(report.stages, "materialize");
    report.stored_entries = ctx.graph().nnz();  // forces the build
    stage.done(report.stored_entries);
  }

  if (write_materialized) {
    StageClock stage(report.stages, "write");
    if (plan.options.format == "binary") {
      // The validated format contract holds on the materialized path too:
      // raw native-endian u64 pairs, one record per stored entry.
      std::ofstream file(plan.options.output, std::ios::binary);
      if (!file) {
        throw std::runtime_error("cannot open " + plan.options.output);
      }
      BinaryEdgeSink sink(file);
      const auto& m = ctx.graph().matrix();
      std::vector<kron::EdgeRecord> batch;
      batch.reserve(kDefaultBatchSize);
      for (vid u = 0; u < m.rows(); ++u) {
        for (const vid v : m.row_cols(u)) {
          batch.push_back({u, v});
          if (batch.size() == kDefaultBatchSize) {
            sink.consume(batch);
            batch.clear();
          }
        }
      }
      if (!batch.empty()) sink.consume(batch);
      sink.finish();
    } else {
      io::write_edge_list(ctx.graph(), plan.options.output);
    }
    stage.done(ctx.graph().nnz());
  }

  for (std::size_t i = 0; i < analyses.size(); ++i) {
    obs::Span span("analyze:", analyses[i]->name());
    const obs::Stopwatch w;
    AnalysisReport ar = analyses[i]->execute(
        ctx, std::span<EdgeSink* const>(analysis_sinks[i].data(),
                                        analysis_sinks[i].size()));
    ar.name = analyses[i]->name();
    ar.wall_s = w.wall_s();
    span.arg("pass", ar.pass);
    obs::counter("api.analyses_run").add();
    report.pass = report.pass && ar.pass;
    report.analyses.push_back(std::move(ar));
  }

  report.metadata = util::run_metadata(plan.options.batch_size);
  report.total_wall_s = elapsed.wall_s();
  report.total_cpu_s = elapsed.cpu_s();
  report.peak_rss_bytes = util::peak_rss_bytes();
  report.counters = obs::CounterRegistry::delta(
      counters_start, obs::CounterRegistry::instance().snapshot());
  return report;
}

}  // namespace kronotri::api
