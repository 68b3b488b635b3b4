#include "cli/commands.hpp"

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <new>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "api/plan.hpp"
#include "api/registry.hpp"
#include "net/agent.hpp"
#include "net/socket.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "runner/proc.hpp"
#include "runner/runner.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "util/backoff.hpp"
#include "util/fault.hpp"
#include "util/journal.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/threads.hpp"

namespace kronotri::cli {

namespace {

/// True when `src` parses as a GraphSpec whose family is registered —
/// the test that routes graph arguments to the registry instead of a file.
bool is_registered_spec(const std::string& src) {
  try {
    return api::GeneratorRegistry::builtin().contains(
        api::GraphSpec::parse(src).family);
  } catch (const std::invalid_argument&) {
    return false;
  }
}

/// A graph argument as a GraphSpec: an existing file becomes a `file:` spec
/// (with the usual ingest options); anything that names a registered
/// generator spec (e.g. "hk:n=5000,seed=7") is used verbatim — the ingest
/// options do not apply to generated graphs.
api::GraphSpec graph_arg_spec(const std::string& src, bool symmetrize,
                              bool drop_loops) {
  if (!std::ifstream(src).good() && is_registered_spec(src)) {
    return api::GraphSpec::parse(src);
  }
  api::GraphSpec spec;
  spec.family = "file";
  spec.params["path"] = src;
  if (symmetrize) spec.params["symmetrize"] = "1";
  if (drop_loops) spec.params["drop_loops"] = "1";
  return spec;
}

/// The 2-factor product spec shared by census/validate/egonet: --a is
/// required; --b defaults to A itself; --loops-b adds the B = A + I
/// construction (the universal loops modifier on the B spec).
api::GraphSpec factors_spec(const util::Cli& flags) {
  api::GraphSpec a =
      graph_arg_spec(flags.get("a", ""), flags.has("symmetrize"), true);
  api::GraphSpec b =
      flags.has("b")
          ? graph_arg_spec(flags.get("b", ""), flags.has("symmetrize"), false)
          : a;
  if (flags.has("loops-b")) b.params["loops"] = "1";
  api::GraphSpec product;
  product.family = "kron";
  product.factors = {std::move(a), std::move(b)};
  return product;
}

/// Runs the plan through the job engine — the ONE execution path every
/// subcommand funnels into.
api::RunReport run_plan(const api::RunPlan& plan) { return api::run(plan); }

/// RAII for `--trace FILE`: flips the flight recorder on for the command's
/// lifetime and exports the stitched timeline on destruction — after
/// sampling the counter registry as 'C' events, so every exported trace
/// carries its counters alongside the spans. A command without --trace
/// constructs this with an empty path and it does nothing.
class TraceScope {
 public:
  TraceScope(const util::Cli& flags, std::string_view process_name,
             std::ostream& err)
      : path_(flags.get("trace", "")), err_(err) {
    if (path_.empty()) return;
    obs::TraceRecorder& rec = obs::TraceRecorder::instance();
    rec.clear();
    rec.set_enabled(true);
    rec.set_process_name(process_name);
  }
  ~TraceScope() {
    if (path_.empty()) return;
    obs::TraceRecorder& rec = obs::TraceRecorder::instance();
    const util::json::Value counters =
        obs::CounterRegistry::instance().snapshot();
    for (const auto& [name, value] : counters.members()) {
      // One track per histogram bucket ("<h>.b<i>") would bury the rest;
      // the histogram's .count and .max tracks stay.
      const std::size_t b = name.rfind(".b");
      if (b != std::string::npos && b + 2 < name.size() &&
          name.find_first_not_of("0123456789", b + 2) == std::string::npos) {
        continue;
      }
      rec.counter(name, value.as_double());
    }
    if (!rec.export_file(path_)) {
      err_ << "warning: cannot write trace file " << path_ << "\n";
    }
    rec.set_enabled(false);
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  std::string path_;
  std::ostream& err_;
};

}  // namespace

void usage(std::ostream& out) {
  out << "kronotri — Kronecker graph generation with exact triangle ground truth\n"
         "\n"
         "usage: kronotri <command> [flags]\n"
         "\n"
         "Graph arguments (--a, --b, --graph) accept a file path OR a\n"
         "generator spec like \"hk:n=5000,m=3,p=0.6,seed=7\" or\n"
         "\"kron:(hk:n=300)x(clique:n=3,loops=1)\" (see generate --list).\n"
         "Every command below executes through the api::run() job engine;\n"
         "`run` exposes it directly.\n"
         "\n"
         "Observability: `run`, `validate` and `serve` accept --trace FILE\n"
         "to record a Chrome trace-event timeline (stages, per-partition\n"
         "streams, validate shards, every worker attempt stitched under its\n"
         "own pid, counters) loadable at ui.perfetto.dev; KRONOTRI_LOG=\n"
         "debug|info|warn|error|off sets the structured-log level (default\n"
         "warn).\n"
         "\n"
         "commands:\n"
         "  run       --plan FILE|STRING [--json FILE] [--threads T]\n"
         "            [--batch N] [--out FILE] [--format text|binary]\n"
         "            [--workers N|auto] [--shard-timeout SECS]\n"
         "            [--max-retries R] [--agents HOST:PORT[,...]]\n"
         "            [--journal DIR [--resume]] [--trace FILE]\n"
         "            [--worker-mem-limit BYTES[K|M|G]|auto] [--list]\n"
         "            execute a declarative run plan (JSON document or the\n"
         "            shorthand \"SPEC analysis[:k=v,…] …\") in a single\n"
         "            stream pass where possible; prints the RunReport and\n"
         "            writes it as JSON with --json; --list prints every\n"
         "            registered analysis; exit 1 unless every analysis\n"
         "            passes. --workers N > 1 forks the plan over N worker\n"
         "            processes (validate analyses split by shard) with\n"
         "            per-unit retry+backoff, --shard-timeout SIGKILL\n"
         "            re-dispatch, and straggler re-execution; the merged\n"
         "            report is bit-identical to --workers 1 (modulo\n"
         "            timings/metadata), recovery recorded in\n"
         "            worker_events; KRONOTRI_FAULT=spec injects faults\n"
         "            (kill|exit|stall|truncate|oom|torn_write\n"
         "            [:shard=N][:attempt=N]…). --journal DIR write-ahead-\n"
         "            logs every unit transition and persists fragments as\n"
         "            CRC64 frames in DIR; after a crash, --resume reloads\n"
         "            only fragments whose checksum and journaled digest\n"
         "            verify and re-executes the rest — the merged report\n"
         "            is bit-identical to an uninterrupted run.\n"
         "            --worker-mem-limit installs an RLIMIT_AS guard in\n"
         "            each worker (auto = 8x the plan mem budget + 512M);\n"
         "            a worker that trips it is classified oom and retried.\n"
         "            --agents adds remote `kronotri agent` endpoints as\n"
         "            dispatch targets next to the local slots (--workers 0\n"
         "            runs purely remote; --workers auto = all cores); a\n"
         "            lost connection, garbled frame or missed heartbeat\n"
         "            re-dispatches the agent's in-flight units, and the\n"
         "            merged report stays bit-identical to a local run.\n"
         "            Each worker runs an OpenMP team of max(1, min(\n"
         "            OMP_NUM_THREADS or all cores, cores / local slots)),\n"
         "            recorded per attempt as worker_events omp_threads\n"
         "  agent     [--listen HOST:PORT] [--slots N|auto]\n"
         "            remote worker agent for `run --agents`: executes\n"
         "            dispatched run units in sandboxed local worker\n"
         "            processes (same RLIMIT_AS guard and fault-injection\n"
         "            surface as local workers) and streams back fragment\n"
         "            frames + trace buffers; default --listen\n"
         "            127.0.0.1:0 prints the resolved ephemeral port;\n"
         "            each worker's OpenMP team is cores / --slots, capped\n"
         "            by OMP_NUM_THREADS;\n"
         "            SIGINT/SIGTERM stops (children SIGKILLed)\n"
         "  serve     --socket PATH [--workers N] [--queue-depth D]\n"
         "            [--cache-bytes B[K|M|G]] [--mem-budget B[K|M|G]]\n"
         "            [--idle-timeout SECONDS] [--state DIR] [--trace FILE]\n"
         "            run as a long-lived analysis daemon on a unix socket\n"
         "            (newline-delimited JSON protocol): bounded job queue\n"
         "            over a worker pool, admission control (full queue and\n"
         "            over-budget plans are rejected with a reason, never\n"
         "            queued), and a deterministic LRU result cache that\n"
         "            replays repeated plans byte-for-byte; SIGINT/SIGTERM\n"
         "            (or --idle-timeout) drains gracefully — in-flight\n"
         "            jobs finish and their responses are delivered.\n"
         "            --state DIR journals every admitted submit and, on\n"
         "            restart, replays the ones that never finished (a\n"
         "            kill -9 loses no admitted work); a stale socket file\n"
         "            left by a dead server is probed and reclaimed, a\n"
         "            LIVE server on the socket refuses the second serve.\n"
         "            Each job runs an OpenMP team of cores / --workers,\n"
         "            capped by OMP_NUM_THREADS (stats config.omp_threads)\n"
         "  submit    --socket PATH --plan FILE|STRING [--json FILE]\n"
         "            [--connect-timeout SECS] [--request-timeout SECS]\n"
         "            [--retries R]\n"
         "            --socket PATH --stats\n"
         "            submit a run plan to a serving daemon and print the\n"
         "            response (the RunReport plus cache/latency metadata),\n"
         "            or fetch server stats; exit 0 only when the plan ran\n"
         "            (or replayed) and every analysis passed; connect\n"
         "            failures retry R times with backoff, and a hung\n"
         "            server surfaces as a --request-timeout error instead\n"
         "            of blocking forever\n"
         "  generate  --type FAMILY | --spec SPEC, --out FILE\n"
         "            [--n N] [--m M] [--p P] [--scale S] [--seed S]\n"
         "            [--loops] [--prune] [--stream] [--threads T]\n"
         "            [--format text|binary] [--list]\n"
         "            write a graph as an edge list via the generator\n"
         "            registry; --list prints every registered family;\n"
         "            --prune applies the §III.D(a) reduction to Δ ≤ 1;\n"
         "            --stream writes a 2-factor kron spec straight from\n"
         "            the partitioned edge stream (never materializing C),\n"
         "            fanning out over --threads partitions\n"
         "  census    --a FILE [--b FILE] [--loops-b] [--truth FILE] [--sample K]\n"
         "            exact V/E/triangle census of A, B and C = A ⊗ B;\n"
         "            --truth writes per-vertex counts of sampled product\n"
         "            vertices (all factor-A blocks if omitted --sample)\n"
         "  validate  --a FILE [--b FILE] [--loops-b] --claims FILE\n"
         "            diff claimed per-vertex triangle counts of C against\n"
         "            the oracle; exit 1 on any mismatch\n"
         "            --spec SPEC [--mem-budget BYTES[K|M|G]] [--shards N]\n"
         "            [--json FILE] [--trace FILE]\n"
         "            sharded streaming census of the product SPEC describes\n"
         "            (C is never materialized; shards sized to the budget),\n"
         "            checked per-vertex AND per-edge against the closed\n"
         "            forms; exit 1 unless every count matches\n"
         "  egonet    --a FILE [--b FILE] [--loops-b] --vertex P\n"
         "            materialize the egonet of product vertex P and check\n"
         "            it against the formulas (Fig. 7 protocol)\n"
         "  truss     --graph FILE  (direct decomposition)\n"
         "            --a FILE --b FILE (Thm 3 oracle; B must have Δ_B ≤ 1)\n";
}

namespace {

/// Builds the GraphSpec a `generate` invocation describes: --spec verbatim,
/// or legacy --type plus the classic parameter flags folded into params.
api::GraphSpec generate_spec(const util::Cli& flags) {
  if (flags.has("spec")) return api::GraphSpec::parse(flags.get("spec", ""));
  const std::string type = flags.get("type", "hk");
  if (type == "kron") {
    throw std::invalid_argument(
        "--type kron needs factor specs; use --spec "
        "\"kron:(spec)x(spec)\" instead");
  }
  if (!api::GeneratorRegistry::builtin().contains(type)) {
    throw std::invalid_argument("unknown --type " + type +
                                " (see generate --list)");
  }
  api::GraphSpec spec;
  spec.family = type;
  spec.params["n"] = std::to_string(flags.get_uint("n", 1000));
  spec.params["m"] = std::to_string(flags.get_uint("m", 3));
  spec.params["ef"] = spec.params["m"];  // rmat reads the edge factor as ef
  spec.params["p"] = flags.get("p", "0.5");
  spec.params["seed"] = std::to_string(flags.get_uint("seed", 1));
  spec.params["scale"] = std::to_string(flags.get_uint("scale", 10));
  for (const char* key : {"a", "b", "c", "d"}) {
    if (flags.has(key)) spec.params[key] = flags.get(key, "");
  }
  return spec;
}

}  // namespace

int cmd_generate(const util::Cli& flags, std::ostream& out, std::ostream& err) {
  const auto& registry = api::GeneratorRegistry::builtin();
  if (flags.has("list")) {
    util::Table t({"family", "parameters"});
    for (const auto& [name, help] : registry.families()) t.row({name, help});
    t.print(out);
    out << "universal modifier params: loops=1 (A + I), prune=1 (Δ ≤ 1)\n";
    return 0;
  }
  const std::string path = flags.get("out", "");
  if (path.empty()) {
    err << "generate: --out is required\n";
    return 2;
  }
  api::GraphSpec spec = generate_spec(flags);
  if (flags.has("prune")) {
    spec.params["prune"] = "1";
    if (!spec.has("seed")) spec.params["seed"] = std::to_string(
        flags.get_uint("seed", 1));
  }
  if (flags.has("loops")) spec.params["loops"] = "1";

  api::RunPlan plan;
  plan.options.output = path;
  plan.options.format = flags.get("format", "text");

  // Streaming path: a 2-factor kron spec goes straight from the partitioned
  // edge stream into a file sink — C is never materialized. Refusing the
  // other combinations (rather than quietly materializing) matters: the
  // whole point of --stream is products too large to materialize.
  if (flags.get_bool("stream", false)) {
    if (!spec.is_kron() || spec.factors.size() != 2 ||
        spec.get_bool("prune", false) || spec.get_bool("loops", false)) {
      err << "generate: --stream requires a 2-factor kron spec without "
             "loops/prune modifiers (got \""
          << spec.to_string() << "\"); drop --stream to materialize\n";
      return 2;
    }
    plan.spec = std::move(spec);
    plan.options.stream = true;
    // --threads 0 = hardware concurrency (the stream_parallel contract).
    plan.options.threads =
        static_cast<unsigned>(flags.get_uint("threads", 1));
    const api::RunReport report = run_plan(plan);
    out << "streamed " << path << (report.partitions > 1 ? ".part*" : "")
        << ": " << report.num_vertices << " vertices, "
        << report.stored_entries << " stored entries across "
        << report.partitions << " partition"
        << (report.partitions > 1 ? "s" : "") << "\n";
    return 0;
  }

  // Materialized path: the engine builds the graph, writes the edge list,
  // and the census analysis supplies the exact triangle count.
  plan.spec = std::move(spec);
  plan.analyses.push_back({"census", {}});
  const api::RunReport report = run_plan(plan);
  count_t triangles = 0;
  if (const auto* t = report.analyses.front().data.find("total_triangles")) {
    triangles = t->as_uint();
  }
  out << "wrote " << path << ": " << report.num_vertices << " vertices, "
      << report.num_undirected_edges << " edges, " << triangles
      << " triangles\n";
  return 0;
}

int cmd_census(const util::Cli& flags, std::ostream& out, std::ostream& err) {
  if (!flags.has("a")) {
    err << "census: --a is required\n";
    return 2;
  }
  api::RunPlan plan;
  plan.spec = factors_spec(flags);
  api::AnalysisRequest census{"census", {}};
  if (flags.has("truth")) {
    // The analysis streams the (sampled) ground-truth rows straight to the
    // file — constant memory even for product-sized dumps.
    census.params["truth_file"] = flags.get("truth", "");
    if (flags.has("sample")) {
      census.params["sample"] = flags.get("sample", "0");
    }
  }
  plan.analyses.push_back(std::move(census));
  const api::RunReport report = run_plan(plan);
  const api::AnalysisReport& ar = report.analyses.front();
  out << ar.text;
  out << "census time: " << ar.wall_s << " s\n";

  if (flags.has("truth")) {
    const auto* rows = ar.data.find("ground_truth_rows");
    out << "wrote " << (rows == nullptr ? 0 : rows->as_uint())
        << " ground-truth rows to " << flags.get("truth", "") << "\n";
  }
  return 0;
}

namespace {

/// The streaming half of `validate`: sharded census of the product a spec
/// describes, checked against the closed-form predictions, never
/// materializing C.
int validate_spec(const util::Cli& flags, std::ostream& out,
                  std::ostream& err) {
  const TraceScope trace(flags, "kronotri validate", err);
  api::RunPlan plan;
  plan.spec = api::GraphSpec::parse(flags.get("spec", ""));
  api::AnalysisRequest req{"validate", {}};
  if (flags.has("mem-budget")) {
    req.params["mem_budget"] = flags.get("mem-budget", "");
  }
  if (flags.has("shards")) req.params["shards"] = flags.get("shards", "0");
  plan.analyses.push_back(std::move(req));
  const api::RunReport report = run_plan(plan);
  const api::AnalysisReport& ar = report.analyses.front();
  out << ar.text;
  if (flags.has("json")) {
    std::ofstream json(flags.get("json", ""));
    if (!json) {
      err << "validate: cannot open --json file\n";
      return 2;
    }
    ar.data.dump(json);
    json << "\n";
  }
  return ar.pass ? 0 : 1;
}

}  // namespace

int cmd_validate(const util::Cli& flags, std::ostream& out, std::ostream& err) {
  if (flags.has("spec")) return validate_spec(flags, out, err);
  if (!flags.has("a") || !flags.has("claims")) {
    err << "validate: --spec, or --a and --claims, is required\n";
    return 2;
  }
  const TraceScope trace(flags, "kronotri validate", err);
  // Claims mode: read the claims first, then ask the census analysis for
  // ground truth at exactly the claimed vertices — claim-sized work, never
  // the full n_A·n_B vector. The diff itself is presentation only.
  std::ifstream in(flags.get("claims", ""));
  if (!in) {
    err << "validate: cannot open claims file\n";
    return 2;
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> claims;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::uint64_t p = 0, claimed = 0;
    if (!(ls >> p >> claimed)) {
      err << "validate: bad claims line: " << line << "\n";
      return 2;
    }
    claims.emplace_back(p, claimed);
  }

  std::string vertex_list;
  for (const auto& [p, claimed] : claims) {
    if (!vertex_list.empty()) vertex_list += ';';
    vertex_list += std::to_string(p);
  }
  api::RunPlan plan;
  plan.spec = factors_spec(flags);
  plan.analyses.push_back({"census", {{"vertices", vertex_list}}});
  const api::RunReport report = run_plan(plan);
  std::map<std::uint64_t, count_t> expected;
  if (const auto* truth =
          report.analyses.front().data.find("ground_truth")) {
    for (const auto& row : truth->items()) {
      expected[row.items()[0].as_uint()] = row.items()[1].as_uint();
    }
  }

  count_t checked = 0, wrong = 0;
  for (const auto& [p, claimed] : claims) {
    ++checked;
    const auto it = expected.find(p);
    if (it == expected.end()) {
      // A claim at a vertex the product does not have can never validate.
      ++wrong;
      if (wrong <= 10) {
        out << "MISMATCH at vertex " << p << ": claimed " << claimed
            << ", vertex out of range\n";
      }
      continue;
    }
    if (claimed != it->second) {
      ++wrong;
      if (wrong <= 10) {
        out << "MISMATCH at vertex " << p << ": claimed " << claimed
            << ", exact " << it->second << "\n";
      }
    }
  }
  out << checked << " claims checked, " << wrong << " wrong — "
      << (wrong == 0 ? "PASS" : "FAIL") << "\n";
  return wrong == 0 ? 0 : 1;
}

int cmd_egonet(const util::Cli& flags, std::ostream& out, std::ostream& err) {
  if (!flags.has("a") || !flags.has("vertex")) {
    err << "egonet: --a and --vertex are required\n";
    return 2;
  }
  api::RunPlan plan;
  plan.spec = factors_spec(flags);
  plan.analyses.push_back(
      {"egonet", {{"vertex", flags.get("vertex", "0")}}});
  try {
    const api::RunReport report = run_plan(plan);
    out << report.analyses.front().text;
    return report.pass ? 0 : 1;
  } catch (const std::out_of_range& e) {
    err << "egonet: " << e.what() << "\n";
    return 2;
  }
}

int cmd_truss(const util::Cli& flags, std::ostream& out, std::ostream& err) {
  api::RunPlan plan;
  if (flags.has("graph")) {
    plan.spec =
        graph_arg_spec(flags.get("graph", ""), flags.has("symmetrize"), true);
    plan.analyses.push_back({"truss", {}});
  } else if (flags.has("a") && flags.has("b")) {
    api::GraphSpec a =
        graph_arg_spec(flags.get("a", ""), flags.has("symmetrize"), true);
    api::GraphSpec b =
        graph_arg_spec(flags.get("b", ""), flags.has("symmetrize"), true);
    plan.spec.family = "kron";
    plan.spec.factors = {std::move(a), std::move(b)};
    plan.analyses.push_back({"truss", {{"oracle", "1"}}});
  } else {
    err << "truss: need --graph, or --a and --b\n";
    return 2;
  }
  const api::RunReport report = run_plan(plan);
  out << report.analyses.front().text;
  return report.pass ? 0 : 1;
}

int cmd_run(const util::Cli& flags, std::ostream& out, std::ostream& err) {
  if (flags.has("list")) {
    util::Table t({"analysis", "parameters"});
    for (const auto& [name, help] :
         api::AnalysisRegistry::builtin().families()) {
      t.row({name, help});
    }
    t.print(out);
    return 0;
  }
  const std::string arg = flags.get("plan", "");
  if (arg.empty()) {
    err << "run: --plan FILE|STRING is required (see `run --list` for "
           "analyses)\n";
    return 2;
  }
  // A readable file is parsed as its contents; anything else is parsed as
  // an inline plan (JSON document or shorthand).
  std::string text = arg;
  if (std::ifstream file(arg); file.good()) {
    std::stringstream buf;
    buf << file.rdbuf();
    text = buf.str();
  }
  api::RunPlan plan = api::RunPlan::parse(text);

  // Flags override the plan's execution options.
  if (flags.has("threads")) {
    plan.options.threads =
        static_cast<unsigned>(flags.get_uint("threads", plan.options.threads));
  }
  if (flags.has("batch")) {
    plan.options.batch_size =
        flags.get_uint("batch", plan.options.batch_size);
  }
  if (flags.has("out")) plan.options.output = flags.get("out", "");
  if (flags.has("format")) {
    plan.options.format = flags.get("format", plan.options.format);
  }
  if (flags.has("workers")) {
    // "auto" resolves to the machine's hardware concurrency — the same
    // resolution `agent --slots auto` uses; the resolved value is
    // stamped into the report's metadata as runner_workers.
    const std::string w = flags.get("workers", "");
    plan.options.workers =
        w == "auto" ? net::parse_slots(w)
                    : static_cast<unsigned>(
                          flags.get_uint("workers", plan.options.workers));
  }
  if (flags.has("shard-timeout")) {
    plan.options.shard_timeout_s =
        flags.get_double("shard-timeout", plan.options.shard_timeout_s);
  }
  if (flags.has("max-retries")) {
    plan.options.max_retries = static_cast<unsigned>(
        flags.get_uint("max-retries", plan.options.max_retries));
  }
  if (flags.has("fault")) plan.options.fault = flags.get("fault", "");

  runner::Options ropt = runner::options_from(plan);
  if (flags.has("agents")) {
    // Comma-separated remote agent endpoints; each advertised slot is one
    // more dispatch target next to the local --workers slots (--workers 0
    // runs purely remote).
    std::stringstream list(flags.get("agents", ""));
    std::string ep;
    while (std::getline(list, ep, ',')) {
      if (!ep.empty()) ropt.agents.push_back(ep);
    }
    if (ropt.agents.empty()) {
      err << "run: --agents requires HOST:PORT[,HOST:PORT...]\n";
      return 2;
    }
  }
  ropt.journal_dir = flags.get("journal", "");
  ropt.resume = flags.has("resume");
  if (ropt.resume && ropt.journal_dir.empty()) {
    err << "run: --resume requires --journal DIR\n";
    return 2;
  }
  if (flags.has("worker-mem-limit")) {
    const std::string v = flags.get("worker-mem-limit", "");
    // "auto" derives the RLIMIT_AS guard from the plan's mem budget plus
    // headroom for the runtime itself; anything else is an explicit byte
    // count (K/M/G suffixes accepted).
    ropt.worker_mem_limit_bytes =
        v == "auto" ? plan.options.mem_budget_bytes * 8 + (512ull << 20)
                    : util::parse_byte_count(v);
  }

  const TraceScope trace(flags, "kronotri run", err);

  // workers > 1 — or any durable run — routes through the fault-tolerant
  // multi-process runner; runner::execute itself degrades back to
  // api::run when it must.
  const bool use_runner = plan.options.workers > 1 ||
                          !ropt.journal_dir.empty() || !ropt.agents.empty();
  const api::RunReport report =
      use_runner ? runner::execute(plan, ropt) : run_plan(plan);
  report.print(out);
  if (flags.has("json")) {
    std::ofstream json(flags.get("json", ""));
    if (!json) {
      err << "run: cannot open --json file\n";
      return 2;
    }
    report.to_json().dump(json);
    json << "\n";
  }
  return report.pass ? 0 : 1;
}

int cmd_worker(const util::Cli& flags, std::ostream&, std::ostream& err) {
  const std::string plan_file = flags.get("plan-file", "");
  const std::string out_path = flags.get("out", "");
  if (plan_file.empty() || out_path.empty()) {
    err << "__worker: --plan-file and --out are required\n";
    return 2;
  }
  const auto unit = flags.get_uint("unit", 0);
  const auto attempt = flags.get_uint("attempt", 0);
  // Trace context arrives through the hidden argv: the coordinator hands
  // each attempt a scratch path; the worker records on the shared
  // CLOCK_MONOTONIC axis and dumps its buffer there for stitching. A
  // worker that dies mid-run just leaves no file — the coordinator
  // tolerates that.
  const std::string trace_out = flags.get("trace-out", "");
  if (!trace_out.empty()) {
    obs::TraceRecorder& rec = obs::TraceRecorder::instance();
    rec.set_enabled(true);
    rec.set_process_name("kronotri worker unit " + std::to_string(unit));
  }
  try {
    // Resource guard: the coordinator hands down an RLIMIT_AS ceiling, so
    // a worker whose allocations run away dies HERE — std::bad_alloc
    // caught below and converted to the dedicated oom exit code — instead
    // of dragging the whole box into swap.
    if (const auto limit = flags.get_uint("mem-limit", 0); limit > 0) {
      struct rlimit rl {};
      rl.rlim_cur = static_cast<rlim_t>(limit);
      rl.rlim_max = static_cast<rlim_t>(limit);
      (void)::setrlimit(RLIMIT_AS, &rl);
    }

    std::ifstream in(plan_file);
    if (!in) {
      err << "__worker: cannot read " << plan_file << "\n";
      return 2;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const api::RunPlan plan = api::RunPlan::parse(buf.str());
    // The spawning host's thread budget: this worker's share of the cores,
    // not a full team per concurrent worker.
    if (const auto team = flags.get_uint("omp-threads", 0); team > 0) {
      util::set_omp_threads(static_cast<unsigned>(team));
    }

    // Injected faults fire at exact (unit, attempt) coordinates, before
    // or after the real work, so every coordinator recovery path is
    // reachable from a spec string alone.
    const util::fault::Injector inj =
        flags.has("fault") ? util::fault::Injector(flags.get("fault", ""))
                           : util::fault::Injector::from_env();
    if (inj.match("kill", unit, attempt) != nullptr) {
      ::raise(SIGKILL);
    }
    if (const auto* a = inj.match("exit", unit, attempt)) {
      std::_Exit(a->code);
    }
    if (const auto* a = inj.match("stall", unit, attempt)) {
      util::Backoff::sleep_s(a->secs);
    }
    if (inj.match("oom", unit, attempt) != nullptr) {
      // Exercises the exact guard path a real RLIMIT_AS trip takes.
      throw std::bad_alloc();
    }

    api::RunReport report;
    {
      obs::Span span("worker:run");
      span.arg("unit", unit).arg("attempt", attempt);
      report = api::run(plan);
    }
    std::string frame =
        util::journal::encode_frame(report.to_json().dump_string(0));
    if (inj.match("truncate", unit, attempt) != nullptr) {
      frame.resize(frame.size() / 2);
    }
    std::ofstream out_file(out_path, std::ios::binary | std::ios::trunc);
    out_file << frame;
    out_file.flush();
    if (!out_file) {
      err << "__worker: cannot write " << out_path << "\n";
      return 4;
    }
    if (!trace_out.empty()) {
      obs::TraceRecorder::instance().export_file(trace_out);
    }
    return 0;
  } catch (const std::bad_alloc&) {
    // The RLIMIT_AS guard (or the oom fault) tripped. A dedicated exit
    // code keeps "ran out of memory" distinguishable from every other
    // nonzero exit in the coordinator's worker_events.
    std::_Exit(runner::kOomExitCode);
  } catch (const std::exception& e) {
    err << "__worker: " << e.what() << "\n";
    return 3;
  }
}

namespace {

// Written by the SIGINT/SIGTERM handler, polled by cmd_serve's wait loop.
// sig_atomic_t + no locks: the handler does nothing else.
volatile std::sig_atomic_t g_serve_stop = 0;
void serve_signal_handler(int) { g_serve_stop = 1; }

}  // namespace

int cmd_serve(const util::Cli& flags, std::ostream& out, std::ostream& err) {
  const std::string socket_path = flags.get("socket", "");
  if (socket_path.empty()) {
    err << "serve: --socket PATH is required\n";
    return 2;
  }
  service::ServerOptions opt;
  opt.socket_path = socket_path;
  opt.state_dir = flags.get("state", "");
  opt.workers = static_cast<unsigned>(flags.get_uint("workers", opt.workers));
  opt.queue_depth = static_cast<std::size_t>(
      flags.get_uint("queue-depth", opt.queue_depth));
  if (flags.has("cache-bytes")) {
    opt.cache_bytes = util::parse_byte_count(flags.get("cache-bytes", "64M"));
  }
  if (flags.has("mem-budget")) {
    opt.mem_budget_bytes =
        util::parse_byte_count(flags.get("mem-budget", "1G"));
  }
  const double idle_timeout_s = flags.get_double("idle-timeout", 0);

  const TraceScope trace(flags, "kronotri serve", err);
  service::Server server(opt);
  server.start();
  out << "kronotri: serving on " << socket_path << " (workers=" << opt.workers
      << " queue-depth=" << opt.queue_depth
      << " cache-bytes=" << opt.cache_bytes
      << " mem-budget=" << opt.mem_budget_bytes
      << " omp-threads=" << server.omp_threads() << ")" << std::endl;

  g_serve_stop = 0;
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  std::string reason = "signal";
  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (idle_timeout_s > 0 && server.seconds_idle() >= idle_timeout_s) {
      reason = "idle-timeout";
      break;
    }
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  out << "kronotri: " << reason << ", draining" << std::endl;
  server.stop();  // graceful: in-flight jobs complete, responses delivered
  out << "kronotri: drained; final stats:\n";
  server.stats_json().dump(out);
  out << "\n";
  return 0;
}

int cmd_agent(const util::Cli& flags, std::ostream& out, std::ostream& err) {
  net::AgentOptions opt;
  try {
    const net::Endpoint ep = net::parse_endpoint(flags.get("listen", "127.0.0.1:0"));
    if (ep.kind != net::Endpoint::Kind::kTcp) {
      err << "agent: --listen takes HOST:PORT (PORT 0 = ephemeral)\n";
      return 2;
    }
    opt.host = ep.host;
    opt.port = ep.port;
    opt.slots = net::parse_slots(flags.get("slots", "auto"));
  } catch (const std::invalid_argument& e) {
    err << "agent: " << e.what() << "\n";
    return 2;
  }

  net::Agent agent(opt);
  std::string error;
  if (!agent.start(&error)) {
    err << "agent: " << error << "\n";
    return 1;
  }
  // The resolved endpoint goes to stdout first thing so scripts starting
  // an ephemeral-port agent can scrape the port.
  out << "agent listening on " << agent.endpoint()
      << " (slots=" << agent.slots()
      << " omp-threads=" << agent.omp_threads()
      << " omp-wait=" << runner::proc::worker_omp_wait(environ) << ")"
      << std::endl;

  g_serve_stop = 0;
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  out << "agent: signal, stopping" << std::endl;
  agent.stop();  // disconnects coordinators, SIGKILLs their children
  return 0;
}

int cmd_submit(const util::Cli& flags, std::ostream& out, std::ostream& err) {
  const std::string socket_path = flags.get("socket", "");
  if (socket_path.empty()) {
    err << "submit: --socket PATH is required\n";
    return 2;
  }
  service::ClientOptions copt;
  copt.connect_timeout_s =
      flags.get_double("connect-timeout", copt.connect_timeout_s);
  copt.request_timeout_s =
      flags.get_double("request-timeout", copt.request_timeout_s);
  // --retries R = R extra connect attempts after the first.
  copt.connect_attempts = static_cast<unsigned>(
      flags.get_uint("retries", copt.connect_attempts - 1) + 1);
  service::Client client(copt);
  client.connect(socket_path);

  if (flags.has("stats")) {
    const util::json::Value response = client.stats();
    response.dump(out);
    out << "\n";
    return response.get_bool("ok", false) ? 0 : 1;
  }

  const std::string arg = flags.get("plan", "");
  if (arg.empty()) {
    err << "submit: --plan FILE|STRING is required (or --stats)\n";
    return 2;
  }
  // Same convention as `run`: a readable file is submitted as its contents,
  // anything else as an inline plan (JSON document or shorthand). Parsing
  // happens server-side.
  std::string text = arg;
  if (std::ifstream file(arg); file.good()) {
    std::stringstream buf;
    buf << file.rdbuf();
    text = buf.str();
  }
  const util::json::Value response = client.submit_text(text);
  response.dump(out);
  out << "\n";
  if (flags.has("json")) {
    std::ofstream json(flags.get("json", ""));
    if (!json) {
      err << "submit: cannot open --json file\n";
      return 2;
    }
    response.dump(json);
    json << "\n";
  }
  if (!response.get_bool("ok", false)) return 1;
  const util::json::Value* report = response.find("report");
  return (report != nullptr && report->get_bool("pass", false)) ? 0 : 1;
}

int run(int argc, char** argv, std::ostream& out, std::ostream& err) {
  if (argc < 2) {
    usage(err);
    return 2;
  }
  const std::string command = argv[1];
  const util::Cli flags(argc - 1, argv + 1);
  try {
    if (command == "run") return cmd_run(flags, out, err);
    if (command == "serve") return cmd_serve(flags, out, err);
    if (command == "agent") return cmd_agent(flags, out, err);
    if (command == "submit") return cmd_submit(flags, out, err);
    if (command == "generate") return cmd_generate(flags, out, err);
    if (command == "census") return cmd_census(flags, out, err);
    if (command == "validate") return cmd_validate(flags, out, err);
    if (command == "egonet") return cmd_egonet(flags, out, err);
    if (command == "truss") return cmd_truss(flags, out, err);
    if (command == "__worker") return cmd_worker(flags, out, err);
    if (command == "help" || command == "--help") {
      usage(out);
      return 0;
    }
  } catch (const std::exception& e) {
    err << command << ": " << e.what() << "\n";
    return 1;
  }
  err << "unknown command: " << command << "\n";
  usage(err);
  return 2;
}

}  // namespace kronotri::cli
