// perfbench workloads: inputs, set-up, references, timed phases, checks.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <stdexcept>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "api/registry.hpp"
#include "bench.hpp"
#include "kron/oracle.hpp"
#include "net/agent.hpp"
#include "net/remote.hpp"
#include "obs/trace.hpp"
#include "runner/runner.hpp"
#include "service/client.hpp"
#include "service/server.hpp"

namespace perfbench {

namespace {

using kronotri::Graph;
using kronotri::vid;
namespace net = kronotri::net;
namespace obs = kronotri::obs;
namespace runner = kronotri::runner;
namespace service = kronotri::service;

/// Set-up is repeated this many times per untraced run. Building one input
/// takes about a millisecond and now and then ten times that, when the
/// process is descheduled or faults its pages in; so setup_s sums the
/// per-piece medians over the repeats (each input, plus the registries and
/// the agent/server start), which such outliers do not move. The repeats
/// are spread over the timed phase, between plans, because the shared
/// machine's speed drifts by several percent over seconds: repeats taken
/// back to back sample one moment of it.
constexpr unsigned kSetupReps = 15;

/// service_mix runs its timed closed loop in this many slices, with set-up
/// repeats between them.
constexpr unsigned kMixSlices = 5;

/// service_mix: closed-loop clients and the hot-set share of submissions.
constexpr unsigned kClients = 4;
constexpr unsigned kHotPercent = 70;

/// References are computed after the timed phase on this many threads with
/// a 1-thread OpenMP team each.
constexpr unsigned kReferenceThreads = 4;

// Seed streams of derive_seed(): factor A, factor B, service misses and
// client draws, so every factor seed is independent of the others.
constexpr std::uint64_t kStreamA = 1;
constexpr std::uint64_t kStreamB = 2;
constexpr std::uint64_t kStreamFresh = 3;
constexpr std::uint64_t kStreamClient = 4;

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string plan_text(const std::string& workload, std::uint64_t a,
                      std::uint64_t b) {
  const std::string sa = std::to_string(a);
  if (workload == "census_truss") {
    return "kron:(hk:n=1000,m=5,p=0.8,seed=" + sa +
           ")x(clique:n=12) truss clustering egonet:vertex=0";
  }
  if (workload == "service_mix") {
    return "kron:(hk:n=4000,m=3,p=0.6,seed=" + sa +
           ")x(clique:n=3,loops=1) census degree validate:mem_budget=1M";
  }
  // validate_stream and distributed: the paper's Table VI protocol.
  return "kron:(hk:n=300,m=3,p=0.6,seed=" + sa +
         ")x(hk:n=300,m=3,p=0.6,seed=" + std::to_string(b) +
         ",loops=1) validate:mem_budget=1M";
}

/// runner::comparable() of a report, minus each analysis's human-readable
/// `text`: the truss analysis prints its own wall time there, so the text
/// differs between identical runs. Every `data` field is still compared.
std::string identity(const json::Value& report) {
  const json::Value c = runner::comparable(report);
  json::Value out = json::Value::object();
  for (const auto& [key, value] : c.members()) {
    if (key != "analyses") {
      out.set(key, value);
      continue;
    }
    json::Value analyses = json::Value::array();
    for (const json::Value& a : value.items()) {
      json::Value copy = json::Value::object();
      for (const auto& [k, v] : a.members()) {
        if (k != "text") copy.set(k, v);
      }
      analyses.push_back(std::move(copy));
    }
    out.set(key, std::move(analyses));
  }
  return out.dump_string(0);
}

/// Checks one report document against its input's closed forms: pass and
/// no error, the oracle's edge count, and every triangle total and
/// clustering coefficient the report carries.
bool check(const Input& in, const json::Value& report) {
  if (!report.get_bool("pass", false)) return false;
  if (!report.get_string("error", "").empty()) return false;
  if (report.get_uint("num_undirected_edges", 0) != in.edges) return false;
  if (const json::Value* analyses = report.find("analyses")) {
    for (const json::Value& a : analyses->items()) {
      const json::Value* data = a.find("data");
      if (data == nullptr || !data->is_object()) continue;
      for (const char* key : {"measured_total", "predicted_total"}) {
        const json::Value* t = data->find(key);
        if (t != nullptr && t->as_uint() != in.triangles) return false;
      }
      if (const json::Value* g = data->find("global_clustering")) {
        const double want = in.global_clustering;
        if (std::abs(g->as_double() - want) >
            1e-9 * std::max(1.0, std::abs(want))) {
          return false;
        }
      }
    }
  }
  return true;
}

/// Runs fn(0..n-1) on a few threads, each with a 1-thread OpenMP team.
void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  const unsigned team =
      std::max(1u, std::min(kReferenceThreads, std::thread::hardware_concurrency()));
  for (unsigned t = 0; t < team; ++t) {
    threads.emplace_back([&] {
#ifdef _OPENMP
      omp_set_num_threads(1);
#endif
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Fills every missing reference (api::run, untimed, in parallel) and
/// returns whether all of them pass check().
bool compute_references(std::vector<Input>& inputs) {
  std::vector<char> ok(inputs.size(), 0);
  parallel_for(inputs.size(), [&](std::size_t i) {
    Input& in = inputs[i];
    if (!in.reference.empty()) {
      ok[i] = 1;
      return;
    }
    const json::Value doc = api::run(in.plan).to_json();
    ok[i] = check(in, doc);
    in.reference = identity(doc);
  });
  return std::all_of(ok.begin(), ok.end(), [](char c) { return c != 0; });
}

/// The state a workload's timed phase runs against, built by set_up().
struct Env {
  double start_s = 0;  ///< registries + agent/server start
  std::vector<Input> inputs;
  std::unique_ptr<net::Agent> agent;
  std::unique_ptr<service::Server> server;
  std::string socket;
};

/// Everything before the first timed plan: registries, plan parse, factor
/// generation and the oracle of every input, plus the agent (distributed)
/// or the server (service_mix). Env::start_s and Input::setup_s time those
/// library calls; the benchmark's own derivation of check values stays off
/// the clock.
Env set_up(const Args& args, const Workload& w, unsigned rep) {
  Env env;
  double t0 = now_s();
  api::GeneratorRegistry::builtin();
  api::AnalysisRegistry::builtin();
  env.start_s = now_s() - t0;
  for (unsigned i = 0; i < w.inputs; ++i) {
    env.inputs.push_back(make_input(args.workload, args.seed, i));
  }
  t0 = now_s();
  if (args.workload == "distributed") env.agent = start_agent();
  if (args.workload == "service_mix") {
    env.socket = socket_path("mix" + std::to_string(rep));
    env.server = start_server(env.socket);
  }
  env.start_s += now_s() - t0;
  return env;
}

/// The set-up repeats of one run and their per-piece samples.
class SetupRepeats {
 public:
  SetupRepeats(const Args& args, const Workload& w)
      : args_(args), w_(w), pieces_(1 + w.inputs) {}

  /// The run's own environment: repeat 0.
  Env first() {
    Env env = set_up(args_, w_, reps_++);
    record(env);
    return env;
  }

  /// Called between timed plans with the elapsed share of the phase; runs
  /// the repeats that are due by then (all of them at share 1). Each
  /// repeat's agent/server stops before this returns.
  void due(double share) {
    if (args_.trace) return;  // traced runs report no setup_s
    const auto target = 1 + static_cast<unsigned>(std::ceil(
                                (kSetupReps - 1) * std::min(1.0, share)));
    for (; reps_ < target; ++reps_) record(set_up(args_, w_, reps_));
  }

  [[nodiscard]] double setup_s() const {
    double total = 0;
    for (const std::vector<double>& p : pieces_) total += median(p);
    return total;
  }

 private:
  void record(const Env& env) {
    pieces_[0].push_back(env.start_s);
    for (std::size_t i = 0; i < env.inputs.size(); ++i) {
      pieces_[1 + i].push_back(env.inputs[i].setup_s);
    }
  }

  const Args& args_;
  const Workload& w_;
  /// pieces_[0]: registries + agent/server; pieces_[1 + i]: input i.
  std::vector<std::vector<double>> pieces_;
  unsigned reps_ = 0;
};

// ---- plan-fixed workloads ---------------------------------------------------

struct PlanSample {
  std::size_t input = 0;
  double wall_s = 0;
  double cpu_s = 0;
  bool traced = false;
  /// Oracle checks passed; the reference comparison comes after the phase.
  bool checked = false;
  std::string identity;
  api::RunReport report;  ///< traced samples only
  TraceSummary trace;
};

/// A distributed plan must really have run on both kinds of slot, or the
/// workload silently measured something else.
bool used_both_slot_kinds(const api::RunReport& r) {
  bool local = false;
  bool remote = false;
  for (const api::WorkerEvent& e : r.worker_events) {
    if (e.outcome == "ok") (e.host.empty() ? local : remote) = true;
  }
  return local && remote;
}

/// Traced runs compute each reference just before the input's first use,
/// one at a time on the workload's own team: its api::run wall is the
/// runner.inproc_ratio base and its report feeds api.orchestration_s.
bool traced_reference(Input& in, std::vector<api::RunReport>& reports) {
  const double t0 = now_s();
  api::RunReport report = api::run(in.plan);
  in.reference_wall_s = now_s() - t0;
  const json::Value doc = report.to_json();
  in.reference = identity(doc);
  reports.push_back(std::move(report));
  return check(in, doc);
}

/// Cycles through the inputs, after one untimed warm-up plan, for
/// args.seconds and at least once through all of them. With args.trace
/// every plan runs twice back to back, untraced then traced, so
/// obs.trace_overhead compares equal work; a traced run stops after
/// args.seconds including its references, however few inputs that covers.
std::vector<PlanSample> run_plans(const Args& args, Env& env,
                                  SetupRepeats& setup,
                                  std::vector<api::RunReport>& references,
                                  bool& sound) {
  const bool distributed = args.workload == "distributed";
  runner::Options ropt;
  if (distributed) {
    ropt = runner::options_from(env.inputs.front().plan);
    ropt.workers = 2;
    ropt.worker_exe = worker_exe();
    ropt.agents = {env.agent->endpoint()};
  }
  const auto execute = [&](const api::RunPlan& plan) {
    return distributed ? runner::execute(plan, ropt) : api::run(plan);
  };
  obs::TraceRecorder& rec = obs::TraceRecorder::instance();
  std::vector<PlanSample> samples;
  const auto timed = [&](std::size_t idx, bool traced) {
    const Input& in = env.inputs[idx];
    PlanSample s;
    s.input = idx;
    s.traced = traced;
    if (traced) {
      rec.clear();
      rec.set_enabled(true);
    }
    const double c0 = process_cpu_s();
    const double t0 = now_s();
    try {
      api::RunReport report = execute(in.plan);
      s.wall_s = now_s() - t0;
      s.cpu_s = process_cpu_s() - c0;
      const json::Value doc = report.to_json();
      s.checked = check(in, doc) &&
                  (!distributed || used_both_slot_kinds(report));
      s.identity = identity(doc);
      if (traced) s.report = std::move(report);
    } catch (const std::exception&) {
      s.checked = false;
    }
    if (traced) {
      rec.set_enabled(false);
      s.trace = summarize_trace();
    }
    samples.push_back(std::move(s));
  };

  (void)execute(env.inputs.front().plan);  // warm-up, untimed
  const double start = now_s();
  for (std::size_t n = 0;; ++n) {
    const std::size_t idx = n % env.inputs.size();
    if (args.trace && env.inputs[idx].reference.empty()) {
      sound = traced_reference(env.inputs[idx], references) && sound;
    }
    timed(idx, false);
    if (args.trace) timed(idx, true);
    const double elapsed = now_s() - start;
    if ((args.trace || n + 1 >= env.inputs.size()) &&
        elapsed >= args.seconds) {
      break;
    }
    setup.due(elapsed / args.seconds);
  }
  setup.due(1);
  return samples;
}

/// Ratio-of-sums totals over the inputs, each input weighted once by its
/// mean over the phase, so an input visited twice does not count double.
struct PerInput {
  double wall_s = 0;  ///< Σ_i mean wall_i
  double cpu_s = 0;   ///< Σ_i mean cpu_i
  count_t edges = 0;  ///< Σ_i edges_i
  std::size_t plans = 0;
};

PerInput per_input(const std::vector<PlanSample>& samples,
                   const std::vector<Input>& inputs) {
  PerInput out;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    double wall = 0;
    double cpu = 0;
    std::size_t n = 0;
    for (const PlanSample& s : samples) {
      if (s.input != i || s.traced || !s.checked) continue;
      wall += s.wall_s;
      cpu += s.cpu_s;
      ++n;
    }
    if (n == 0) continue;
    out.wall_s += wall / static_cast<double>(n);
    out.cpu_s += cpu / static_cast<double>(n);
    out.edges += inputs[i].edges;
    ++out.plans;
  }
  return out;
}

Result run_plan_workload(const Args& args, Env& env, SetupRepeats& setup) {
  Result res;
  std::vector<api::RunReport> references;
  std::vector<PlanSample> samples =
      run_plans(args, env, setup, references, res.sound);
  const double peak_mib = peak_rss_mib();  // before the references run
  res.sound = compute_references(env.inputs) && res.sound;
  for (PlanSample& s : samples) {
    s.checked = s.checked && s.identity == env.inputs[s.input].reference;
    res.tally.record(s.checked);
  }
  if (!args.trace) {
    const PerInput agg = per_input(samples, env.inputs);
    const double wall = std::max(agg.wall_s, 1e-9);
    const double plans = std::max<double>(1, static_cast<double>(agg.plans));
    const double edges = std::max<double>(1, static_cast<double>(agg.edges));
    std::vector<double> walls;
    for (const PlanSample& s : samples) {
      if (s.checked) walls.push_back(s.wall_s);
    }
    res.add("setup_s", setup.setup_s(), "s");
    res.add("edges_per_s", edges / wall, "1/s");
    res.add("plans_per_s", plans / wall, "1/s");
    res.add("latency_p50_s", quantile(walls, 0.5), "s");
    res.add("latency_p90_s", quantile(walls, 0.9), "s");
    res.add("cpu_s_per_medge", agg.cpu_s / edges * 1e6, "s/Medge");
    res.add("cpu_s_per_plan", agg.cpu_s / plans, "s");
    res.add("peak_rss_mib", peak_mib, "MiB");
    return res;
  }

  LayerContext ctx{env.inputs, std::move(references)};
  double off = 0;
  double on = 0;
  std::vector<api::RunReport> traced_reports;
  std::vector<double> traced_walls;
  std::vector<TraceSummary> traces;
  double inproc = 0;
  for (PlanSample& s : samples) {
    if (!s.checked) continue;
    if (!s.traced) {
      off += s.wall_s;
      continue;
    }
    on += s.wall_s;
    traced_walls.push_back(s.wall_s);
    traces.push_back(s.trace);
    inproc += env.inputs[s.input].reference_wall_s;
    traced_reports.push_back(std::move(s.report));
  }
  ctx.trace_overhead = off > 0 ? on / off : 0;
  if (args.workload == "distributed") {
    add_runner_metrics(traced_reports, traced_walls, traces, inproc, res);
    ctx.have_runner = true;
  }
  probe_layers(ctx, res);
  return res;
}

// ---- service_mix -------------------------------------------------------------

/// One reply, reduced on the client thread after its round trip so the
/// driver does not hold parsed reports (which would inflate peak_rss_mib).
struct Reply {
  bool fresh = false;
  std::uint64_t index = 0;  ///< hot-set index, or fresh-stream index
  bool ok = false;          ///< verified (fresh: after the phase)
  double edges = 0;
  ServiceSample sample;
  std::string report;  ///< fresh replies: report text, verified later
};

struct MixPhase {
  std::vector<Reply> replies;
  double wall_s = 0;
  double cpu_s = 0;
};

/// kClients closed-loop clients: each sends its next plan only after the
/// previous reply arrived. kHotPercent of submissions name a hot-set plan
/// (cache hits); the rest are fresh plans that miss and execute. Fresh
/// plans are numbered from a shared counter, so every phase submits a
/// prefix of one seed-determined stream.
MixPhase drive_mix(const Args& args, const Env& env, double seconds,
                   std::atomic<std::uint64_t>& fresh_counter,
                   std::uint64_t phase_index) {
  std::vector<std::unique_ptr<service::Client>> clients;
  for (unsigned c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<service::Client>());
    clients.back()->connect(env.socket);
  }
  std::vector<std::vector<Reply>> per_client(kClients);
  std::atomic<bool> go{false};
  std::atomic<double> deadline{0};
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      std::uint64_t rng =
          derive_seed(args.seed, kStreamClient, phase_index * kClients + c);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      while (now_s() < deadline.load()) {
        Reply r;
        std::string text;
        if (splitmix64(rng) % 100 < kHotPercent) {
          r.index = splitmix64(rng) % env.inputs.size();
          text = env.inputs[r.index].text;
        } else {
          r.fresh = true;
          r.index = fresh_counter.fetch_add(1);
          text = plan_text(args.workload,
                           derive_seed(args.seed, kStreamFresh, r.index), 0);
        }
        const api::RunPlan plan = api::RunPlan::parse(text);
        const double t0 = now_s();
        json::Value doc;
        try {
          doc = clients[c]->submit(plan);
        } catch (const std::exception&) {
          doc = json::Value();
        }
        r.sample.rtt_s = now_s() - t0;
        const json::Value* report =
            doc.is_object() && doc.get_bool("ok", false) ? doc.find("report")
                                                         : nullptr;
        if (report != nullptr) {
          r.sample.hit = doc.get_string("cache", "") == "hit";
          r.sample.queue_wait_s = get_number(doc, "queue_wait_s");
          r.sample.execute_s = get_number(doc, "execute_s");
          r.edges = get_number(*report, "num_undirected_edges");
          if (r.fresh) {
            r.report = report->dump_string(0);
          } else {
            r.ok = verify(env.inputs[r.index], *report);
          }
        }
        per_client[c].push_back(std::move(r));
      }
    });
  }
  MixPhase phase;
  const double c0 = process_cpu_s();
  const double t0 = now_s();
  deadline.store(t0 + seconds);
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  phase.wall_s = now_s() - t0;
  phase.cpu_s = process_cpu_s() - c0;
  for (auto& v : per_client) {
    for (Reply& r : v) phase.replies.push_back(std::move(r));
  }
  return phase;
}

/// Verifies the fresh replies after the phase, once their oracle facts and
/// references exist; hot-set replies were verified on the client threads.
void verify_fresh(const Args& args, std::vector<Reply>& replies,
                  bool& sound) {
  std::map<std::uint64_t, std::size_t> slot;  // fresh index -> fresh[] slot
  for (const Reply& r : replies) {
    if (r.fresh) slot.emplace(r.index, slot.size());
  }
  std::vector<std::uint64_t> order(slot.size());
  for (const auto& [index, at] : slot) order[at] = index;
  std::vector<Input> fresh(order.size());
  parallel_for(order.size(), [&](std::size_t i) {
    fresh[i] = make_input(args.workload, args.seed, order[i], true);
  });
  sound = compute_references(fresh) && sound;
  for (Reply& r : replies) {
    if (r.fresh && !r.report.empty()) {
      r.ok = verify(fresh[slot.at(r.index)], json::Value::parse(r.report));
    }
  }
}

void add_mix_metrics(const MixPhase& phase, Result& res) {
  std::vector<double> rtts;
  double edges = 0;
  std::size_t verified = 0;
  for (const Reply& r : phase.replies) {
    // A failed or refused request misses every latency limit.
    rtts.push_back(r.ok ? r.sample.rtt_s : phase.wall_s);
    if (!r.ok) continue;
    ++verified;
    edges += r.edges;
  }
  const double n = std::max<double>(1, static_cast<double>(verified));
  res.add("edges_per_s", edges / phase.wall_s, "1/s");
  res.add("plans_per_s", static_cast<double>(verified) / phase.wall_s, "1/s");
  res.add("latency_p50_s", quantile(rtts, 0.5), "s");
  res.add("latency_p90_s", quantile(rtts, 0.9), "s");
  res.add("cpu_s_per_medge", phase.cpu_s / std::max(edges, 1.0) * 1e6,
          "s/Medge");
  res.add("cpu_s_per_plan", phase.cpu_s / n, "s");
}

Result run_service_mix(const Args& args, Env& env, SetupRepeats& setup) {
  Result res;
  std::vector<api::RunReport> references;
  if (args.trace) {
    for (Input& in : env.inputs) {
      res.sound = traced_reference(in, references) && res.sound;
    }
  }
  res.sound = compute_references(env.inputs) && res.sound;
  // The hot set executes once before the clock starts, so its timed
  // submissions are cache hits; these first replies are checked too.
  {
    service::Client warm;
    warm.connect(env.socket);
    for (const Input& in : env.inputs) {
      const json::Value reply = warm.submit(in.plan);
      const json::Value* report = reply.find("report");
      if (!reply.get_bool("ok", false) || report == nullptr ||
          !verify(in, *report)) {
        res.sound = false;
      }
    }
  }
  std::atomic<std::uint64_t> fresh_counter{0};
  const unsigned slices = args.trace ? 1 : kMixSlices;
  const double span = args.trace ? args.seconds / 2 : args.seconds;
  MixPhase phase;
  for (unsigned k = 0; k < slices; ++k) {
    MixPhase part = drive_mix(args, env, span / slices, fresh_counter, k);
    phase.wall_s += part.wall_s;
    phase.cpu_s += part.cpu_s;
    for (Reply& r : part.replies) phase.replies.push_back(std::move(r));
    setup.due(static_cast<double>(k + 1) / slices);
  }
  const double peak_mib = peak_rss_mib();  // before the references run
  verify_fresh(args, phase.replies, res.sound);
  for (const Reply& r : phase.replies) res.tally.record(r.ok);
  if (!args.trace) {
    res.add("setup_s", setup.setup_s(), "s");
    add_mix_metrics(phase, res);
    res.add("peak_rss_mib", peak_mib, "MiB");
    return res;
  }

  obs::TraceRecorder& rec = obs::TraceRecorder::instance();
  rec.clear();
  rec.set_enabled(true);
  MixPhase traced = drive_mix(args, env, span, fresh_counter, 1);
  rec.set_enabled(false);
  rec.clear();
  verify_fresh(args, traced.replies, res.sound);
  std::vector<ServiceSample> samples;
  for (const Reply& r : traced.replies) {
    res.tally.record(r.ok);
    if (r.ok) samples.push_back(r.sample);
  }
  service::Client stats_client;
  stats_client.connect(env.socket);
  add_service_metrics(samples, stats_client.stats(), res);

  LayerContext ctx{env.inputs, std::move(references)};
  // Throughput ratio of the same closed loop, untraced over traced.
  ctx.trace_overhead =
      (static_cast<double>(phase.replies.size()) / phase.wall_s) /
      (static_cast<double>(traced.replies.size()) / traced.wall_s);
  ctx.have_service = true;
  probe_layers(ctx, res);
  return res;
}

}  // namespace

// ---- helpers -----------------------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  double total = 0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    ::getrusage(who, &ru);
    total += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
             1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                        ru.ru_stime.tv_usec);
  }
  return total;
}

double peak_rss_mib() {
  long kib = 0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    ::getrusage(who, &ru);
    kib = std::max(kib, ru.ru_maxrss);
  }
  return static_cast<double>(kib) / 1024.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double get_number(const json::Value& v, std::string_view key,
                  double fallback) {
  const json::Value* x = v.is_object() ? v.find(key) : nullptr;
  return x != nullptr && x->is_number() ? x->as_double() : fallback;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  std::uint64_t x = seed * 0x100000001b3ULL ^ (stream << 48) ^ index;
  splitmix64(x);
  return 1 + splitmix64(x) % 0x7fffffffULL;
}

const char* worker_exe() { return PERFBENCH_WORKER_EXE; }

std::string socket_path(const std::string& tag) {
  return ".bench_build/tmp/perfbench-" + std::to_string(::getpid()) + "-" +
         tag + ".sock";
}

std::unique_ptr<net::Agent> start_agent() {
  net::AgentOptions opt;
  opt.slots = 2;
  opt.worker_exe = worker_exe();
  auto agent = std::make_unique<net::Agent>(opt);
  std::string err;
  if (!agent->start(&err)) throw std::runtime_error("agent start: " + err);
  net::AgentClient client;
  if (!client.connect(agent->endpoint(), &err)) {
    throw std::runtime_error("agent handshake: " + err);
  }
  const double deadline = now_s() + 5;
  std::vector<json::Value> msgs;
  while (now_s() < deadline) {
    if (client.pump(msgs) != net::AgentClient::Pump::kIdle) break;
    for (const json::Value& m : msgs) {
      if (m.get_string("type", "") == "welcome") return agent;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  throw std::runtime_error("agent handshake: no welcome");
}

std::unique_ptr<service::Server> start_server(const std::string& socket) {
  service::ServerOptions opt;
  opt.socket_path = socket;
  opt.workers = 2;
  auto server = std::make_unique<service::Server>(opt);
  server->start();
  service::Client client;
  client.connect(socket);
  json::Value ping = json::Value::object();
  ping.set("type", "ping");
  if (!client.request(ping).get_bool("pong", false)) {
    throw std::runtime_error("service: ping unanswered");
  }
  return server;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"validate_stream", 6},
      {"census_truss", 8},
      {"distributed", 6},
      {"service_mix", 8},
  };
  return all;
}

Input make_input(const std::string& workload, std::uint64_t seed,
                 std::uint64_t index, bool fresh) {
  Input in;
  in.text = plan_text(workload,
                      derive_seed(seed, fresh ? kStreamFresh : kStreamA, index),
                      derive_seed(seed, kStreamB, index));

  const double t0 = now_s();
  in.plan = api::RunPlan::parse(in.text);
  const api::GeneratorRegistry& reg = api::GeneratorRegistry::builtin();
  const Graph a = reg.build(in.plan.spec.factors.at(0));
  const Graph b = reg.build(in.plan.spec.factors.at(1));
  const kronotri::kron::TriangleOracle oracle(a, b);
  in.setup_s = now_s() - t0;

  if (workload != "service_mix") in.plan.options.threads = 2;
  in.edges = oracle.num_undirected_edges();
  in.triangles = oracle.total_triangles();
  double wedges = 0;
  for (vid p = 0; p < oracle.num_vertices(); ++p) {
    const auto d = static_cast<double>(oracle.degree(p));
    wedges += 0.5 * d * std::max(d - 1, 0.0);
  }
  in.global_clustering =
      wedges > 0 ? 3.0 * static_cast<double>(in.triangles) / wedges : 0.0;
  return in;
}

bool verify(const Input& in, const json::Value& report) {
  return check(in, report) && identity(report) == in.reference;
}

Result run_workload(const Args& args) {
  const auto& all = workloads();
  const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return args.workload == w.name;
  });
  if (it == all.end()) {
    throw std::invalid_argument("unknown workload " + args.workload);
  }

  SetupRepeats setup(args, *it);
  Env env = setup.first();
  return args.workload == "service_mix" ? run_service_mix(args, env, setup)
                                        : run_plan_workload(args, env, setup);
}

}  // namespace perfbench
