// Service failure paths and guarantees, driven through service::Client
// against an in-process Server: admission rejections (full queue,
// over-budget), malformed input, client disconnect mid-job, graceful
// drain, byte-identical cache replay, and concurrent-client survival.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "api/analysis.hpp"
#include "api/plan.hpp"
#include "api/registry.hpp"
#include "service/admission.hpp"
#include "service/cache.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/journal.hpp"
#include "util/json.hpp"
#include "util/threads.hpp"

namespace {

using namespace kronotri;
using util::json::Value;

/// Short, unique AF_UNIX path (sun_path is ~108 bytes; TempDir can be long).
std::string test_socket(const std::string& tag) {
  return "/tmp/kronotri_t" + std::to_string(::getpid()) + "_" + tag + ".sock";
}

/// Test-only analysis: sleeps `ms`, then passes. `tag` only differentiates
/// cache keys. Registered into the builtin registry — which the registry
/// thread-safety contract explicitly allows while a server is running.
class SleepAnalysis final : public api::Analysis {
 public:
  explicit SleepAnalysis(std::uint64_t ms) : ms_(ms) {}
  api::AnalysisReport execute(api::PlanContext&,
                              std::span<api::EdgeSink* const>) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms_));
    api::AnalysisReport r = report();
    r.text = "slept " + std::to_string(ms_) + "ms\n";
    r.data = Value::object();
    r.data.set("slept_ms", ms_);
    return r;
  }

 private:
  std::uint64_t ms_;
};

const bool g_sleep_registered = [] {
  api::AnalysisRegistry::builtin().add(
      "test-sleep", "ms=N [tag=S] — test-only: sleep then pass",
      [](const api::Params& p) {
        p.require_known({"ms", "tag"});
        return std::make_unique<SleepAnalysis>(p.get_uint("ms", 100));
      });
  return true;
}();

service::ServerOptions small_options(const std::string& tag) {
  service::ServerOptions opt;
  opt.socket_path = test_socket(tag);
  opt.workers = 2;
  opt.queue_depth = 8;
  return opt;
}

Value stats_of(const Value& response) {
  const Value* s = response.find("stats");
  EXPECT_NE(s, nullptr);
  return s == nullptr ? Value::object() : *s;
}

/// Polls `pred` on a fresh stats snapshot until true or ~5s elapse.
template <typename Pred>
bool wait_for_stats(const std::string& socket, Pred pred) {
  service::Client c;
  c.connect(socket);
  for (int i = 0; i < 500; ++i) {
    if (pred(stats_of(c.stats()))) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

/// Writes raw bytes on a fresh connection and returns the first response
/// line — for malformed-frame tests below the Client abstraction.
std::string raw_request(const std::string& socket, const std::string& bytes) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket.c_str(), sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0)
      << std::strerror(errno);
  EXPECT_TRUE(service::write_all(fd, bytes));
  std::string line;
  char ch = 0;
  while (::read(fd, &ch, 1) == 1 && ch != '\n') line.push_back(ch);
  ::close(fd);
  return line;
}

std::string error_code(const Value& response) {
  const Value* err = response.find("error");
  if (err == nullptr) return "";
  return err->get_string("code", "");
}

TEST(Service, PingStatsAndConfigShape) {
  service::Server server(small_options("ping"));
  server.start();
  service::Client c;
  c.connect(server.options().socket_path);

  Value ping = Value::object();
  ping.set("type", "ping");
  const Value pong = c.request(ping);
  EXPECT_TRUE(pong.get_bool("ok", false));
  EXPECT_TRUE(pong.get_bool("pong", false));

  const Value response = c.stats();
  ASSERT_TRUE(response.get_bool("ok", false));
  const Value& s = stats_of(response);
  EXPECT_NE(s.find("uptime_s"), nullptr);
  EXPECT_NE(s.find("latency"), nullptr);
  EXPECT_NE(s.find("cache"), nullptr);
  EXPECT_NE(s.find("cache_store"), nullptr);
  ASSERT_NE(s.find("config"), nullptr);
  EXPECT_EQ(s.find("config")->get_uint("workers", 0), 2u);
  EXPECT_EQ(s.find("config")->get_uint("queue_depth", 0), 8u);
}

TEST(Service, ServersInSequenceEachCountFromZero) {
  // The service counts in the process-wide obs registry; each server's
  // stats are the delta since it was constructed, so a second server in
  // the same process does not inherit the first one's counts.
  for (const char* tag : {"seq1", "seq2"}) {
    SCOPED_TRACE(tag);
    service::Server server(small_options(tag));
    server.start();
    service::Client c;
    c.connect(server.options().socket_path);
    EXPECT_TRUE(c.submit_text("hk:n=60,seed=4 census").get_bool("ok", false));
    const Value& s = stats_of(c.stats());
    EXPECT_EQ(s.get_uint("jobs_completed", 0), 1u);
    EXPECT_EQ(s.get_uint("jobs_accepted", 0), 1u);
    EXPECT_EQ(s.get_uint("connections_opened", 0), 1u);
    EXPECT_EQ(s.find("cache")->get_uint("misses", 0), 1u);
    EXPECT_EQ(s.find("latency")->find("execute")->get_uint("count", 0), 1u);
  }
}

TEST(Service, StatsFieldsAreTheRegistryCounters) {
  // Each service event bumps exactly one `service.*` registry entry, and
  // the stats fields are read back from those entries.
  service::Server server(small_options("onecount"));
  server.start();
  service::Client c;
  c.connect(server.options().socket_path);
  const std::string plan = "hk:n=60,seed=6 census";
  EXPECT_EQ(c.submit_text(plan).get_string("cache", ""), "miss");
  EXPECT_EQ(c.submit_text(plan).get_string("cache", ""), "hit");
  Value bogus = Value::object();
  bogus.set("type", "bogus");
  EXPECT_EQ(error_code(c.request(bogus)), "bad_request");

  const Value& s = stats_of(c.stats());
  const Value* counters = s.find("counters");
  ASSERT_NE(counters, nullptr);
  const auto registry = [&](const std::string& name) {
    return counters->get_uint("service." + name, 0);
  };
  for (const char* field : {"connections_opened", "client_disconnects",
                            "jobs_accepted", "jobs_completed", "jobs_failed",
                            "jobs_replayed"}) {
    EXPECT_EQ(s.get_uint(field, 99), registry(field)) << field;
  }
  for (const auto& [reason, v] : s.find("rejected")->members()) {
    EXPECT_EQ(v.as_uint(), registry("rejected." + reason)) << reason;
  }
  EXPECT_EQ(s.find("cache")->get_uint("hits", 99), registry("cache_hits"));
  EXPECT_EQ(s.find("cache")->get_uint("misses", 99), registry("cache_misses"));
  for (const char* phase : {"wait", "execute", "total"}) {
    EXPECT_EQ(s.find("latency")->find(phase)->get_uint("count", 99),
              registry(std::string("latency.") + phase + ".count"))
        << phase;
  }
  // And each of the events above counted once.
  EXPECT_EQ(s.get_uint("connections_opened", 0), 1u);
  EXPECT_EQ(s.get_uint("jobs_completed", 0), 1u);
  EXPECT_EQ(s.find("cache")->get_uint("hits", 0), 1u);
  EXPECT_EQ(s.find("cache")->get_uint("misses", 0), 1u);
  EXPECT_EQ(s.find("rejected")->get_uint("bad_request", 0), 1u);
  EXPECT_EQ(registry("requests"), 2u);
  const Value* total = s.find("latency")->find("total");
  EXPECT_EQ(total->get_uint("count", 0), 2u);
  EXPECT_LE(total->find("p50_s")->as_double(),
            total->find("max_s")->as_double());
  EXPECT_GT(total->find("max_s")->as_double(), 0.0);
}

TEST(Service, SubmitExecutesPlanAndFillsReportFields) {
  service::Server server(small_options("submit"));
  server.start();
  service::Client c;
  c.connect(server.options().socket_path);

  const Value response = c.submit(
      api::RunPlan::parse("kron:(hk:n=80,seed=3)x(clique:n=3,loops=1) "
                          "census degree"));
  ASSERT_TRUE(response.get_bool("ok", false));
  EXPECT_EQ(response.get_string("cache", ""), "miss");
  EXPECT_EQ(response.get_string("plan_hash", "").size(), 16u);  // hex u64
  const Value* report = response.find("report");
  ASSERT_NE(report, nullptr);
  EXPECT_TRUE(report->get_bool("pass", false));
  // Satellite: api::run now reports the getrusage high-water mark, and the
  // service fills in the queueing delay.
  EXPECT_GT(report->get_uint("peak_rss_bytes", 0), 0u);
  ASSERT_NE(report->find("queue_wait_s"), nullptr);
  EXPECT_GE(report->find("queue_wait_s")->as_double(), 0.0);
}

TEST(Service, JobWorkersRunAtTheirThreadBudget) {
  // Each job worker thread sets its own OpenMP team to the host budget for
  // `workers` concurrent jobs, capped by the ceiling of the thread that
  // started the server; nothing process-wide changes.
  const unsigned ceiling_before = util::omp_max_threads();
  const auto job_team = [](const std::string& tag, unsigned ceiling) {
    service::Server server(small_options(tag));
    std::thread([&] {
      if (ceiling != 0) util::set_omp_threads(ceiling);
      server.start();
    }).join();
    service::Client c;
    c.connect(server.options().socket_path);
    const Value config = *stats_of(c.stats()).find("config");
    EXPECT_EQ(config.get_uint("omp_threads", 0), server.omp_threads());
    const Value response = c.submit(
        api::RunPlan::parse("kron:(hk:n=80,seed=5)x(clique:n=3) census"));
    EXPECT_TRUE(response.get_bool("ok", false));
    const Value* report = response.find("report");
    const Value* meta = report == nullptr ? nullptr : report->find("metadata");
    EXPECT_NE(meta, nullptr);
    const std::uint64_t seen =
        meta == nullptr ? 0 : meta->get_uint("omp_max_threads", 0);
    EXPECT_EQ(seen, server.omp_threads());
    return server.omp_threads();
  };
  EXPECT_EQ(job_team("budget", 0), util::omp_budget(2));
  EXPECT_EQ(job_team("budget1", 1), 1u);  // OMP_NUM_THREADS=1 stays 1
  EXPECT_EQ(util::omp_max_threads(), ceiling_before);
}

TEST(Service, CacheHitReplaysByteIdentical) {
  service::Server server(small_options("cache"));
  server.start();
  service::Client c;
  c.connect(server.options().socket_path);

  const std::string plan =
      "kron:(hk:n=90,seed=7)x(clique:n=3,loops=1) census validate";
  const Value first = c.submit_text(plan);
  const Value second = c.submit_text(plan);
  ASSERT_TRUE(first.get_bool("ok", false));
  ASSERT_TRUE(second.get_bool("ok", false));
  EXPECT_EQ(first.get_string("cache", ""), "miss");
  EXPECT_EQ(second.get_string("cache", ""), "hit");
  EXPECT_EQ(first.get_string("plan_hash", "a"),
            second.get_string("plan_hash", "b"));
  // The byte-level guarantee: the replayed report serializes to exactly the
  // bytes of the first execution's report.
  EXPECT_EQ(first.find("report")->dump_string(0),
            second.find("report")->dump_string(0));

  // Execution-shape options are not part of the result identity: the same
  // plan at a different thread count must hit the same entry (results are
  // bit-identical across threads by the repo's determinism contract).
  api::RunPlan threaded = api::RunPlan::parse(plan);
  threaded.options.threads = 4;
  const Value third = c.submit(threaded);
  ASSERT_TRUE(third.get_bool("ok", false));
  EXPECT_EQ(third.get_string("cache", ""), "hit");
}

TEST(Service, JobReportsCarryNoServiceCounters) {
  // A report's counters are api::run's delta of the process-wide registry.
  // What the server counted while the job ran (cache hits on other
  // connections, latency maxima) is the server's, and must not be cached
  // and replayed with the job.
  service::Server server(small_options("jobcounters"));
  server.start();
  const std::string socket = server.options().socket_path;
  const std::string hot = "hk:n=60,seed=8 census";
  {
    service::Client c;
    c.connect(socket);
    ASSERT_TRUE(c.submit_text(hot).get_bool("ok", false));
  }
  std::atomic<bool> done{false};
  std::thread hits([&] {
    service::Client c;
    c.connect(socket);
    while (!done.load()) (void)c.submit_text(hot);
  });
  const std::string fresh_plan =
      "kron:(hk:n=80,seed=9)x(clique:n=3) census test-sleep:ms=100,tag=own";
  service::Client c;
  c.connect(socket);
  const Value fresh = c.submit_text(fresh_plan);
  done = true;
  hits.join();
  const Value replay = c.submit_text(fresh_plan);
  ASSERT_TRUE(fresh.get_bool("ok", false));
  EXPECT_EQ(fresh.get_string("cache", ""), "miss");
  EXPECT_EQ(replay.get_string("cache", ""), "hit");
  EXPECT_GT(stats_of(c.stats()).find("cache")->get_uint("hits", 0), 1u);
  for (const Value* response : {&fresh, &replay}) {
    const Value* counters = response->find("report")->find("counters");
    ASSERT_NE(counters, nullptr);  // the job's own counters stay
    for (const auto& [name, v] : counters->members()) {
      EXPECT_FALSE(name.starts_with("service.")) << name;
    }
  }
}

TEST(Service, FullQueueRejectsWithReason) {
  service::ServerOptions opt = small_options("queuefull");
  opt.workers = 1;
  opt.queue_depth = 1;
  service::Server server(opt);
  server.start();

  // Occupy the single worker, then the single queue slot, with distinct
  // cache tags; stats polling makes the saturation deterministic.
  service::Client a;
  a.connect(opt.socket_path);
  Value req_a = Value::object();
  req_a.set("type", "submit");
  req_a.set("plan",
            api::RunPlan::parse("clique:n=3 test-sleep:ms=400,tag=qa")
                .to_json());
  a.send(req_a);
  ASSERT_TRUE(wait_for_stats(opt.socket_path, [](const Value& s) {
    return s.get_uint("jobs_active", 0) == 1;
  }));

  service::Client b;
  b.connect(opt.socket_path);
  Value req_b = Value::object();
  req_b.set("type", "submit");
  req_b.set("plan",
            api::RunPlan::parse("clique:n=3 test-sleep:ms=50,tag=qb")
                .to_json());
  b.send(req_b);
  ASSERT_TRUE(wait_for_stats(opt.socket_path, [](const Value& s) {
    return s.get_uint("queue_depth", 0) == 1;
  }));

  // Worker busy + queue full: the third submit must be REJECTED, not hang.
  service::Client c;
  c.connect(opt.socket_path);
  const Value rejected =
      c.submit_text("clique:n=3 test-sleep:ms=10,tag=qc");
  EXPECT_FALSE(rejected.get_bool("ok", true));
  EXPECT_EQ(error_code(rejected), "queue_full");

  // The occupants complete normally.
  EXPECT_TRUE(a.read_response().get_bool("ok", false));
  EXPECT_TRUE(b.read_response().get_bool("ok", false));
  service::Client s;
  s.connect(opt.socket_path);
  EXPECT_GE(stats_of(s.stats()).find("rejected")->get_uint("queue_full", 0),
            1u);
}

TEST(Service, OverBudgetPlanRejectedWithoutRunning) {
  service::ServerOptions opt = small_options("budget");
  opt.mem_budget_bytes = 1u << 20;  // 1 MiB per job
  service::Server server(opt);
  server.start();
  service::Client c;
  c.connect(opt.socket_path);

  // ~2^22 vertices, ~1.3e8 stored entries, materializing analysis: the
  // analytic estimate is gigabytes. Rejection must come from the cost
  // model, not from attempting generation (the response is immediate).
  const Value rejected = c.submit_text("rmat:scale=22,ef=16 truss");
  EXPECT_FALSE(rejected.get_bool("ok", true));
  EXPECT_EQ(error_code(rejected), "over_budget");
  EXPECT_NE(rejected.find("error")->get_string("message", "").find("budget"),
            std::string::npos);

  // A small plan on the same server is still admitted.
  const Value ok = c.submit_text("hk:n=60,seed=1 census");
  EXPECT_TRUE(ok.get_bool("ok", false));
  EXPECT_EQ(stats_of(c.stats()).find("rejected")->get_uint("over_budget", 0),
            1u);
}

TEST(Admission, StreamedProductPlansMaterializeNothing) {
  // The cost model charges a 2-factor plan as streamed (factors plus the
  // plan's accumulator budget) only when no analysis of it makes the
  // engine materialize C: each one it streams answers needs_graph() false.
  const std::string product = "kron:(hk:n=40,m=2,seed=1)x(clique:n=4)";
  const auto& analyses = api::AnalysisRegistry::builtin();
  const auto& generators = api::GeneratorRegistry::builtin();
  std::size_t streamed = 0;
  for (const auto& [name, help] : analyses.families()) {
    const std::string token = name == "egonet" ? "egonet:vertex=7" : name;
    const api::RunPlan plan = api::RunPlan::parse(product + " " + token);
    const api::PlanContext ctx(plan.spec, plan.options,
                               generators.build_factors(plan.spec));
    const auto analysis =
        analyses.build(plan.analyses[0].name, plan.analyses[0].params);
    if (!service::estimate_plan_cost(plan).materializes) {
      ++streamed;
      EXPECT_FALSE(analysis->needs_graph(ctx)) << name;
    }
  }
  EXPECT_GE(streamed, 7u);

  // clustering evaluates d_C and t_C one vertex at a time, so a product
  // too large to materialize is admitted at its factors' size. truss does
  // not materialize it either, but its peel state grows with the product's
  // edges, so with truss it is turned away.
  const std::string huge =
      "kron:(rmat:scale=16,ef=16,seed=1)x(rmat:scale=16,ef=16,seed=2)";
  const std::size_t budget = 256u << 20;
  const api::RunPlan clustering = api::RunPlan::parse(huge + " clustering");
  const service::CostEstimate streamed_cost =
      service::estimate_plan_cost(clustering);
  EXPECT_FALSE(streamed_cost.materializes);
  EXPECT_EQ(service::over_budget_reason(clustering, budget), "");
  const api::RunPlan with_truss =
      api::RunPlan::parse(huge + " clustering truss");
  EXPECT_FALSE(service::estimate_plan_cost(with_truss).materializes);
  EXPECT_NE(service::over_budget_reason(with_truss, budget), "");
}

TEST(Service, MalformedInputGetsBadRequestAndServerSurvives) {
  service::Server server(small_options("malformed"));
  server.start();
  const std::string socket = server.options().socket_path;
  service::Client c;
  c.connect(socket);

  // Malformed plan text (parsed server-side).
  const Value bad_plan = c.submit_text("{\"spec\": ");
  EXPECT_FALSE(bad_plan.get_bool("ok", true));
  EXPECT_EQ(error_code(bad_plan), "bad_request");

  // Unknown request type.
  Value unknown = Value::object();
  unknown.set("type", "frobnicate");
  EXPECT_EQ(error_code(c.request(unknown)), "bad_request");

  // Missing plan member.
  Value no_plan = Value::object();
  no_plan.set("type", "submit");
  EXPECT_EQ(error_code(no_plan = c.request(no_plan)), "bad_request");

  // Raw garbage that is not even JSON, below the Client abstraction.
  const Value garbage = Value::parse(raw_request(socket, "not json at all\n"));
  EXPECT_FALSE(garbage.get_bool("ok", true));
  EXPECT_EQ(error_code(garbage), "bad_request");

  // Plans demanding server-side file writes are refused.
  api::RunPlan writes = api::RunPlan::parse("hk:n=50,seed=1 census");
  writes.options.output = "/tmp/should_not_be_written.txt";
  EXPECT_EQ(error_code(c.submit(writes)), "bad_request");

  // After all that abuse the server still executes plans.
  const Value ok = c.submit_text("hk:n=50,seed=1 census");
  EXPECT_TRUE(ok.get_bool("ok", false));
  EXPECT_GE(stats_of(c.stats()).find("rejected")->get_uint("bad_request", 0),
            4u);
}

TEST(Service, ExecutionFailureIsIsolatedToTheJob) {
  service::Server server(small_options("execfail"));
  server.start();
  service::Client c;
  c.connect(server.options().socket_path);

  // Parses and passes admission (stat() fails -> zero-cost estimate), then
  // throws inside api::run when the file cannot be opened.
  const Value failed =
      c.submit_text("file:path=/nonexistent/kronotri_missing.txt census");
  EXPECT_FALSE(failed.get_bool("ok", true));
  EXPECT_EQ(error_code(failed), "execution_failed");

  // The worker survived: the next job on the same server runs fine.
  const Value ok = c.submit_text("hk:n=50,seed=2 census");
  EXPECT_TRUE(ok.get_bool("ok", false));
  const Value& s = stats_of(c.stats());
  EXPECT_EQ(s.get_uint("jobs_failed", 0), 1u);
  EXPECT_GE(s.get_uint("jobs_completed", 0), 1u);
}

TEST(Service, ClientDisconnectMidJobOnlyDropsThatConnection) {
  service::ServerOptions opt = small_options("disconnect");
  opt.workers = 1;
  service::Server server(opt);
  server.start();

  {
    service::Client rude;
    rude.connect(opt.socket_path);
    Value req = Value::object();
    req.set("type", "submit");
    req.set("plan",
            api::RunPlan::parse("clique:n=3 test-sleep:ms=200,tag=rude")
                .to_json());
    rude.send(req);
    rude.close();  // hang up while the job is queued/executing
  }

  // The job still completes (and is cached); the disconnect is counted.
  ASSERT_TRUE(wait_for_stats(opt.socket_path, [](const Value& s) {
    return s.get_uint("jobs_completed", 0) == 1 &&
           s.get_uint("client_disconnects", 0) >= 1;
  }));
  // And the server keeps serving.
  service::Client polite;
  polite.connect(opt.socket_path);
  EXPECT_TRUE(polite.submit_text("hk:n=40,seed=5 census").get_bool("ok",
                                                                   false));
}

TEST(Service, GracefulDrainDeliversInFlightResponses) {
  service::ServerOptions opt = small_options("drain");
  opt.workers = 1;
  service::Server server(opt);
  server.start();

  Value response;
  std::thread in_flight([&] {
    service::Client c;
    c.connect(opt.socket_path);
    response =
        c.submit_text("clique:n=3 test-sleep:ms=300,tag=drain");
  });
  ASSERT_TRUE(wait_for_stats(opt.socket_path, [](const Value& s) {
    return s.get_uint("jobs_active", 0) == 1;
  }));

  server.stop();  // drain: the sleeping job finishes, its response lands
  in_flight.join();
  EXPECT_TRUE(response.get_bool("ok", false));
  EXPECT_TRUE(response.find("report")->get_bool("pass", false));
  const Value after = server.stats_json();
  EXPECT_EQ(after.get_uint("jobs_completed", 0), 1u);
  EXPECT_EQ(after.get_uint("jobs_failed", 1), 0u);

  // After the drain the socket is gone: new connections are refused.
  service::Client late;
  EXPECT_THROW(late.connect(opt.socket_path), std::runtime_error);
}

TEST(Service, DrainingServerRejectsNewSubmits) {
  service::ServerOptions opt = small_options("drainreject");
  opt.workers = 1;
  service::Server server(opt);
  server.start();

  service::Client held;
  held.connect(opt.socket_path);
  Value req = Value::object();
  req.set("type", "submit");
  req.set("plan",
          api::RunPlan::parse("clique:n=3 test-sleep:ms=400,tag=hold")
              .to_json());
  held.send(req);
  ASSERT_TRUE(wait_for_stats(opt.socket_path, [](const Value& s) {
    return s.get_uint("jobs_active", 0) == 1;
  }));

  service::Client late;
  late.connect(opt.socket_path);
  std::thread stopper([&] { server.stop(); });
  // stop() first shuts down the listener, then drains; this submit races
  // that window, so EITHER a structured "draining" rejection OR a
  // connection teardown is acceptable — a hang is not.
  try {
    const Value r = late.submit_text("hk:n=30,seed=9 census");
    if (!r.get_bool("ok", false)) {
      EXPECT_EQ(error_code(r), "draining");
    }
  } catch (const std::runtime_error&) {
    // server closed the connection mid-round-trip: also a clean refusal
  }
  stopper.join();
  EXPECT_TRUE(held.read_response().get_bool("ok", false));  // still delivered
}

TEST(Service, CacheEvictionStaysWithinByteBudget) {
  service::ServerOptions opt = small_options("evict");
  opt.cache_bytes = 2048;  // roughly one report entry
  service::Server server(opt);
  server.start();
  service::Client c;
  c.connect(opt.socket_path);

  ASSERT_TRUE(c.submit_text("hk:n=50,seed=11 census").get_bool("ok", false));
  ASSERT_TRUE(c.submit_text("hk:n=50,seed=12 census").get_bool("ok", false));
  const Value& s = stats_of(c.stats());
  const Value* store = s.find("cache_store");
  ASSERT_NE(store, nullptr);
  EXPECT_LE(store->get_uint("bytes", 1u << 30), 2048u);
  EXPECT_GE(store->get_uint("evictions", 0), 1u);
  // The evicted first plan misses again.
  const Value again = c.submit_text("hk:n=50,seed=11 census");
  EXPECT_EQ(again.get_string("cache", ""), "miss");
}

TEST(ResultCache, BytesAreKeyPlusValuePlusOverheadOfLiveEntries) {
  // Each entry is charged its key once, its value and a fixed overhead;
  // a model LRU replays puts, refreshes and evictions alongside.
  constexpr std::size_t kOverhead = service::ResultCache::kEntryOverhead;
  service::ResultCache cache(3 * (kOverhead + 40));
  std::vector<std::pair<std::string, std::string>> model;  // front = newest
  std::vector<std::string> seen;
  const auto put = [&](const std::string& key, const std::string& value) {
    cache.put(key, value);
    seen.push_back(key);
    std::erase_if(model, [&](const auto& e) { return e.first == key; });
    model.insert(model.begin(), {key, value});
    std::size_t bytes = 0;
    for (const auto& [k, v] : model) bytes += k.size() + v.size() + kOverhead;
    while (bytes > cache.stats().capacity_bytes) {
      bytes -= model.back().first.size() + model.back().second.size() +
               kOverhead;
      model.pop_back();
    }
    const auto st = cache.stats();
    EXPECT_EQ(st.bytes, bytes) << "after put(" << key << ")";
    EXPECT_EQ(st.entries, model.size());
    for (const std::string& k : seen) {
      if (std::none_of(model.begin(), model.end(),
                       [&](const auto& e) { return e.first == k; })) {
        EXPECT_FALSE(cache.get(k).has_value()) << k << " was evicted";
      }
    }
    for (const auto& [k, v] : model) EXPECT_EQ(cache.get(k), v);
    // get() refreshed every live entry in model order: newest last now.
    std::reverse(model.begin(), model.end());
  };
  put("alpha", std::string(20, 'a'));
  put("beta", std::string(25, 'b'));
  put("alpha", std::string(10, 'A'));  // refresh shrinks the value
  put("gamma", std::string(30, 'c'));
  put("delta", std::string(35, 'd'));  // evicts the least recent
  put("beta", std::string(5, 'B'));
  put("epsilon", std::string(60, 'e'));
  EXPECT_GE(cache.stats().evictions, 2u);
}

TEST(Service, SurvivesClientDisconnectMidResponseWrite) {
  // A client that hangs up while the server is writing its (large)
  // response must cost the server exactly one EPIPE, never a SIGPIPE
  // death. The report with the full edge list is far bigger than an
  // AF_UNIX socket buffer, so the server's write_all is still in flight
  // when the socket dies.
  service::ServerOptions opt = small_options("midwrite");
  opt.workers = 1;
  service::Server server(opt);
  server.start();

  {
    service::Client rude;
    rude.connect(opt.socket_path);
    Value req = Value::object();
    req.set("type", "submit");
    req.set("plan",
            api::RunPlan::parse("hk:n=6000,seed=3 census:edges=1").to_json());
    rude.send(req);
    // The job may finish between stats polls, so accept either state: the
    // response is bigger than the socket buffer either way, so the
    // server's write is (or will be) blocked mid-frame when we hang up.
    ASSERT_TRUE(wait_for_stats(opt.socket_path, [](const Value& s) {
      return s.get_uint("jobs_active", 0) + s.get_uint("jobs_completed", 0) >=
             1;
    }));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    rude.close();  // mid-write: the rest of the frame hits EPIPE
  }

  ASSERT_TRUE(wait_for_stats(opt.socket_path, [](const Value& s) {
    return s.get_uint("jobs_completed", 0) == 1;
  }));
  // Server process survived the broken pipe and still round-trips.
  service::Client polite;
  polite.connect(opt.socket_path);
  Value ping = Value::object();
  ping.set("type", "ping");
  EXPECT_TRUE(polite.request(ping).get_bool("ok", false));
  // jobs_completed counts in the worker before the connection thread's
  // write hits EPIPE, so the disconnect may land a moment later.
  EXPECT_TRUE(wait_for_stats(opt.socket_path, [](const Value& s) {
    return s.get_uint("client_disconnects", 0) >= 1;
  }));
}

TEST(Service, RequestTimeoutFiresOnSilentServer) {
  // A socket that listens but never accepts: connect() succeeds via the
  // backlog, then no response ever arrives. Without request_timeout_s the
  // old client would block forever.
  const std::string path = test_socket("silent");
  ::unlink(path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0)
      << std::strerror(errno);
  ASSERT_EQ(::listen(listener, 4), 0);

  service::ClientOptions copt;
  copt.request_timeout_s = 0.3;
  service::Client c(copt);
  c.connect(path);
  Value ping = Value::object();
  ping.set("type", "ping");
  c.send(ping);
  try {
    (void)c.read_response();
    FAIL() << "expected a request timeout";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("timed out"), std::string::npos)
        << e.what();
  }
  ::close(listener);
  ::unlink(path.c_str());
}

TEST(Service, ConnectRetriesUntilServerAppears) {
  // The daemon-still-binding race: the socket appears ~250ms after the
  // client starts dialing. Backoff (0.05, x2) reaches that well inside
  // the 10-attempt budget.
  const std::string path = test_socket("lateserver");
  ::unlink(path.c_str());
  std::thread late_binder([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(listener, 0);
    ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(listener, 4), 0);
    std::this_thread::sleep_for(std::chrono::seconds(2));
    ::close(listener);
  });

  service::ClientOptions copt;
  copt.connect_attempts = 10;
  copt.connect_timeout_s = 1.0;
  service::Client c(copt);
  c.connect(path);  // throws on failure
  EXPECT_TRUE(c.connected());
  c.close();
  late_binder.join();
  ::unlink(path.c_str());
}

TEST(Service, ConnectFailureReportsAttemptBudget) {
  service::ClientOptions copt;
  copt.connect_attempts = 3;
  copt.connect_timeout_s = 0.2;
  copt.backoff = util::Backoff{0.01, 2.0, 0.05};
  service::Client c(copt);
  try {
    c.connect(test_socket("nobody_home"));
    FAIL() << "expected connect to fail";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("3 attempts"), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(c.connected());
}

TEST(Service, SurvivesManyConcurrentClients) {
  // At 64 clients the whole queue depth can be in flight at once: every
  // request must still succeed and no job may fail.
  for (const int clients : {16, 64}) {
    SCOPED_TRACE(std::to_string(clients) + " clients");
    service::ServerOptions opt =
        small_options("many" + std::to_string(clients));
    opt.workers = 4;
    opt.queue_depth = 64;
    service::Server server(opt);
    server.start();

    std::vector<std::thread> threads;
    std::vector<int> ok_count(clients, 0);
    for (int i = 0; i < clients; ++i) {
      threads.emplace_back([&, i] {
        service::Client c;
        c.connect(opt.socket_path);
        // Half the clients share a plan (exercising concurrent cache
        // hits), half get unique seeds (concurrent executions).
        const int seed = (i % 2 == 0) ? 1000 : 2000 + i;
        const Value r = c.submit_text(
            "hk:n=70,seed=" + std::to_string(seed) + " census degree");
        if (r.get_bool("ok", false) &&
            r.find("report")->get_bool("pass", false)) {
          ok_count[i] = 1;
        }
      });
    }
    for (std::thread& t : threads) t.join();
    int total = 0;
    for (const int ok : ok_count) total += ok;
    EXPECT_EQ(total, clients);
    EXPECT_EQ(server.stats_json().get_uint("jobs_failed", 1), 0u);

    // The shared plan is cached by now: one more submit must hit (during
    // the race itself all the sharers may legitimately miss at once).
    service::Client c;
    c.connect(opt.socket_path);
    EXPECT_EQ(c.submit_text("hk:n=70,seed=1000 census degree")
                  .get_string("cache", ""),
              "hit");
    const Value& s = stats_of(c.stats());
    const Value* exec = s.find("latency")->find("execute");
    ASSERT_NE(exec, nullptr);
    EXPECT_GT(exec->get_uint("count", 0), 0u);
    EXPECT_GE(exec->find("p99_s")->as_double(),
              exec->find("p50_s")->as_double());
  }
}

/// Scratch directory for --state journals; removed with contents on exit.
struct StateDir {
  std::string path;
  explicit StateDir(const std::string& tag)
      : path("/tmp/kronotri_st" + std::to_string(::getpid()) + "_" + tag) {
    util::journal::ensure_dir(path);
  }
  ~StateDir() {
    ::unlink((path + "/state.journal").c_str());
    ::rmdir(path.c_str());
  }
};

TEST(ServiceDurable, StaleSocketFromDeadServerIsReclaimed) {
  // A dead predecessor's residue: a bound-but-unserved socket file. The
  // new server must probe it, find nobody home, and take the path over.
  const std::string path = test_socket("stale");
  ::unlink(path.c_str());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  const int dead = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(dead, 0);
  ASSERT_EQ(::bind(dead, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);
  ::close(dead);  // fd gone, socket FILE left behind — the kill -9 residue

  service::ServerOptions opt = small_options("stale");
  opt.socket_path = path;
  service::Server server(opt);
  server.start();  // must reclaim, not throw
  service::Client c;
  c.connect(path);
  Value ping = Value::object();
  ping.set("type", "ping");
  EXPECT_TRUE(c.request(ping).get_bool("pong", false));
}

TEST(ServiceDurable, RefusesToStealALiveServersSocket) {
  service::ServerOptions opt = small_options("liveguard");
  service::Server first(opt);
  first.start();

  service::Server second(opt);
  EXPECT_THROW(second.start(), std::runtime_error);

  // The refusal must be collateral-free: the live server keeps serving on
  // the same path (second's destructor must NOT have unlinked its socket).
  service::Client c;
  c.connect(opt.socket_path);
  EXPECT_TRUE(c.submit_text("hk:n=40,seed=21 census").get_bool("ok", false));
}

TEST(ServiceDurable, NonSocketFileAtPathIsNeverDeleted) {
  const std::string path = test_socket("notasock");
  ::unlink(path.c_str());
  util::journal::atomic_write_file(path, "precious bytes");

  service::ServerOptions opt = small_options("notasock");
  opt.socket_path = path;
  service::Server server(opt);
  EXPECT_THROW(server.start(), std::runtime_error);
  // Refusal means refusal: the file survives, contents intact.
  EXPECT_EQ(util::journal::read_file(path).value_or(""), "precious bytes");
  ::unlink(path.c_str());
}

TEST(ServiceDurable, StateJournalReplaysAdmittedButUnfinishedWork) {
  // Simulate a kill -9 after admission: a state journal holding a submit
  // record with no matching done record. start() must re-enqueue it; the
  // result lands in the cache, so the re-submitting client hits.
  StateDir state("replay");
  const api::RunPlan plan =
      api::RunPlan::parse("kron:(hk:n=80,seed=13)x(clique:n=3,loops=1) "
                          "census degree");
  {
    Value submit = Value::object();
    submit.set("type", "submit");
    submit.set("key", service::cache_key(plan));
    submit.set("plan", plan.to_json().dump_string(0));
    util::journal::Journal wal;
    wal.open(state.path + "/state.journal");
    wal.append(submit.dump_string(0));
  }

  service::ServerOptions opt = small_options("replay");
  opt.state_dir = state.path;
  service::Server server(opt);
  server.start();
  ASSERT_TRUE(wait_for_stats(opt.socket_path, [](const Value& s) {
    return s.get_uint("jobs_replayed", 0) == 1 &&
           s.get_uint("jobs_completed", 0) >= 1;
  }));

  service::Client c;
  c.connect(opt.socket_path);
  const Value response = c.submit(plan);
  ASSERT_TRUE(response.get_bool("ok", false));
  EXPECT_EQ(response.get_string("cache", ""), "hit");
  EXPECT_EQ(stats_of(c.stats()).find("config")->get_string("state_dir", ""),
            state.path);
}

TEST(ServiceDurable, CompletedWorkIsJournaledAndNotReplayed) {
  StateDir state("noreplay");
  const std::string plan_text = "hk:n=60,seed=31 census";
  {
    service::ServerOptions opt = small_options("noreplay1");
    opt.state_dir = state.path;
    service::Server server(opt);
    server.start();
    service::Client c;
    c.connect(opt.socket_path);
    ASSERT_TRUE(c.submit_text(plan_text).get_bool("ok", false));
    ASSERT_TRUE(wait_for_stats(opt.socket_path, [](const Value& s) {
      return s.get_uint("jobs_completed", 0) == 1;
    }));
    server.stop();
  }

  // The journal pairs the submit with its done record...
  const util::journal::Decoded dec =
      util::journal::Journal::read(state.path + "/state.journal");
  EXPECT_EQ(dec.tail, util::journal::Decoded::Tail::kClean);
  int submits = 0, dones = 0;
  for (const std::string& frame : dec.frames) {
    const Value rec = Value::parse(frame);
    if (rec.get_string("type", "") == "submit") ++submits;
    if (rec.get_string("type", "") == "done") ++dones;
  }
  EXPECT_EQ(submits, 1);
  EXPECT_EQ(dones, 1);

  // ...so a restart replays nothing.
  service::ServerOptions opt = small_options("noreplay2");
  opt.state_dir = state.path;
  service::Server server(opt);
  server.start();
  service::Client c;
  c.connect(opt.socket_path);
  EXPECT_EQ(stats_of(c.stats()).get_uint("jobs_replayed", 1), 0u);
}

}  // namespace
