// runner::execute — fault-tolerant multi-process RunPlan execution.
//
// Every test compares the merged multi-process report against the
// in-process serial run through runner::comparable(), the one shared
// definition of "bit-identical modulo timings/metadata/worker_events".
// Faults are injected with util::fault specs at chosen (unit, attempt)
// coordinates; unit 0 is the base (non-validate) unit, units 1..U are the
// validate shard-subset units.
#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include "api/plan.hpp"
#include "net/agent.hpp"
#include "runner/proc.hpp"
#include "runner/runner.hpp"
#include "util/journal.hpp"
#include "util/json.hpp"
#include "util/threads.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define KRONOTRI_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define KRONOTRI_ASAN 1
#endif
#endif

namespace {

using namespace kronotri;
namespace proc = runner::proc;

// Small two-factor product with a base unit (census + degree) and several
// validate shards: big enough that every validate unit owns real work,
// small enough for a fork-heavy test on one core.
constexpr const char* kPlanText =
    "kron:(hk:n=40,m=2,p=0.5,seed=7)x(hk:n=40,m=2,p=0.5,seed=7,loops=1) "
    "census:edges=1 degree:histogram=0 validate:mem_budget=8K";

api::RunPlan test_plan() {
  api::RunPlan plan = api::RunPlan::parse(kPlanText);
  plan.options.threads = 2;
  return plan;
}

runner::Options test_opts() {
  runner::Options opt;
  opt.workers = 3;
  opt.straggler_min_s = 60;  // no accidental speculation on a loaded box
  return opt;
}

std::string comparable_dump(const api::RunReport& report) {
  return runner::comparable(report.to_json()).dump_string(2);
}

int count_events(const api::RunReport& report, unsigned unit,
                 const std::string& outcome) {
  int n = 0;
  for (const api::WorkerEvent& e : report.worker_events) {
    if (e.unit == unit && e.outcome == outcome) ++n;
  }
  return n;
}

TEST(Runner, ComparableStripsVolatileFields) {
  const api::RunPlan plan = test_plan();
  api::RunReport a = api::run(plan);
  api::RunReport b = a;
  // Everything volatile differs; everything semantic is untouched.
  b.total_wall_s += 1;
  b.total_cpu_s += 2;
  b.peak_rss_bytes += 4096;
  b.queue_wait_s += 3;
  b.metadata = util::json::Value::object();
  for (auto& st : b.stages) st.wall_s += 0.5;
  for (auto& ar : b.analyses) ar.wall_s += 0.5;
  b.plan.options.workers = 4;
  b.plan.options.shard_timeout_s = 9;
  b.plan.options.max_retries = 7;
  b.plan.options.fault = "kill";
  api::WorkerEvent e;
  e.outcome = "ok";
  b.worker_events.push_back(e);
  EXPECT_EQ(comparable_dump(a), comparable_dump(b));

  b.num_vertices += 1;  // a semantic field must NOT be stripped
  EXPECT_NE(comparable_dump(a), comparable_dump(b));
}

TEST(Runner, MultiprocessMatchesSerial) {
  const api::RunPlan plan = test_plan();
  const api::RunReport serial = api::run(plan);
  const runner::Options opt = test_opts();
  const api::RunReport multi = runner::execute(plan, opt);
  EXPECT_TRUE(multi.pass);
  EXPECT_TRUE(multi.error.empty()) << multi.error;
  EXPECT_FALSE(multi.worker_events.empty());
  EXPECT_EQ(comparable_dump(serial), comparable_dump(multi));
  // Every attempt succeeded first try, on this host's thread budget.
  const unsigned budget = util::omp_budget(opt.workers);
  for (const api::WorkerEvent& e : multi.worker_events) {
    EXPECT_EQ(e.outcome, "ok") << "unit " << e.unit;
    EXPECT_EQ(e.omp_threads, budget) << "unit " << e.unit;
    // The worker's wait4 usage crossed the agent socket intact.
    EXPECT_GT(e.pid, 0) << "unit " << e.unit;
    EXPECT_GT(e.max_rss_bytes, 0u) << "unit " << e.unit;
    EXPECT_GT(e.cpu_user_s + e.cpu_sys_s, 0.0) << "unit " << e.unit;
  }
  // The merged metadata comes from a worker's fragment: the team the
  // worker saw is the one the coordinator handed down.
  EXPECT_EQ(multi.metadata.get_uint("omp_max_threads", 0), budget);
}

TEST(Runner, WorkersOneRunsInProcess) {
  const api::RunPlan plan = test_plan();
  runner::Options opt;
  opt.workers = 1;
  const api::RunReport report = runner::execute(plan, opt);
  EXPECT_TRUE(report.pass);
  EXPECT_TRUE(report.worker_events.empty());
  EXPECT_EQ(comparable_dump(api::run(plan)), comparable_dump(report));
}

TEST(Runner, SpeculativeRedispatchBeatsStraggler) {
  const api::RunPlan plan = test_plan();
  runner::Options opt = test_opts();
  // Unit 1's first attempt stalls well past the straggler threshold; the
  // speculative duplicate (attempt 1, no fault match) wins.
  opt.fault_spec = "stall:shard=1:attempt=0:secs=20";
  opt.straggler_min_s = 0.2;
  const api::RunReport multi = runner::execute(plan, opt);
  EXPECT_TRUE(multi.pass);
  EXPECT_EQ(comparable_dump(api::run(plan)), comparable_dump(multi));
  EXPECT_EQ(count_events(multi, 1, "speculative_loss"), 1);
  EXPECT_EQ(count_events(multi, 1, "ok"), 1);
}

TEST(Runner, DegradesWithoutWorkerBinary) {
  const api::RunPlan plan = test_plan();
  runner::Options opt = test_opts();
  opt.worker_exe = "/nonexistent/kronotri";
  const api::RunReport report = runner::execute(plan, opt);
  EXPECT_TRUE(report.pass);
  EXPECT_EQ(comparable_dump(api::run(plan)), comparable_dump(report));
  ASSERT_EQ(report.worker_events.size(), 1u);
  EXPECT_EQ(report.worker_events[0].outcome, "degraded");
}

TEST(Runner, DegradesWhenTheLocalAgentCannotSpawn) {
  // An unwritable scratch directory fails the local agent's first spawn:
  // with no result yet, the run falls back to in-process.
  struct ScopedTmpdir {  // restored however the test exits
    const char* saved = std::getenv("TMPDIR");
    std::string restore = saved != nullptr ? saved : "";
    ScopedTmpdir() { ::setenv("TMPDIR", "/nonexistent/kronotri-scratch", 1); }
    ~ScopedTmpdir() {
      if (saved != nullptr) {
        ::setenv("TMPDIR", restore.c_str(), 1);
      } else {
        ::unsetenv("TMPDIR");
      }
    }
  };
  const api::RunPlan plan = test_plan();
  api::RunReport report;
  {
    const ScopedTmpdir tmpdir;
    report = runner::execute(plan, test_opts());
  }
  EXPECT_TRUE(report.pass) << report.error;
  EXPECT_EQ(comparable_dump(api::run(plan)), comparable_dump(report));
  ASSERT_GE(report.worker_events.size(), 2u);
  EXPECT_EQ(report.worker_events.front().outcome, "spawn_failed");
  EXPECT_EQ(report.worker_events.back().outcome, "degraded");
}

TEST(Runner, ValidateOnlyPlanDecomposesWithoutBaseUnit) {
  // No non-validate analyses: every unit is a validate shard subset, so
  // the skeleton comes from a validate fragment and must still merge to
  // the serial report.
  api::RunPlan plan = api::RunPlan::parse(
      "kron:(hk:n=40,m=2,p=0.5,seed=7)x(hk:n=40,m=2,p=0.5,seed=7,loops=1) "
      "validate:mem_budget=8K");
  plan.options.threads = 2;
  const api::RunReport multi = runner::execute(plan, test_opts());
  EXPECT_TRUE(multi.pass);
  EXPECT_EQ(comparable_dump(api::run(plan)), comparable_dump(multi));
  for (const api::WorkerEvent& e : multi.worker_events) {
    EXPECT_EQ(e.kind, "validate");
  }
}

TEST(Runner, OptionsFromPlanMapsRunnerKnobs) {
  api::RunPlan plan = test_plan();
  plan.options.workers = 4;
  plan.options.shard_timeout_s = 12.5;
  plan.options.max_retries = 5;
  plan.options.fault = "kill:shard=1";
  const runner::Options opt = runner::options_from(plan);
  EXPECT_EQ(opt.workers, 4u);
  EXPECT_DOUBLE_EQ(opt.shard_timeout_s, 12.5);
  EXPECT_EQ(opt.max_retries, 5u);
  EXPECT_EQ(opt.fault_spec, "kill:shard=1");
}

TEST(Runner, TrussReportIsComparableAcrossRuns) {
  // The truss analysis's text carries no wall time, so identical runs (and
  // a multi-process run of the same plan) compare identical.
  const api::RunPlan plan = api::RunPlan::parse(
      "kron:(hk:n=40,m=2,p=0.5,seed=7)x(clique:n=4) truss census");
  const api::RunReport a = api::run(plan);
  const api::RunReport b = api::run(plan);
  ASSERT_TRUE(a.pass);
  EXPECT_EQ(comparable_dump(a), comparable_dump(b));
  runner::Options opt = test_opts();
  opt.workers = 2;
  const api::RunReport multi = runner::execute(plan, opt);
  EXPECT_TRUE(multi.pass) << multi.error;
  EXPECT_EQ(comparable_dump(a), comparable_dump(multi));
}

// ---------------------------------------------------------------------------
// The fault matrix on both placements: local worker slots, and one
// in-process agent with no local slots. runner::proc classifies every
// worker and the coordinator settles every attempt the same way, so a
// unit must die with the same outcome and detail wherever it ran.

enum class Placement { kLocal, kAgent };

void PrintTo(Placement p, std::ostream* os) {
  *os << (p == Placement::kLocal ? "Local" : "Agent");
}

class RunnerFaults : public ::testing::TestWithParam<Placement> {
 protected:
  void SetUp() override {
    if (GetParam() != Placement::kAgent) return;
    net::AgentOptions ao;
    ao.slots = 2;
    agent_ = std::make_unique<net::Agent>(ao);
    std::string err;
    ASSERT_TRUE(agent_->start(&err)) << err;
  }
  void TearDown() override {
    if (agent_) agent_->stop();
  }

  runner::Options opts() const {
    runner::Options opt = test_opts();
    if (agent_) {
      opt.workers = 0;
      opt.agents = {agent_->endpoint()};
      opt.agent_connect_timeout_s = 2.0;
    }
    return opt;
  }

  /// The events that end in `outcome` are exactly `attempts` of validate
  /// unit `unit`, each with `detail` and on the placement's host.
  void expect_events(const api::RunReport& report, unsigned unit,
                     const std::string& outcome, int detail,
                     const std::multiset<unsigned>& attempts) const {
    std::multiset<unsigned> seen;
    for (const api::WorkerEvent& e : report.worker_events) {
      if (e.outcome != outcome) continue;
      seen.insert(e.attempt);
      EXPECT_EQ(e.unit, unit);
      EXPECT_EQ(e.kind, "validate");
      EXPECT_EQ(e.detail, detail) << outcome;
      EXPECT_EQ(e.host.empty(), agent_ == nullptr) << e.host;
    }
    EXPECT_EQ(seen, attempts) << outcome;
  }

  /// A transport fault takes down every attempt in flight on its
  /// connection, so `outcome` may hit several units — but always attempt
  /// 0 of `unit`, with detail 0, on the placement's host; the unit then
  /// completes exactly once.
  void expect_lost_with(const api::RunReport& report,
                        const std::string& outcome, unsigned unit) const {
    bool hit = false;
    for (const api::WorkerEvent& e : report.worker_events) {
      if (e.outcome != outcome) continue;
      hit = hit || (e.unit == unit && e.attempt == 0);
      EXPECT_EQ(e.detail, 0) << outcome;
      EXPECT_EQ(e.host.empty(), agent_ == nullptr) << e.host;
    }
    EXPECT_TRUE(hit) << "no " << outcome << " event for unit " << unit;
    EXPECT_EQ(count_events(report, unit, "ok"), 1);
  }

  std::unique_ptr<net::Agent> agent_;
};

TEST_P(RunnerFaults, InjectedKillRecovers) {
  const api::RunPlan plan = test_plan();
  runner::Options opt = opts();
  opt.fault_spec = "kill:shard=1:attempt=0";  // first validate unit, once
  const api::RunReport multi = runner::execute(plan, opt);
  EXPECT_TRUE(multi.pass) << multi.error;
  EXPECT_EQ(comparable_dump(api::run(plan)), comparable_dump(multi));
  // The crash is recorded as a SIGKILL death, then the retry succeeds.
  expect_events(multi, 1, "signal", SIGKILL, {0});
  EXPECT_EQ(count_events(multi, 1, "ok"), 1);
}

TEST_P(RunnerFaults, InjectedTimeoutRecovers) {
  const api::RunPlan plan = test_plan();
  runner::Options opt = opts();
  // The timeout is a wide fraction of the injected stall, never a wall-clock
  // constant: units that are not stalled finish long before it even when the
  // whole suite runs in parallel, and the stalled one never finishes first.
  constexpr int kStallS = 30;
  opt.fault_spec =
      "stall:shard=1:attempt=0:secs=" + std::to_string(kStallS);
  opt.shard_timeout_s = kStallS / 3.0;
  const api::RunReport multi = runner::execute(plan, opt);
  EXPECT_TRUE(multi.pass) << multi.error;
  EXPECT_EQ(comparable_dump(api::run(plan)), comparable_dump(multi));
  // The deadline's SIGKILL is the detail, whoever delivered it.
  expect_events(multi, 1, "timeout", SIGKILL, {0});
  EXPECT_EQ(count_events(multi, 1, "ok"), 1);
}

TEST_P(RunnerFaults, TruncatedFragmentRetries) {
  const api::RunPlan plan = test_plan();
  runner::Options opt = opts();
  opt.fault_spec = "truncate:shard=2:attempt=0";
  const api::RunReport multi = runner::execute(plan, opt);
  EXPECT_TRUE(multi.pass) << multi.error;
  EXPECT_EQ(comparable_dump(api::run(plan)), comparable_dump(multi));
  expect_events(multi, 2, "truncated", 0, {0});
  EXPECT_EQ(count_events(multi, 2, "ok"), 1);
}

TEST_P(RunnerFaults, RetryBudgetExhaustedFailsStructurally) {
  const api::RunPlan plan = test_plan();
  runner::Options opt = opts();
  opt.fault_spec = "exit:shard=1:code=7";  // every attempt of unit 1 fails
  opt.max_retries = 1;
  const api::RunReport multi = runner::execute(plan, opt);
  EXPECT_FALSE(multi.pass);
  EXPECT_NE(multi.error.find("unit 1"), std::string::npos) << multi.error;
  // attempt 0 + one retry, both recorded with the worker's exit code.
  expect_events(multi, 1, "exit", 7, {0, 1});
  EXPECT_EQ(count_events(multi, 1, "ok"), 0);
}

TEST_P(RunnerFaults, OomFaultClassifiedAndRetried) {
  const api::RunPlan plan = test_plan();
  runner::Options opt = opts();
  opt.fault_spec = "oom:shard=1:attempt=0";
  const api::RunReport multi = runner::execute(plan, opt);
  EXPECT_TRUE(multi.pass) << multi.error;
  EXPECT_EQ(comparable_dump(api::run(plan)), comparable_dump(multi));
  // Classified as a resource verdict, not a generic nonzero exit.
  expect_events(multi, 1, "oom", runner::kOomExitCode, {0});
  EXPECT_EQ(count_events(multi, 1, "exit"), 0);
  EXPECT_EQ(count_events(multi, 1, "ok"), 1);
}

TEST_P(RunnerFaults, DroppedConnectionRedispatches) {
  // The agent hard-closes its connection when unit 2's first dispatch
  // arrives: every attempt in flight on it, unit 2's included, is a
  // "disconnect", and the coordinator redials (a fresh socketpair for the
  // local slots) to finish the run.
  const api::RunPlan plan = test_plan();
  runner::Options opt = opts();
  opt.fault_spec = "drop_conn:shard=2:attempt=0";
  const api::RunReport multi = runner::execute(plan, opt);
  EXPECT_TRUE(multi.pass) << multi.error;
  EXPECT_EQ(comparable_dump(api::run(plan)), comparable_dump(multi));
  expect_lost_with(multi, "disconnect", 2);
}

TEST_P(RunnerFaults, GarbledFrameRedispatches) {
  // The agent flips a byte inside unit 1's first result frame: the CRC
  // check drops the connection, and everything in flight on it is
  // "garbled" and re-dispatched.
  const api::RunPlan plan = test_plan();
  runner::Options opt = opts();
  opt.fault_spec = "garble_frame:shard=1:attempt=0";
  const api::RunReport multi = runner::execute(plan, opt);
  EXPECT_TRUE(multi.pass) << multi.error;
  EXPECT_EQ(comparable_dump(api::run(plan)), comparable_dump(multi));
  expect_lost_with(multi, "garbled", 1);
}

INSTANTIATE_TEST_SUITE_P(Placements, RunnerFaults,
                         ::testing::Values(Placement::kLocal,
                                           Placement::kAgent),
                         [](const ::testing::TestParamInfo<Placement>& info) {
                           return ::testing::PrintToString(info.param);
                         });

// ---------------------------------------------------------------------------
// runner::proc — one worker process's life, on plain /bin/sh children.

proc::Outcome run_and_classify(const std::string& script,
                               const std::string& out_path) {
  const proc::Spawned s = proc::spawn({"/bin/sh", "-c", script});
  EXPECT_GT(s.pid, 0) << s.error;
  const std::optional<proc::Reaped> r = proc::reap(s.pid, /*block=*/true);
  EXPECT_TRUE(r.has_value());
  return proc::classify(r ? r->status : 0, out_path);
}

TEST(RunnerProc, ClassifiesHowAWorkerEnded) {
  const std::string out =
      "/tmp/kronotri_proc" + std::to_string(::getpid()) + ".frame";
  ::unlink(out.c_str());
  proc::Outcome o = run_and_classify("exit 7", out);
  EXPECT_EQ(o.kind, "exit");
  EXPECT_EQ(o.detail, 7);
  o = run_and_classify("exit " + std::to_string(runner::kOomExitCode), out);
  EXPECT_EQ(o.kind, "oom");
  EXPECT_EQ(o.detail, runner::kOomExitCode);
  o = run_and_classify("kill -9 $$", out);
  EXPECT_EQ(o.kind, "signal");
  EXPECT_EQ(o.detail, SIGKILL);
  o = run_and_classify("exit 0", out);  // clean exit, no frame
  EXPECT_EQ(o.kind, "truncated");
  EXPECT_FALSE(o.payload.has_value());

  // A verified frame is a result however the process ended afterwards;
  // a frame with trailing bytes is not.
  const std::string frame = util::journal::encode_frame("{\"x\":1}");
  {
    std::ofstream f(out, std::ios::binary | std::ios::trunc);
    f << frame;
  }
  o = run_and_classify("kill -9 $$", out);
  EXPECT_EQ(o.kind, "ok");
  EXPECT_EQ(o.detail, 0);
  EXPECT_EQ(o.payload.value_or(""), "{\"x\":1}");
  {
    std::ofstream f(out, std::ios::binary | std::ios::app);
    f << "x";
  }
  o = run_and_classify("exit 0", out);
  EXPECT_EQ(o.kind, "truncated");
  ::unlink(out.c_str());
}

TEST(RunnerProc, ExecFailureExits127AndReapWaitsForTheChild) {
  const proc::Spawned s = proc::spawn({"/nonexistent/kronotri"});
  ASSERT_GT(s.pid, 0) << s.error;
  const std::optional<proc::Reaped> r = proc::reap(s.pid, /*block=*/true);
  ASSERT_TRUE(r.has_value());
  const proc::Outcome o = proc::classify(r->status, "/nonexistent/out");
  EXPECT_EQ(o.kind, "exit");
  EXPECT_EQ(o.detail, 127);
  // Reaped once: a second non-blocking reap finds nothing.
  EXPECT_FALSE(proc::reap(s.pid).has_value());
}

// ---------------------------------------------------------------------------
// Durable runs: --journal / --resume / resource guards.

/// A private journal directory per test, emptied on entry and exit.
struct TempDir {
  std::string path;
  explicit TempDir(const std::string& tag)
      : path("/tmp/kronotri_rt" + std::to_string(::getpid()) + "_" + tag) {
    nuke();
    ::mkdir(path.c_str(), 0755);
  }
  ~TempDir() {
    nuke();
    ::rmdir(path.c_str());
  }
  void nuke() const {
    DIR* d = ::opendir(path.c_str());
    if (d == nullptr) return;
    while (dirent* e = ::readdir(d)) {
      const std::string n = e->d_name;
      if (n != "." && n != "..") ::unlink((path + "/" + n).c_str());
    }
    ::closedir(d);
  }
};

std::set<unsigned> units_with(const api::RunReport& report,
                              const std::string& outcome) {
  std::set<unsigned> out;
  for (const api::WorkerEvent& e : report.worker_events) {
    if (e.outcome == outcome) out.insert(e.unit);
  }
  return out;
}

TEST(RunnerJournal, JournaledRunMatchesSerialAndPersists) {
  const api::RunPlan plan = test_plan();
  const TempDir dir("journaled");
  runner::Options opt = test_opts();
  opt.journal_dir = dir.path;
  const api::RunReport multi = runner::execute(plan, opt);
  EXPECT_TRUE(multi.pass);
  EXPECT_TRUE(multi.error.empty()) << multi.error;
  EXPECT_EQ(comparable_dump(api::run(plan)), comparable_dump(multi));

  // The durable artifacts: a WAL whose head is the plan record, and one
  // verified fragment frame per unit.
  const util::journal::Decoded dec =
      util::journal::Journal::read(dir.path + "/run.journal");
  EXPECT_EQ(dec.tail, util::journal::Decoded::Tail::kClean);
  ASSERT_FALSE(dec.frames.empty());
  const util::json::Value head = util::json::Value::parse(dec.frames[0]);
  EXPECT_EQ(head.get_string("type", ""), "plan");
  EXPECT_EQ(head.get_uint("identity", 0), runner::plan_identity_hash(plan));
  const std::uint64_t unit_count = head.get_uint("units", 0);
  ASSERT_GT(unit_count, 1u);
  for (std::uint64_t u = 0; u < unit_count; ++u) {
    const auto bytes = util::journal::read_file(
        dir.path + "/unit" + std::to_string(u) + ".frag");
    ASSERT_TRUE(bytes.has_value()) << "unit " << u;
    const util::journal::Decoded frag = util::journal::decode_frames(*bytes);
    EXPECT_EQ(frag.tail, util::journal::Decoded::Tail::kClean);
    EXPECT_EQ(frag.frames.size(), 1u);
  }
}

TEST(RunnerJournal, ResumeOfCompleteRunReloadsEveryUnit) {
  const api::RunPlan plan = test_plan();
  const TempDir dir("resume_complete");
  runner::Options opt = test_opts();
  opt.journal_dir = dir.path;
  const api::RunReport first = runner::execute(plan, opt);
  ASSERT_TRUE(first.pass);

  opt.resume = true;
  const api::RunReport second = runner::execute(plan, opt);
  EXPECT_TRUE(second.pass);
  EXPECT_EQ(comparable_dump(first), comparable_dump(second));
  // Nothing re-executes: every unit comes back from the journal.
  EXPECT_TRUE(units_with(second, "ok").empty());
  EXPECT_EQ(units_with(second, "resumed").size(),
            units_with(first, "ok").size());
}

TEST(RunnerJournal, ResumeSkipsCompletedUnitsAndMatchesSerial) {
  const api::RunPlan plan = test_plan();
  const TempDir dir("resume_partial");
  runner::Options opt = test_opts();
  opt.journal_dir = dir.path;
  // The LAST validate unit fails every attempt with no retry budget: units
  // dispatched earlier finish (and journal their fragments) first, then
  // the run aborts — the journaled prefix of a crashed run.
  opt.fault_spec = "exit:shard=6:code=9";
  opt.max_retries = 0;
  const api::RunReport first = runner::execute(plan, opt);
  ASSERT_FALSE(first.pass);
  ASSERT_FALSE(first.error.empty());

  opt.fault_spec.clear();
  opt.max_retries = 2;
  opt.resume = true;
  const api::RunReport second = runner::execute(plan, opt);
  EXPECT_TRUE(second.pass);
  EXPECT_TRUE(second.error.empty()) << second.error;
  EXPECT_EQ(comparable_dump(api::run(plan)), comparable_dump(second));

  // The resume contract: a unit is reloaded XOR re-executed, never both;
  // the unit that never completed is re-executed.
  const std::set<unsigned> resumed = units_with(second, "resumed");
  const std::set<unsigned> executed = units_with(second, "ok");
  for (const unsigned u : resumed) {
    EXPECT_EQ(executed.count(u), 0u) << "unit " << u << " resumed AND re-run";
  }
  EXPECT_EQ(executed.count(6), 1u) << "failed unit must re-execute";
  // Every unit arrived one way or the other: 1 base + 6 validate units.
  EXPECT_EQ(resumed.size() + executed.size(), 7u);
}

TEST(RunnerJournal, TornWriteReexecutesOnlyTheDamagedUnit) {
  const api::RunPlan plan = test_plan();
  const TempDir dir("torn");
  runner::Options opt = test_opts();
  opt.journal_dir = dir.path;
  // The coordinator tears unit 2's fragment mid-persist: the live run
  // still passes (its in-memory fragment is fine) but the durable copy is
  // damaged goods a resume must refuse.
  opt.fault_spec = "torn_write:shard=2:attempt=0";
  const api::RunReport first = runner::execute(plan, opt);
  ASSERT_TRUE(first.pass);
  EXPECT_EQ(comparable_dump(api::run(plan)), comparable_dump(first));

  opt.fault_spec.clear();
  opt.resume = true;
  const api::RunReport second = runner::execute(plan, opt);
  EXPECT_TRUE(second.pass);
  EXPECT_EQ(comparable_dump(api::run(plan)), comparable_dump(second));
  // Only unit 2 is detected corrupt and re-executed; everything else
  // resumes from its verified fragment.
  EXPECT_EQ(units_with(second, "corrupt"), std::set<unsigned>{2u});
  EXPECT_EQ(units_with(second, "ok"), std::set<unsigned>{2u});
  EXPECT_EQ(units_with(second, "resumed").count(2u), 0u);
  EXPECT_FALSE(units_with(second, "resumed").empty());
}

TEST(RunnerJournal, PlanMismatchFailsStructurally) {
  api::RunPlan plan = test_plan();
  const TempDir dir("mismatch");
  runner::Options opt = test_opts();
  opt.journal_dir = dir.path;
  ASSERT_TRUE(runner::execute(plan, opt).pass);

  api::RunPlan other = api::RunPlan::parse(
      "kron:(hk:n=40,m=2,p=0.5,seed=8)x(hk:n=40,m=2,p=0.5,seed=8,loops=1) "
      "census:edges=1 degree:histogram=0 validate:mem_budget=8K");
  other.options.threads = 2;
  opt.resume = true;
  const api::RunReport report = runner::execute(other, opt);
  EXPECT_FALSE(report.pass);
  EXPECT_NE(report.error.find("different plan"), std::string::npos)
      << report.error;
  // Distribution knobs are NOT identity: resuming with different workers
  // and retry budget must still verify.
  opt.workers = 2;
  opt.max_retries = 7;
  const api::RunReport ok = runner::execute(plan, opt);
  EXPECT_TRUE(ok.pass) << ok.error;
}

TEST(RunnerJournal, TruncatedJournalTailResumesFromValidPrefix) {
  const api::RunPlan plan = test_plan();
  const TempDir dir("torn_tail");
  runner::Options opt = test_opts();
  opt.journal_dir = dir.path;
  ASSERT_TRUE(runner::execute(plan, opt).pass);

  // A crash mid-append: half a frame of a would-be record on the tail.
  {
    util::journal::Journal wal;
    wal.open(dir.path + "/run.journal");
    wal.append_torn("{\"type\":\"dispatch\",\"unit\":1,\"attempt\":9}", 14);
  }
  opt.resume = true;
  const api::RunReport report = runner::execute(plan, opt);
  EXPECT_TRUE(report.pass) << report.error;
  EXPECT_EQ(comparable_dump(api::run(plan)), comparable_dump(report));
  EXPECT_TRUE(units_with(report, "ok").empty());
}

TEST(RunnerJournal, FlippedJournalByteResumesFromValidPrefix) {
  const api::RunPlan plan = test_plan();
  const TempDir dir("flipped");
  runner::Options opt = test_opts();
  opt.journal_dir = dir.path;
  ASSERT_TRUE(runner::execute(plan, opt).pass);

  // Flip one byte in the LAST record's CRC: the damaged record (and only
  // it) is dropped; that unit re-executes off the surviving prefix.
  const std::string jpath = dir.path + "/run.journal";
  std::string bytes = util::journal::read_file(jpath).value();
  bytes.back() ^= 0x10;
  util::journal::atomic_write_file(jpath, bytes);

  opt.resume = true;
  const api::RunReport report = runner::execute(plan, opt);
  EXPECT_TRUE(report.pass) << report.error;
  EXPECT_EQ(comparable_dump(api::run(plan)), comparable_dump(report));
}

TEST(RunnerJournal, DuplicateDoneRecordIsIdempotent) {
  const api::RunPlan plan = test_plan();
  const TempDir dir("dup");
  runner::Options opt = test_opts();
  opt.journal_dir = dir.path;
  const api::RunReport first = runner::execute(plan, opt);
  ASSERT_TRUE(first.pass);

  // Re-append an existing done record verbatim (a crash between persist
  // and WAL-ack could produce exactly this on a real resume-of-a-resume).
  const util::journal::Decoded dec =
      util::journal::Journal::read(dir.path + "/run.journal");
  std::string done_payload;
  for (const std::string& payload : dec.frames) {
    if (util::json::Value::parse(payload).get_string("type", "") == "done") {
      done_payload = payload;
      break;
    }
  }
  ASSERT_FALSE(done_payload.empty());
  {
    util::journal::Journal wal;
    wal.open(dir.path + "/run.journal");
    wal.append(done_payload);
  }

  opt.resume = true;
  const api::RunReport report = runner::execute(plan, opt);
  EXPECT_TRUE(report.pass) << report.error;
  EXPECT_EQ(comparable_dump(first), comparable_dump(report));
  // Merged exactly once: the duplicate must not double any unit's counts
  // (the comparable equality above is the real assertion; no re-runs is
  // the cheap structural one).
  EXPECT_TRUE(units_with(report, "ok").empty());
}

TEST(RunnerJournal, ResumeWithoutJournalDirThrows) {
  runner::Options opt = test_opts();
  opt.resume = true;
  EXPECT_THROW(runner::execute(test_plan(), opt), std::invalid_argument);
}

TEST(RunnerJournal, IdentityHashStripsDistributionOptions) {
  api::RunPlan a = test_plan();
  api::RunPlan b = test_plan();
  b.options.workers = 9;
  b.options.shard_timeout_s = 3;
  b.options.max_retries = 0;
  b.options.fault = "kill";
  EXPECT_EQ(runner::plan_identity_hash(a), runner::plan_identity_hash(b));
  b.options.seed = 12345;  // content-bearing → different identity
  EXPECT_NE(runner::plan_identity_hash(a), runner::plan_identity_hash(b));
}

// ---------------------------------------------------------------------------
// Per-host OpenMP thread budgets.

/// Every `ok` attempt must report the team it ran with: `want`.
void expect_ok_events_at(const api::RunReport& report, unsigned want) {
  int ok = 0;
  for (const api::WorkerEvent& e : report.worker_events) {
    if (e.outcome != "ok") continue;
    ++ok;
    EXPECT_EQ(e.omp_threads, want) << "unit " << e.unit;
  }
  EXPECT_GT(ok, 0);
}

TEST(RunnerBudget, RuleSplitsCoresAcrossSlots) {
  const unsigned cpus = util::affinity_cpus();
  const unsigned ceiling = util::omp_max_threads();
  ASSERT_GE(cpus, 1u);
  EXPECT_EQ(util::omp_budget(1), std::max(1u, std::min(ceiling, cpus)));
  EXPECT_EQ(util::omp_budget(0), util::omp_budget(1));
  EXPECT_EQ(util::omp_budget(3), std::max(1u, std::min(ceiling, cpus / 3)));
  EXPECT_EQ(util::omp_budget(cpus + 1), 1u);  // more slots than cores
}

TEST(RunnerBudget, CeilingCapsTheBudgetAndReportsStayIdentical) {
  // The calling thread's OpenMP ceiling (what OMP_NUM_THREADS sets) caps
  // the budget. One journaled worker slot lets the budget reach the
  // ceiling on any host with that many cores; a fresh thread keeps the
  // ceiling away from the rest of the suite.
  const api::RunPlan plan = test_plan();
  const std::string serial = comparable_dump(api::run(plan));
  for (const unsigned ceiling : {1u, 2u, 4u}) {
    SCOPED_TRACE("ceiling=" + std::to_string(ceiling));
    const TempDir dir("budget" + std::to_string(ceiling));
    runner::Options opt = test_opts();
    opt.workers = 1;
    opt.journal_dir = dir.path;
    api::RunReport multi;
    unsigned budget = 0;
    std::thread([&] {
      util::set_omp_threads(ceiling);
      budget = util::omp_budget(opt.workers);
      multi = runner::execute(plan, opt);
    }).join();
    EXPECT_EQ(budget, std::min(ceiling, util::affinity_cpus()));
    ASSERT_TRUE(multi.pass) << multi.error;
    EXPECT_EQ(serial, comparable_dump(multi));
    expect_ok_events_at(multi, budget);
    EXPECT_EQ(multi.metadata.get_uint("omp_max_threads", 0), budget);
  }
}

TEST(RunnerGuard, GenerousMemLimitStillPasses) {
#ifdef KRONOTRI_ASAN
  GTEST_SKIP() << "RLIMIT_AS is incompatible with ASan shadow memory";
#else
  const api::RunPlan plan = test_plan();
  runner::Options opt = test_opts();
  opt.worker_mem_limit_bytes = 4ull << 30;  // plenty for this tiny plan
  const api::RunReport multi = runner::execute(plan, opt);
  EXPECT_TRUE(multi.pass) << multi.error;
  EXPECT_EQ(comparable_dump(api::run(plan)), comparable_dump(multi));
  for (const api::WorkerEvent& e : multi.worker_events) {
    EXPECT_EQ(e.outcome, "ok");
  }
#endif
}

}  // namespace
