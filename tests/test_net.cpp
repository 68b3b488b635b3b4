// src/net/ — multi-node RunPlan execution over the socket transport.
//
// The contract under test: a plan run over --agents loopback agents,
// with or without injected partitions (drop_conn), garbled result
// frames (garble_frame), silent agents (heartbeat timeout) and
// duplicate result delivery, merges to a report BIT-IDENTICAL under
// runner::comparable() to the in-process serial run — and the
// --journal/--resume cycle across an agent death re-executes only the
// damaged units.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include "api/plan.hpp"
#include "net/agent.hpp"
#include "net/framing.hpp"
#include "net/remote.hpp"
#include "net/socket.hpp"
#include "runner/runner.hpp"
#include "util/backoff.hpp"
#include "util/journal.hpp"
#include "util/json.hpp"
#include "util/threads.hpp"

namespace {

using namespace kronotri;
using util::json::Value;

// Same small product as test_runner.cpp: a base unit (census + degree)
// plus several validate shard-subset units.
constexpr const char* kPlanText =
    "kron:(hk:n=40,m=2,p=0.5,seed=7)x(hk:n=40,m=2,p=0.5,seed=7,loops=1) "
    "census:edges=1 degree:histogram=0 validate:mem_budget=8K";

api::RunPlan test_plan(unsigned threads = 2) {
  api::RunPlan plan = api::RunPlan::parse(kPlanText);
  plan.options.threads = threads;
  return plan;
}

std::string comparable_dump(const api::RunReport& report) {
  return runner::comparable(report.to_json()).dump_string(2);
}

int count_outcomes(const api::RunReport& report, const std::string& outcome) {
  int n = 0;
  for (const api::WorkerEvent& e : report.worker_events) {
    if (e.outcome == outcome) ++n;
  }
  return n;
}

std::set<unsigned> units_with(const api::RunReport& report,
                              const std::string& outcome) {
  std::set<unsigned> out;
  for (const api::WorkerEvent& e : report.worker_events) {
    if (e.outcome == outcome) out.insert(e.unit);
  }
  return out;
}

struct TempDir {
  std::string path;
  explicit TempDir(const std::string& tag)
      : path("/tmp/kronotri_net" + std::to_string(::getpid()) + "_" + tag) {
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

/// Remote-only runner options: no local slots, fast polling, agents only.
runner::Options remote_opts(const std::vector<std::string>& agents) {
  runner::Options opt;
  opt.workers = 0;
  opt.agents = agents;
  opt.straggler_min_s = 60;  // no accidental speculation on a loaded box
  opt.agent_connect_timeout_s = 2.0;
  return opt;
}

// ---------------------------------------------------------------------------
// Endpoint / framing / slots unit tests.

TEST(Net, ParseEndpointForms) {
  const net::Endpoint tcp = net::parse_endpoint("example.org:9471");
  EXPECT_EQ(tcp.kind, net::Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp.host, "example.org");
  EXPECT_EQ(tcp.port, 9471);

  const net::Endpoint v4 = net::parse_endpoint("127.0.0.1:80");
  EXPECT_EQ(v4.kind, net::Endpoint::Kind::kTcp);
  EXPECT_EQ(v4.host, "127.0.0.1");
  EXPECT_EQ(v4.port, 80);

  const net::Endpoint ux = net::parse_endpoint("unix:/run/kt.sock");
  EXPECT_EQ(ux.kind, net::Endpoint::Kind::kUnix);
  EXPECT_EQ(ux.path, "/run/kt.sock");

  const net::Endpoint bare = net::parse_endpoint("./kt.sock");
  EXPECT_EQ(bare.kind, net::Endpoint::Kind::kUnix);
  EXPECT_EQ(bare.path, "./kt.sock");

  EXPECT_THROW((void)net::parse_endpoint(""), std::invalid_argument);
  EXPECT_THROW((void)net::parse_endpoint("nohost"), std::invalid_argument);
  EXPECT_THROW((void)net::parse_endpoint("host:"), std::invalid_argument);
  EXPECT_THROW((void)net::parse_endpoint(":80"), std::invalid_argument);
  EXPECT_THROW((void)net::parse_endpoint("host:notaport"),
               std::invalid_argument);
}

TEST(Net, FrameReaderRoundTripAndSplitFeed) {
  Value msg = Value::object();
  msg.set("type", "hello");
  msg.set("proto", net::kProtoVersion);
  const std::string bytes = net::encode_message(msg);

  // Whole-frame feed.
  net::FrameReader r;
  r.feed(bytes);
  std::string payload;
  ASSERT_EQ(r.next(payload), net::FrameReader::Status::kFrame);
  EXPECT_EQ(Value::parse(payload).get_string("type", ""), "hello");
  EXPECT_EQ(r.next(payload), net::FrameReader::Status::kNeedMore);

  // Byte-at-a-time feed: a frame split across arbitrary reads must
  // assemble identically.
  net::FrameReader slow;
  int frames = 0;
  for (char c : bytes) {
    slow.feed(std::string_view(&c, 1));
    while (slow.next(payload) == net::FrameReader::Status::kFrame) ++frames;
  }
  EXPECT_EQ(frames, 1);
  EXPECT_EQ(Value::parse(payload).get_string("type", ""), "hello");
}

TEST(Net, FrameReaderRejectsGarbledFrame) {
  Value msg = Value::object();
  msg.set("type", "result");
  msg.set("unit", 3);
  std::string bytes = net::encode_message(msg);
  // Flip one payload byte: length still parses, CRC must catch it.
  bytes[util::journal::kFrameOverhead / 2 + bytes.size() / 2] ^= 0x20;
  net::FrameReader r;
  r.feed(bytes);
  std::string payload;
  EXPECT_EQ(r.next(payload), net::FrameReader::Status::kCorrupt);
}

TEST(Net, FrameReaderRejectsBadMagic) {
  net::FrameReader r;
  r.feed("XXXX garbage that is not a journal frame");
  std::string payload;
  EXPECT_EQ(r.next(payload), net::FrameReader::Status::kCorrupt);
}

TEST(Net, ParseSlots) {
  EXPECT_EQ(net::parse_slots("3"), 3u);
  EXPECT_GE(net::parse_slots("auto"), 1u);  // hardware_concurrency, >= 1
  EXPECT_THROW((void)net::parse_slots("0"), std::invalid_argument);
  EXPECT_THROW((void)net::parse_slots("-2"), std::invalid_argument);
  EXPECT_THROW((void)net::parse_slots("lots"), std::invalid_argument);
  EXPECT_THROW((void)net::parse_slots(""), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Agent handshake.

TEST(Net, AgentHandshakeAdvertisesSlots) {
  net::AgentOptions aopt;
  aopt.slots = 3;
  net::Agent agent(aopt);
  std::string err;
  ASSERT_TRUE(agent.start(&err)) << err;
  ASSERT_GT(agent.port(), 0);

  net::AgentClient client;
  ASSERT_TRUE(client.connect(agent.endpoint(), &err)) << err;
  // The welcome arrives asynchronously through pump().
  Value welcome;
  bool got = false;
  for (int spin = 0; spin < 500 && !got; ++spin) {
    std::vector<Value> msgs;
    const net::AgentClient::Pump ps = client.pump(msgs);
    ASSERT_NE(ps, net::AgentClient::Pump::kCorrupt);
    for (Value& m : msgs) {
      if (m.get_string("type", "") == "welcome") {
        welcome = std::move(m);
        got = true;
      }
    }
    if (!got) util::Backoff::sleep_s(0.01);
  }
  ASSERT_TRUE(got) << "no welcome within 5s";
  EXPECT_EQ(welcome.get_uint("slots", 0), 3u);
  EXPECT_EQ(welcome.get_uint("proto", 0),
            static_cast<std::uint64_t>(net::kProtoVersion));
  client.close();
  agent.stop();
}

// ---------------------------------------------------------------------------
// End-to-end: pure-remote runs over loopback agents.

TEST(Net, RemoteMatchesSerialAcrossThreadCounts) {
  // OMP width must not leak into the merged report: the remote merge is
  // bit-identical to the serial run at 1, 2 and 8 threads alike.
  for (const unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const api::RunPlan plan = test_plan(threads);
    const api::RunReport serial = api::run(plan);

    net::Agent a1{net::AgentOptions{}};
    net::Agent a2{net::AgentOptions{}};
    std::string err;
    ASSERT_TRUE(a1.start(&err)) << err;
    ASSERT_TRUE(a2.start(&err)) << err;
    const api::RunReport remote = runner::execute(
        plan, remote_opts({a1.endpoint(), a2.endpoint()}));
    a1.stop();
    a2.stop();

    EXPECT_TRUE(remote.pass);
    EXPECT_TRUE(remote.error.empty()) << remote.error;
    EXPECT_EQ(comparable_dump(serial), comparable_dump(remote));
    // Every attempt ran remotely, and carries its agent endpoint.
    EXPECT_GT(remote.worker_events.size(), 0u);
    for (const api::WorkerEvent& e : remote.worker_events) {
      EXPECT_EQ(e.outcome, "ok") << "unit " << e.unit;
      EXPECT_FALSE(e.host.empty()) << "unit " << e.unit;
    }
  }
}

TEST(Net, MixedLocalAndRemoteMatchesSerial) {
  // Each host splits its own cores: local attempts run at the
  // coordinator's budget for its 2 slots, remote ones at the agent's
  // budget for its 1 slot.
  const api::RunPlan plan = test_plan();
  const api::RunReport serial = api::run(plan);

  net::Agent agent{net::AgentOptions{}};
  std::string err;
  ASSERT_TRUE(agent.start(&err)) << err;
  EXPECT_EQ(agent.omp_threads(), util::omp_budget(1));
  runner::Options opt = remote_opts({agent.endpoint()});
  opt.workers = 2;  // local fork/exec slots next to the agent's
  const api::RunReport mixed = runner::execute(plan, opt);
  agent.stop();

  EXPECT_TRUE(mixed.pass);
  EXPECT_EQ(comparable_dump(serial), comparable_dump(mixed));
  int remote = 0;
  for (const api::WorkerEvent& e : mixed.worker_events) {
    if (e.outcome != "ok") continue;
    remote += e.host.empty() ? 0 : 1;
    EXPECT_EQ(e.omp_threads, util::omp_budget(e.host.empty() ? 2 : 1))
        << "unit " << e.unit << " host " << e.host;
  }
  EXPECT_GT(remote, 0);
}

TEST(Net, CeilingCapsTheAgentBudgetAndReportsStayIdentical) {
  // The agent takes its ceiling (what OMP_NUM_THREADS sets) from the thread
  // that starts it; one slot lets the budget reach the ceiling on any host
  // with that many cores.
  const api::RunPlan plan = test_plan();
  const std::string serial = comparable_dump(api::run(plan));
  for (const unsigned ceiling : {1u, 2u, 4u}) {
    SCOPED_TRACE("ceiling=" + std::to_string(ceiling));
    net::Agent agent{net::AgentOptions{}};
    std::string err;
    bool started = false;
    std::thread([&] {
      util::set_omp_threads(ceiling);
      started = agent.start(&err);
    }).join();
    ASSERT_TRUE(started) << err;
    const unsigned budget = std::min(ceiling, util::affinity_cpus());
    EXPECT_EQ(agent.omp_threads(), budget);
    const api::RunReport remote =
        runner::execute(plan, remote_opts({agent.endpoint()}));
    agent.stop();
    ASSERT_TRUE(remote.pass) << remote.error;
    EXPECT_EQ(serial, comparable_dump(remote));
    for (const api::WorkerEvent& e : remote.worker_events) {
      EXPECT_EQ(e.outcome, "ok") << "unit " << e.unit;
      EXPECT_EQ(e.omp_threads, budget) << "unit " << e.unit;
    }
    EXPECT_EQ(remote.metadata.get_uint("omp_max_threads", 0), budget);
  }
}

TEST(Net, AgentDiesMidUnitRedispatches) {
  // drop_conn fires inside the agent when the dispatch for (unit 2,
  // attempt 0) arrives: children are SIGKILLed and the socket slams
  // shut. The coordinator classifies whatever was in flight as
  // "disconnect", re-dials, and the retry completes the run.
  const api::RunPlan plan = test_plan();
  const api::RunReport serial = api::run(plan);

  net::Agent agent{net::AgentOptions{}};
  std::string err;
  ASSERT_TRUE(agent.start(&err)) << err;
  runner::Options opt = remote_opts({agent.endpoint()});
  opt.fault_spec = "drop_conn:shard=2:attempt=0";
  const api::RunReport report = runner::execute(plan, opt);
  agent.stop();

  EXPECT_TRUE(report.pass) << report.error;
  EXPECT_GE(count_outcomes(report, "disconnect"), 1);
  EXPECT_EQ(comparable_dump(serial), comparable_dump(report));
}

TEST(Net, GarbledFrameIsRejectedAndRedispatched) {
  // garble_frame flips a byte inside the framed result for (unit 1,
  // attempt 0). The coordinator's CRC check — not luck — must catch it:
  // the attempt classifies "garbled" and the re-dispatch completes.
  const api::RunPlan plan = test_plan();
  const api::RunReport serial = api::run(plan);

  net::Agent agent{net::AgentOptions{}};
  std::string err;
  ASSERT_TRUE(agent.start(&err)) << err;
  runner::Options opt = remote_opts({agent.endpoint()});
  opt.fault_spec = "garble_frame:shard=1:attempt=0";
  const api::RunReport report = runner::execute(plan, opt);
  agent.stop();

  EXPECT_TRUE(report.pass) << report.error;
  EXPECT_GE(count_outcomes(report, "garbled"), 1);
  EXPECT_EQ(comparable_dump(serial), comparable_dump(report));
}

TEST(Net, UnreachableAgentsFailStructurally) {
  api::RunPlan plan = test_plan();
  runner::Options opt = remote_opts({"127.0.0.1:1"});  // nothing listens
  opt.agent_connect_timeout_s = 0.2;
  opt.max_retries = 0;
  opt.backoff = util::Backoff{0.01, 2.0, 0.05};
  const api::RunReport report = runner::execute(plan, opt);
  EXPECT_FALSE(report.pass);
  EXPECT_NE(report.error.find("no reachable agents"), std::string::npos)
      << report.error;
}

// ---------------------------------------------------------------------------
// Scripted fake agent: heartbeat-timeout and duplicate-result paths that
// a well-behaved net::Agent never exercises.

/// Minimal scripted agent: accepts connections in a loop; the first
/// connection goes SILENT after its welcome (no heartbeats, no results —
/// the coordinator's heartbeat timeout has to declare it dead), every
/// later connection executes dispatched units in-process and sends each
/// result `result_copies` times (redelivery after a reconnect must be
/// idempotent).
class FakeAgent {
 public:
  explicit FakeAgent(int silent_connections, int result_copies = 1)
      : silent_left_(silent_connections), result_copies_(result_copies) {}

  ~FakeAgent() { stop(); }

  bool start(std::string* error) {
    net::ListenResult lr = net::listen_tcp("127.0.0.1", 0);
    if (!lr.ok()) {
      *error = lr.error;
      return false;
    }
    fd_ = lr.fd;
    port_ = lr.port;
    running_.store(true);
    thread_ = std::thread([this] { accept_loop(); });
    return true;
  }

  void stop() {
    if (!running_.exchange(false)) return;
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] std::string endpoint() const {
    return "127.0.0.1:" + std::to_string(port_);
  }

 private:
  void accept_loop() {
    while (running_.load()) {
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 100) <= 0) continue;
      const int conn = ::accept(fd_, nullptr, nullptr);
      if (conn < 0) continue;
      serve(conn);
      ::close(conn);
    }
  }

  void serve(int conn) {
    const bool silent = silent_left_ > 0;
    if (silent) --silent_left_;
    net::FrameReader reader;
    const auto send = [&](const Value& m) {
      (void)net::write_all(conn, net::encode_message(m));
    };
    while (running_.load()) {
      pollfd pfd{conn, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 50);
      if (ready > 0) {
        std::string chunk;
        const net::IoStatus st = net::read_some(conn, chunk);
        if (st == net::IoStatus::kEof || st == net::IoStatus::kError) return;
        reader.feed(chunk);
      }
      std::string payload;
      net::FrameReader::Status fs;
      while ((fs = reader.next(payload)) == net::FrameReader::Status::kFrame) {
        const Value msg = Value::parse(payload);
        const std::string type = msg.get_string("type", "");
        if (type == "hello") {
          Value w = Value::object();
          w.set("type", "welcome");
          w.set("proto", net::kProtoVersion);
          w.set("slots", 2);
          send(w);
        } else if (type == "dispatch") {
          if (silent) continue;  // swallow the unit, say nothing, ever
          // Execute the child plan in-process — the fake agent IS the
          // test binary, api::run is right here.
          const api::RunPlan plan =
              api::RunPlan::parse(msg.get_string("plan", ""));
          const api::RunReport report = api::run(plan);
          Value r = Value::object();
          r.set("type", "result");
          r.set("unit", msg.get_uint("unit", 0));
          r.set("attempt", msg.get_uint("attempt", 0));
          r.set("pid", static_cast<std::int64_t>(::getpid()));
          r.set("wall_s", 0.0);
          r.set("outcome", "ok");
          r.set("fragment", report.to_json().dump_string(0));
          for (int i = 0; i < result_copies_; ++i) send(r);
        }
        // cancel: nothing in flight long enough to matter here.
      }
      if (fs == net::FrameReader::Status::kCorrupt) return;
      if (silent) {
        // Keep the connection open but never write: EOF must not be what
        // kills it — the heartbeat deadline must.
        continue;
      }
      Value hb = Value::object();
      hb.set("type", "heartbeat");
      send(hb);
    }
  }

  std::atomic<bool> running_{false};
  std::atomic<int> silent_left_;
  int result_copies_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

TEST(Net, SilentAgentHitsHeartbeatTimeout) {
  api::RunPlan plan = test_plan(1);
  const api::RunReport serial = api::run(plan);

  FakeAgent agent(/*silent_connections=*/1);
  std::string err;
  ASSERT_TRUE(agent.start(&err)) << err;
  runner::Options opt = remote_opts({agent.endpoint()});
  opt.heartbeat_timeout_s = 0.4;  // agents heartbeat at 4 Hz; 0 Hz is dead
  const api::RunReport report = runner::execute(plan, opt);
  agent.stop();

  EXPECT_TRUE(report.pass) << report.error;
  EXPECT_GE(count_outcomes(report, "disconnect"), 1);
  EXPECT_EQ(comparable_dump(serial), comparable_dump(report));
}

TEST(Net, DuplicateResultAfterReconnectIsIdempotent) {
  api::RunPlan plan = test_plan(1);
  const api::RunReport serial = api::run(plan);

  FakeAgent agent(/*silent_connections=*/0, /*result_copies=*/2);
  std::string err;
  ASSERT_TRUE(agent.start(&err)) << err;
  const api::RunReport report =
      runner::execute(plan, remote_opts({agent.endpoint()}));
  agent.stop();

  EXPECT_TRUE(report.pass) << report.error;
  EXPECT_EQ(comparable_dump(serial), comparable_dump(report));
  // Exactly one "ok" per unit despite every result arriving twice; the
  // duplicates are counted, not replayed.
  std::set<unsigned> seen;
  for (const api::WorkerEvent& e : report.worker_events) {
    if (e.outcome != "ok") continue;
    EXPECT_TRUE(seen.insert(e.unit).second)
        << "unit " << e.unit << " completed twice";
  }
  const Value* dup = report.counters.find("runner.duplicate_results");
  ASSERT_NE(dup, nullptr);
  EXPECT_GE(dup->as_uint(), 1u);
}

// ---------------------------------------------------------------------------
// Durability across agent death.

TEST(Net, JournalResumeAcrossAgentDeath) {
  const TempDir dir("agent_death");
  api::RunPlan plan = test_plan();
  const api::RunReport serial = api::run(plan);

  // First run: one single-slot agent, and the connection is dropped when
  // unit 1's dispatch arrives. max_retries=0 turns that disconnect into
  // a structural failure — with unit 0 already journaled.
  net::Agent agent{net::AgentOptions{}};
  std::string err;
  ASSERT_TRUE(agent.start(&err)) << err;
  runner::Options opt = remote_opts({agent.endpoint()});
  opt.journal_dir = dir.path;
  opt.max_retries = 0;
  opt.fault_spec = "drop_conn:shard=1";
  const api::RunReport first = runner::execute(plan, opt);
  EXPECT_FALSE(first.pass);
  EXPECT_FALSE(first.error.empty());
  const std::set<unsigned> done_first = units_with(first, "ok");
  EXPECT_TRUE(done_first.count(0)) << "unit 0 should have completed";

  // Resume with the fault cleared: journaled units reload as "resumed",
  // only the damaged/never-run ones execute.
  opt.fault_spec = "";
  opt.resume = true;
  opt.max_retries = 2;
  const api::RunReport second = runner::execute(plan, opt);
  agent.stop();

  EXPECT_TRUE(second.pass) << second.error;
  EXPECT_EQ(units_with(second, "resumed"), done_first);
  for (const unsigned u : units_with(second, "ok")) {
    EXPECT_FALSE(done_first.count(u))
        << "unit " << u << " re-executed despite a verified fragment";
  }
  EXPECT_EQ(comparable_dump(serial), comparable_dump(second));
}

}  // namespace
