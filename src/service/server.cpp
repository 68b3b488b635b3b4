#include "service/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "service/admission.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "util/log.hpp"
#include "util/threads.hpp"

namespace kronotri::service {

namespace {

namespace journal = util::journal;

[[noreturn]] void socket_error(const std::string& what) {
  throw std::runtime_error("service: " + what + ": " + std::strerror(errno));
}

constexpr const char* kStateFile = "state.journal";

/// True when something on the other end of `path` answers a ping — the
/// probe that tells a live predecessor from a stale socket file.
bool socket_alive(const std::string& path) {
  try {
    ClientOptions copt;
    copt.connect_timeout_s = 0.5;
    copt.request_timeout_s = 1.0;
    Client client(copt);
    client.connect(path);
    util::json::Value ping = util::json::Value::object();
    ping.set("type", "ping");
    return client.request(ping).get_bool("pong", false);
  } catch (const std::exception&) {
    return false;
  }
}

/// The registry entries the service bumps, resolved once so the request
/// path pays relaxed atomics and never the registry lock. Each stats field
/// X is the delta of "service.X" (see Server::stats_json).
struct ServiceCounters {
  obs::Counter& requests = obs::counter("service.requests");
  obs::Counter& connections_opened =
      obs::counter("service.connections_opened");
  obs::Counter& client_disconnects =
      obs::counter("service.client_disconnects");  ///< mid-stream EOF/EPIPE
  obs::Counter& jobs_accepted = obs::counter("service.jobs_accepted");
  obs::Counter& jobs_completed = obs::counter("service.jobs_completed");
  obs::Counter& jobs_failed = obs::counter("service.jobs_failed");
  obs::Counter& jobs_replayed = obs::counter("service.jobs_replayed");
  obs::Counter& rejected_queue_full =
      obs::counter("service.rejected.queue_full");
  obs::Counter& rejected_over_budget =
      obs::counter("service.rejected.over_budget");
  obs::Counter& rejected_bad_request =
      obs::counter("service.rejected.bad_request");
  obs::Counter& rejected_draining = obs::counter("service.rejected.draining");
  obs::Counter& cache_hits = obs::counter("service.cache_hits");
  obs::Counter& cache_misses = obs::counter("service.cache_misses");
  /// Nanoseconds: queue wait, execution, and admission → response built.
  obs::Histogram& wait_ns = obs::histogram("service.latency.wait");
  obs::Histogram& execute_ns = obs::histogram("service.latency.execute");
  obs::Histogram& total_ns = obs::histogram("service.latency.total");
};

ServiceCounters& tally() {
  static ServiceCounters c;
  return c;
}

void record_s(obs::Histogram& h, double seconds) {
  h.record(static_cast<std::uint64_t>(std::max(0.0, seconds) * 1e9));
}

}  // namespace

Server::Server(ServerOptions opt, const api::GeneratorRegistry& generators,
               const api::AnalysisRegistry& analyses)
    : opt_(std::move(opt)),
      generators_(generators),
      analyses_(analyses),
      counters_start_(obs::CounterRegistry::instance().snapshot()),
      cache_(opt_.cache_bytes),
      queue_(std::make_unique<BoundedQueue<std::shared_ptr<Job>>>(
          opt_.queue_depth)) {
  if (opt_.workers == 0) opt_.workers = 1;
}

Server::~Server() { stop(); }

void Server::touch_activity() {
  last_activity_s_.store(uptime_.wall_s(), std::memory_order_relaxed);
}

double Server::seconds_idle() const {
  if (jobs_active_.load() > 0 || queue_->size() > 0) return 0;
  return uptime_.wall_s() -
         last_activity_s_.load(std::memory_order_relaxed);
}

void Server::start() {
  if (running_.exchange(true)) {
    throw std::logic_error("service: Server::start() called twice");
  }
  // A client hanging up mid-response must surface as a write_all failure
  // (counted in client_disconnects), never as a process-killing SIGPIPE.
  // write_all already passes MSG_NOSIGNAL where available; this covers
  // the fallback write() path and keeps the guarantee platform-wide.
  std::signal(SIGPIPE, SIG_IGN);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opt_.socket_path.empty() ||
      opt_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::invalid_argument("service: socket path empty or longer than " +
                                std::to_string(sizeof(addr.sun_path) - 1) +
                                " bytes: \"" + opt_.socket_path + "\"");
  }
  std::strncpy(addr.sun_path, opt_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);

  // Something already at the path is either a stale socket file a dead
  // predecessor left behind (reclaim it) or a LIVE server (refuse loudly —
  // unlinking it would steal its clients mid-flight). A ping probe tells
  // them apart; anything that is not a socket is never deleted.
  struct stat st {};
  if (::lstat(opt_.socket_path.c_str(), &st) == 0) {
    if (!S_ISSOCK(st.st_mode)) {
      running_ = false;
      throw std::runtime_error("service: " + opt_.socket_path +
                               " exists and is not a socket; refusing to "
                               "delete it");
    }
    if (socket_alive(opt_.socket_path)) {
      running_ = false;
      throw std::runtime_error("service: a live server already answers on " +
                               opt_.socket_path +
                               "; refusing to take over its socket");
    }
    ::unlink(opt_.socket_path.c_str());
  }

  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0) socket_error("socket");
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    socket_error("bind " + opt_.socket_path);
  }
  if (::listen(listen_fd_, 128) < 0) socket_error("listen");

  touch_activity();
  // Replay before the workers spawn: re-enqueued jobs sit in the queue and
  // are the first thing the pool drains.
  if (!opt_.state_dir.empty()) replay_state();
  // Each job worker's share of the cores, capped by this thread's OpenMP
  // ceiling: `workers` concurrent jobs must not each start a full team.
  omp_threads_ = util::omp_budget(opt_.workers);
  workers_.reserve(opt_.workers);
  for (unsigned i = 0; i < opt_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  acceptor_ = std::thread([this] { accept_loop(); });
  util::log::info("service", "listening",
                  {{"socket", opt_.socket_path},
                   {"workers", opt_.workers},
                   {"omp_threads", omp_threads_}});
}

void Server::stop() {
  if (!running_.exchange(false)) return;
  draining_ = true;

  // 1. Stop accepting: shutdown wakes a blocked accept(); close after join.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // 2. Drain: no new pushes succeed, workers pop the backlog dry and
  // fulfil every promise, so no connection thread can be stuck on a
  // future.
  queue_->close();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();

  // 3. Connections: every promise is fulfilled, but a connection thread
  // may still be between waking on its future and writing the frame — a
  // `busy` connection must not be shut down yet or its delivered-but-
  // unwritten response would be lost. Idle ones (blocked in read()) are
  // woken by shutdown; busy ones finish their write, notice draining_, and
  // exit on their own. fds are closed only after the owning thread joins.
  while (true) {
    bool pending = false;
    {
      const std::lock_guard<std::mutex> lock(connections_mutex_);
      for (const auto& conn : connections_) {
        if (conn->done.load()) continue;
        pending = true;
        if (!conn->busy.load()) ::shutdown(conn->fd, SHUT_RDWR);
      }
    }
    if (!pending) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Joining outside the lock: connection threads never touch the vector,
  // but keeping lock scope minimal is cheap insurance.
  for (const auto& conn : connections_) {
    if (conn->thread.joinable()) conn->thread.join();
    ::close(conn->fd);
  }
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.clear();
  }

  ::unlink(opt_.socket_path.c_str());
  state_wal_.close();
  util::log::info("service", "drained and stopped",
                  {{"jobs_completed",
                    stats_json().get_uint("jobs_completed", 0)}});
}

void Server::journal_state(const util::json::Value& record) {
  if (!state_wal_.is_open()) return;
  const std::lock_guard<std::mutex> lock(state_mutex_);
  state_wal_.append(record.dump_string(0));
}

void Server::replay_state() {
  journal::ensure_dir(opt_.state_dir);
  const std::string path = opt_.state_dir + "/" + std::string(kStateFile);
  const journal::Decoded dec = journal::Journal::read(path);
  if (dec.tail != journal::Decoded::Tail::kClean) {
    // A torn tail is the expected residue of a kill -9 mid-append: cut the
    // file back to its verified prefix so our own appends stay decodable.
    (void)::truncate(path.c_str(), static_cast<off_t>(dec.valid_bytes));
  }

  // Two-pass, order-independent diff: a done record may precede its submit
  // in the byte stream (worker and connection threads append
  // concurrently), so collect both sides before comparing.
  std::map<std::string, std::string> submits;  // cache key → plan JSON
  std::set<std::string> finished;
  for (const std::string& payload : dec.frames) {
    util::json::Value rec;
    try {
      rec = util::json::Value::parse(payload);
    } catch (const std::exception&) {
      continue;  // CRC-valid but foreign bytes: not ours to replay
    }
    const std::string type = rec.get_string("type", "");
    const std::string key = rec.get_string("key", "");
    if (key.empty()) continue;
    if (type == "submit") {
      submits[key] = rec.get_string("plan", "");
    } else if (type == "done") {
      finished.insert(key);
    }
  }

  state_wal_.open(path);

  std::uint64_t replayed = 0;
  for (const auto& [key, plan_text] : submits) {
    if (finished.count(key) > 0 || plan_text.empty()) continue;
    api::RunPlan plan;
    try {
      plan = api::RunPlan::parse(plan_text);
    } catch (const std::exception&) {
      continue;  // journaled by an incompatible version; skip, don't crash
    }
    auto job = std::make_shared<Job>();
    job->plan = std::move(plan);
    job->key = key;
    // No connection is waiting on a replayed job — its promise is simply
    // never read; the result lands in the cache (and its done record in
    // the journal), which is what the re-submitting client will hit.
    if (!queue_->try_push(job)) break;  // full queue: the rest wait for the
                                       // next restart, records intact
    ++replayed;
    tally().jobs_replayed.add();
    tally().jobs_accepted.add();
  }
  if (replayed > 0) {
    util::log::info("service", "replayed journaled submits",
                    {{"jobs", replayed}});
  }
  touch_activity();
}

void Server::accept_loop() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen socket shut down — server stopping
    }
    tally().connections_opened.add();
    touch_activity();

    const std::lock_guard<std::mutex> lock(connections_mutex_);
    // Reap finished connections so a long-lived server does not accumulate
    // one zombie entry per past client.
    for (auto it = connections_.begin(); it != connections_.end();) {
      if ((*it)->done.load()) {
        if ((*it)->thread.joinable()) (*it)->thread.join();
        ::close((*it)->fd);
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* raw = conn.get();
    conn->thread = std::thread([this, raw] {
      connection_loop(raw);
      raw->done.store(true);
    });
    connections_.push_back(std::move(conn));
  }
}

void Server::connection_loop(Connection* conn) {
  const int fd = conn->fd;
  LineReader reader(fd);
  std::string line;
  try {
    while (reader.next_line(line)) {
      if (line.empty()) continue;
      conn->busy.store(true);
      const std::string response = handle_request(line);
      const bool delivered = write_all(fd, response);
      conn->busy.store(false);
      if (!delivered) {
        // Peer vanished between submit and response: the job (if any)
        // already completed and is cached — only this connection dies.
        tally().client_disconnects.add();
        break;
      }
      touch_activity();
      // In a drain, responses owed have now been written; exit instead of
      // blocking in read() so stop() can finish.
      if (draining_.load()) break;
    }
  } catch (const std::exception&) {
    // Read error (reset mid-stream): same as a disconnect.
    conn->busy.store(false);
    tally().client_disconnects.add();
  }
  ::shutdown(fd, SHUT_RDWR);  // close happens after join (fd reuse safety)
}

std::string Server::handle_request(const std::string& line) {
  using util::json::Value;
  Value request;
  try {
    request = Value::parse(line);
    if (!request.is_object()) {
      throw std::invalid_argument("request must be a JSON object");
    }
  } catch (const std::exception& e) {
    tally().rejected_bad_request.add();
    return error_frame("bad_request", e.what());
  }

  const std::string type = request.get_string("type", "");
  if (type == "submit") return handle_submit(request);
  if (type == "stats") {
    Value v = Value::object();
    v.set("ok", true);
    v.set("stats", stats_json());
    return frame(v);
  }
  if (type == "ping") {
    Value v = Value::object();
    v.set("ok", true);
    v.set("pong", true);
    return frame(v);
  }
  tally().rejected_bad_request.add();
  return error_frame("bad_request", "unknown request type \"" + type +
                                        "\" (expected submit|stats|ping)");
}

std::string Server::handle_submit(const util::json::Value& request) {
  const obs::Stopwatch total;
  // One span per request: admission → (queue wait + execute, inside the
  // worker's span) → respond, with the cache verdict as an arg/marker.
  obs::Span span("service:submit");
  tally().requests.add();
  api::RunPlan plan;
  try {
    const util::json::Value* p = request.find("plan");
    if (p == nullptr) {
      throw std::invalid_argument("submit request is missing \"plan\"");
    }
    plan = p->is_string() ? api::RunPlan::parse(p->as_string())
                          : api::RunPlan::from_json(*p);
  } catch (const std::exception& e) {
    tally().rejected_bad_request.add();
    return error_frame("bad_request", e.what());
  }
  if (!cacheable(plan)) {
    // options.output would write files on the SERVER's filesystem and make
    // the result uncacheable; neither is something a remote client should
    // trigger.
    tally().rejected_bad_request.add();
    return error_frame("bad_request",
                       "plans with options.output are not accepted over the "
                       "service (server-side file writes); fetch the report "
                       "and materialize client-side");
  }

  const std::string key = cache_key(plan);
  const std::uint64_t hash = util::json::hash64(key);

  // Cache first: a hit costs no admission and no queue slot, and must be
  // served even when the server is saturated — that is the whole point.
  if (auto cached = cache_.get(key)) {
    tally().cache_hits.add();
    span.arg("cache", "hit");
    if (obs::TraceRecorder::instance().enabled()) {
      util::json::Value targs = util::json::Value::object();
      targs.set("key_hash", hash);
      obs::TraceRecorder::instance().instant("cache:hit", std::move(targs));
    }
    const double wall = total.wall_s();
    record_s(tally().total_ns, wall);
    touch_activity();
    return report_frame("hit", hash, 0.0, wall, *cached);
  }
  tally().cache_misses.add();
  span.arg("cache", "miss");

  if (draining_.load()) {
    tally().rejected_draining.add();
    return error_frame("draining", "server is shutting down");
  }
  if (const std::string reason =
          over_budget_reason(plan, opt_.mem_budget_bytes);
      !reason.empty()) {
    tally().rejected_over_budget.add();
    return error_frame("over_budget", reason);
  }

  auto job = std::make_shared<Job>();
  job->plan = std::move(plan);
  job->key = key;
  std::future<std::string> result = job->result.get_future();
  if (!queue_->try_push(job)) {
    if (draining_.load()) {
      tally().rejected_draining.add();
      return error_frame("draining", "server is shutting down");
    }
    tally().rejected_queue_full.add();
    return error_frame(
        "queue_full",
        "job queue is full (" + std::to_string(opt_.queue_depth) +
            " waiting jobs); retry with backoff");
  }
  tally().jobs_accepted.add();
  // Admission is durable from this point: the submit record is fsynced
  // before the connection blocks on the result, so a kill -9 anywhere
  // after here replays the job on restart.
  if (state_wal_.is_open()) {
    util::json::Value rec = util::json::Value::object();
    rec.set("type", "submit");
    rec.set("key", job->key);
    rec.set("plan", job->plan.to_json().dump_string(0));
    journal_state(rec);
  }
  touch_activity();

  try {
    std::string response = result.get();  // worker-built complete frame
    record_s(tally().total_ns, total.wall_s());
    return response;
  } catch (const std::exception& e) {
    record_s(tally().total_ns, total.wall_s());
    return error_frame("execution_failed", e.what());
  }
}

void Server::worker_loop() {
  // The team size is per thread: this sets only this worker's jobs. A
  // thread already at its budget is left alone — setting it anyway gives
  // the thread its own OpenMP state, which raised peak RSS by ~2.5 MiB
  // in the 2-worker service benchmark for no change in behaviour.
  if (util::omp_max_threads() != omp_threads_) {
    util::set_omp_threads(omp_threads_);
  }
  while (auto popped = queue_->pop()) {
    const std::shared_ptr<Job>& job = *popped;
    const double wait_s = job->queued.wall_s();
    record_s(tally().wait_ns, wait_s);
    jobs_active_.fetch_add(1);
    obs::Span span("service:execute");
    span.arg("queue_wait_s", wait_s);
    const obs::Stopwatch exec;
    try {
      api::RunReport report = api::run(job->plan, generators_, analyses_);
      report.queue_wait_s = wait_s;
      // The delta spans the whole process, so it caught what connections
      // and other workers counted meanwhile (and every `service.*.max`
      // level). Those belong to the server's stats, not to this job, and
      // the cache would replay them with every hit.
      if (report.counters.is_object()) {
        util::json::Value own = util::json::Value::object();
        for (const auto& [name, v] : report.counters.members()) {
          if (!name.starts_with("service.")) own.append(name, v);
        }
        report.counters = std::move(own);
      }
      const double execute_s = exec.wall_s();
      record_s(tally().execute_ns, execute_s);
      // indent 0 keeps the document newline-free — the framing invariant.
      std::string report_json = report.to_json().dump_string(0);
      cache_.put(job->key, report_json);
      tally().jobs_completed.add();
      if (state_wal_.is_open()) {
        util::json::Value rec = util::json::Value::object();
        rec.set("type", "done");
        rec.set("key", job->key);
        journal_state(rec);
      }
      job->result.set_value(report_frame("miss",
                                         util::json::hash64(job->key), wait_s,
                                         execute_s, report_json));
    } catch (...) {
      // Exception isolation: the plan failed, the worker survives. The
      // connection thread turns this into an execution_failed frame.
      record_s(tally().execute_ns, exec.wall_s());
      tally().jobs_failed.add();
      util::log::warn("service", "job failed during execute");
      job->result.set_exception(std::current_exception());
    }
    jobs_active_.fetch_sub(1);
    touch_activity();
  }
}

util::json::Value Server::stats_json() const {
  using util::json::Value;
  Value counters = obs::CounterRegistry::delta(
      counters_start_, obs::CounterRegistry::instance().snapshot());
  const auto count = [&](const std::string& field) {
    return counters.get_uint("service." + field, 0);
  };
  Value v = Value::object();
  v.set("uptime_s", uptime_.wall_s());
  for (const char* field : {"connections_opened", "client_disconnects",
                            "jobs_accepted", "jobs_completed", "jobs_failed"}) {
    v.set(field, count(field));
  }
  v.set("jobs_active", jobs_active_.load());
  v.set("queue_depth", static_cast<std::uint64_t>(queue_->size()));
  Value rejected = Value::object();
  for (const char* reason :
       {"queue_full", "over_budget", "bad_request", "draining"}) {
    rejected.set(reason, count(std::string("rejected.") + reason));
  }
  v.set("rejected", std::move(rejected));
  const std::uint64_t hits = count("cache_hits");
  const std::uint64_t misses = count("cache_misses");
  Value cache = Value::object();
  cache.set("hits", hits);
  cache.set("misses", misses);
  cache.set("hit_rate",
            hits + misses == 0
                ? 0.0
                : static_cast<double>(hits) /
                      static_cast<double>(hits + misses));
  v.set("cache", std::move(cache));
  Value latency = Value::object();
  for (const char* phase : {"wait", "execute", "total"}) {
    const obs::Histogram::Summary h = obs::Histogram::summarize(
        counters, std::string("service.latency.") + phase);
    Value q = Value::object();
    q.set("count", h.count);
    q.set("p50_s", h.p50 * 1e-9);
    q.set("p99_s", h.p99 * 1e-9);
    q.set("max_s", h.max * 1e-9);
    latency.set(phase, std::move(q));
  }
  v.set("latency", std::move(latency));
  v.set("cache_store", cache_.stats_json());
  v.set("jobs_replayed", count("jobs_replayed"));
  v.set("counters", std::move(counters));
  Value cfg = Value::object();
  cfg.set("socket", opt_.socket_path);
  cfg.set("workers", opt_.workers);
  cfg.set("omp_threads", omp_threads_);
  cfg.set("queue_depth", static_cast<std::uint64_t>(opt_.queue_depth));
  cfg.set("cache_bytes", static_cast<std::uint64_t>(opt_.cache_bytes));
  cfg.set("mem_budget_bytes",
          static_cast<std::uint64_t>(opt_.mem_budget_bytes));
  cfg.set("state_dir", opt_.state_dir);
  v.set("config", std::move(cfg));
  return v;
}

}  // namespace kronotri::service
