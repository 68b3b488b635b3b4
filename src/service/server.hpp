// kronotri as a long-running analysis server.
//
// The production story the ROADMAP names: a daemon that accepts RunPlan
// JSON over a unix-domain socket (newline-delimited JSON protocol, see
// protocol.hpp), executes plans on a bounded FIFO queue over a worker
// pool, and streams back RunReports. The load-bearing properties:
//
//   * Admission control happens on the connection thread, BEFORE anything
//     is queued: a full queue or an over-budget cost estimate
//     (admission.hpp) returns a structured rejection immediately — one
//     huge Kronecker product cannot wedge the server, and backpressure is
//     a reply, not a hang.
//   * The deterministic result cache (cache.hpp) is probed before
//     admission: a hit is served even when the queue is full, and replays
//     the first execution's report byte-for-byte.
//   * Per-job exception isolation: a throwing plan produces an
//     execution_failed response; workers never die. Client disconnects are
//     detected at write time and only drop that connection.
//   * stop() is a graceful drain: admissions stop (rejected "draining"),
//     queued and in-flight jobs complete and their responses are
//     delivered, then connections and threads are joined. Safe to call
//     from a signal-watching loop (the CLI's SIGINT/SIGTERM handling) or
//     from tests.
//   * Durable admission (--state DIR): accepted submits are journaled
//     before the client hears "accepted", completions are journaled after
//     the cache put, and start() replays the difference — so even kill -9
//     loses no admitted work (the replayed result lands in the cache; the
//     client re-submits and hits). A stale socket file from a dead
//     predecessor is probed with a ping and reclaimed; a LIVE predecessor
//     makes start() refuse instead of stealing its clients.
//
// Threading: one acceptor thread, one thread per live connection (requests
// on a connection are served in order; concurrency comes from concurrent
// connections), `workers` execution threads popping the shared queue, each
// running its jobs on an OpenMP team of util::omp_budget(workers).
// Tests drive an in-process Server through service::Client on the same
// socket path.
#pragma once

#include <atomic>
#include <cstddef>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/analysis.hpp"
#include "api/plan.hpp"
#include "api/registry.hpp"
#include "obs/stopwatch.hpp"
#include "service/cache.hpp"
#include "service/queue.hpp"
#include "util/journal.hpp"
#include "util/json.hpp"

namespace kronotri::service {

struct ServerOptions {
  std::string socket_path;
  unsigned workers = 2;
  std::size_t queue_depth = 16;       ///< waiting jobs (executing excluded)
  std::size_t cache_bytes = 64 << 20;
  std::size_t mem_budget_bytes = 1ull << 30;  ///< per-job admission budget
  /// Durable admission: when non-empty, every accepted submit is journaled
  /// to <state_dir>/state.journal (CRC64 frames, fsync per record) and its
  /// completion recorded; on restart, admitted-but-unfinished submits are
  /// replayed into the queue — a kill -9 loses no admitted work.
  std::string state_dir;
};

class Server {
 public:
  /// The registries are captured by reference and must outlive the server;
  /// the builtins are the production wiring, tests inject their own.
  explicit Server(
      ServerOptions opt,
      const api::GeneratorRegistry& generators =
          api::GeneratorRegistry::builtin(),
      const api::AnalysisRegistry& analyses = api::AnalysisRegistry::builtin());
  ~Server();  ///< stop(drain=true)

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the socket (unlinking a stale file first), spawns the acceptor
  /// and worker threads. Throws std::runtime_error on socket errors.
  void start();

  /// Graceful drain, idempotent: stop accepting, finish queued/in-flight
  /// jobs, deliver their responses, join every thread, unlink the socket.
  void stop();

  [[nodiscard]] bool running() const noexcept { return running_.load(); }

  /// Seconds since the last admission, completion or accepted connection —
  /// what an idle-timeout loop polls.
  [[nodiscard]] double seconds_idle() const;

  [[nodiscard]] const ServerOptions& options() const noexcept { return opt_; }
  /// OpenMP team of each job worker thread: util::omp_budget(workers),
  /// resolved by start() on the calling thread (0 before start()). Also
  /// reported as config.omp_threads in stats_json().
  [[nodiscard]] unsigned omp_threads() const noexcept { return omp_threads_; }

  /// The `stats` response payload (also handy for tests/benches): the obs
  /// registry's delta since this server was constructed (`counters`) and
  /// the fields read from its `service.*` entries. Servers run one after
  /// another count from zero; concurrent ones in one process share counts.
  [[nodiscard]] util::json::Value stats_json() const;

 private:
  struct Connection;

  struct Job {
    api::RunPlan plan;
    std::string key;           ///< cache_key() — the result-cache identity
    obs::Stopwatch queued;     ///< started at admission, read at pop
    /// Fulfilled by the worker with the COMPLETE response frame (the worker
    /// knows the wait/execute split); an execution error arrives as the
    /// thrown exception, which the connection thread wraps in an
    /// execution_failed frame.
    std::promise<std::string> result;
  };

  void accept_loop();
  void worker_loop();
  void connection_loop(Connection* conn);
  /// One request line → one response frame (never throws).
  [[nodiscard]] std::string handle_request(const std::string& line);
  [[nodiscard]] std::string handle_submit(const util::json::Value& request);
  void touch_activity();

  /// Appends a state-journal record (no-op without state_dir). The journal
  /// is shared across connection and worker threads — state_mutex_
  /// serializes the appends.
  void journal_state(const util::json::Value& record);
  /// Opens the state journal (dropping a torn tail) and re-enqueues every
  /// journaled submit without a matching done record. Called from start().
  void replay_state();

  ServerOptions opt_;
  const api::GeneratorRegistry& generators_;
  const api::AnalysisRegistry& analyses_;

  obs::Stopwatch uptime_;  ///< started when the server constructs
  util::json::Value counters_start_;  ///< registry snapshot at construction
  /// Jobs inside api::run() now: a level, read by seconds_idle().
  std::atomic<std::uint64_t> jobs_active_{0};
  ResultCache cache_;
  std::unique_ptr<BoundedQueue<std::shared_ptr<Job>>> queue_;

  util::journal::Journal state_wal_;
  std::mutex state_mutex_;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<double> last_activity_s_{0};

  int listen_fd_ = -1;
  unsigned omp_threads_ = 0;
  std::thread acceptor_;
  std::vector<std::thread> workers_;

  struct Connection {
    int fd = -1;
    std::thread thread;
    /// True from reading a request to finishing its response write. stop()
    /// must not shut the fd down in that window: the worker join only
    /// guarantees the promise is FULFILLED, not that the connection thread
    /// has woken and written the frame yet.
    std::atomic<bool> busy{false};
    std::atomic<bool> done{false};
  };
  std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
};

}  // namespace kronotri::service
