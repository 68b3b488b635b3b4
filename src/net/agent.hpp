// Worker agent: the daemon behind `kronotri agent --listen HOST:PORT
// --slots N`, and — attached to one end of a socketpair, no listener —
// the local worker slots of `kronotri run --workers N`.
//
// An agent serves coordinator connections, receives per-unit child
// plans as CRC-64 frames (net/framing.hpp), executes each unit in a
// sandboxed local worker process — spawned, reaped and classified by
// runner::proc, RLIMIT_AS guard included — and streams back RunReport
// fragments plus trace buffers.
// It holds NO retry or merge policy of its own — scheduling, backoff,
// speculation, journaling and timeouts all stay in the coordinator; the
// agent's whole job is "run this unit here, tell me how it died".
//
// Failure semantics:
//   * coordinator connection lost → every child of that connection is
//     SIGKILLed and its scratch removed (a partitioned agent must not
//     race a re-dispatched attempt elsewhere for side effects);
//   * `cancel` → SIGKILL the attempt; its result reports what
//     runner::proc classified (signal 9, or ok if the fragment was
//     already complete). A job cancelled while still queued is answered
//     with outcome "cancelled". Either way the coordinator's slot
//     accounting closes the loop;
//   * agent death → the coordinator's heartbeat timeout / EOF turns
//     in-flight attempts into "disconnect" events and re-dispatches them.
// Fault injection: a `drop_conn` action matching a dispatched
// (unit, attempt) makes the agent hard-close the connection (children
// killed first); `garble_frame` flips a byte inside that attempt's
// result frame so the coordinator's CRC check — not good luck — has to
// catch the damage.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace kronotri::net {

struct AgentOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral, resolved port via port()
  unsigned slots = 1;      ///< concurrent worker processes
  /// Worker executable; empty resolves via runner::default_worker_exe().
  std::string worker_exe;
  double heartbeat_interval_s = 0.25;
  double poll_interval_s = 0.01;
};

/// "auto" → hardware_concurrency() (≥1), else a positive integer.
/// Throws std::invalid_argument on anything else — shared by
/// `run --workers auto` and `agent --slots auto`.
[[nodiscard]] unsigned parse_slots(std::string_view text);

class Agent {
 public:
  explicit Agent(AgentOptions opt = {});
  ~Agent();

  Agent(const Agent&) = delete;
  Agent& operator=(const Agent&) = delete;

  /// Binds, listens and starts the acceptor thread. False (with *error
  /// set) when the address cannot be bound or no worker exe resolves.
  bool start(std::string* error = nullptr);
  /// Serves one already-connected coordinator fd (an end of a
  /// socketpair) on its own thread and binds no listener — the local
  /// slots of runner::execute, which must never open a port that runs
  /// plans. Worker scratch is named `scratch_prefix` + "u<U>.a<A>.*".
  /// The first attach resolves the worker exe and omp_threads() on the
  /// calling thread. Takes ownership of `fd`; false (with *error set, fd
  /// closed) when no worker exe resolves.
  bool attach(int fd, std::string scratch_prefix,
              std::string* error = nullptr);
  /// Stops accepting, disconnects every coordinator (killing their
  /// children) and joins all threads. Idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }
  /// Actual bound port (resolves --listen :0).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  /// "host:port" with the resolved port — what a coordinator dials.
  [[nodiscard]] std::string endpoint() const;
  [[nodiscard]] unsigned slots() const noexcept { return opt_.slots; }
  /// OpenMP team of each worker child: util::omp_budget(slots), resolved
  /// by start() or the first attach() on the calling thread, so that
  /// thread's OMP_NUM_THREADS stays the ceiling. Every result frame
  /// carries it; the coordinator records it as WorkerEvent::omp_threads.
  [[nodiscard]] unsigned omp_threads() const noexcept { return omp_threads_; }

 private:
  bool prepare(std::string* error);
  void accept_loop();
  void connection_loop(int fd, const std::string& prefix);

  AgentOptions opt_;
  std::string exe_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  unsigned omp_threads_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<unsigned> busy_{0};  ///< children across all connections
  std::thread acceptor_;
  std::mutex mu_;  ///< guards conns_
  std::vector<std::thread> conns_;
};

}  // namespace kronotri::net
