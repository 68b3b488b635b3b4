// Blocking client for the kronotri analysis service.
//
// One unix-socket connection, one request/response at a time — the shape
// the `kronotri submit` subcommand, the tests and the benchmark all
// want (the benchmark gets concurrency by running many Clients on many
// threads). send()/read_response() are exposed separately so tests can
// exercise the rude paths: disconnect between send and read, half-written
// frames, a server draining mid-conversation.
#pragma once

#include <string>
#include <string_view>

#include "api/plan.hpp"
#include "util/backoff.hpp"
#include "util/json.hpp"

namespace kronotri::service {

/// Robustness knobs for a client conversation. Defaults preserve the
/// original single-shot semantics except that a hung socket can no longer
/// block connect() forever.
struct ClientOptions {
  /// Per-attempt connect deadline (seconds; 0 = OS default blocking).
  double connect_timeout_s = 5.0;
  /// Total connect attempts: failures short of this are retried after a
  /// backoff delay — covers a daemon still binding its socket.
  unsigned connect_attempts = 1;
  /// Deadline for one read_response() call (seconds; 0 = block forever).
  /// A server that accepted the request but never answers surfaces as a
  /// timeout error instead of a hang.
  double request_timeout_s = 0;
  util::Backoff backoff{0.05, 2.0, 1.0};
};

class Client {
 public:
  Client() = default;
  explicit Client(ClientOptions opt) : opt_(opt) {}
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to a serving socket; throws std::runtime_error on failure.
  void connect(const std::string& socket_path);
  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }
  void close();

  /// Fire-and-forget half of a round trip (tests use it to hang up early).
  /// Throws std::runtime_error when the connection is gone.
  void send(const util::json::Value& request);
  /// Reads one response frame; throws std::runtime_error on EOF/parse
  /// failure (a draining server closing the socket surfaces here).
  [[nodiscard]] util::json::Value read_response();

  /// send + read_response.
  [[nodiscard]] util::json::Value request(const util::json::Value& req);

  /// {"type":"submit","plan":<plan.to_json()>} round trip.
  [[nodiscard]] util::json::Value submit(const api::RunPlan& plan);
  /// Submit with the plan passed as text (JSON document or the run-plan
  /// shorthand) — parsed server-side, so malformed text exercises the
  /// server's bad_request path, not the client's.
  [[nodiscard]] util::json::Value submit_text(std::string_view plan_text);
  [[nodiscard]] util::json::Value stats();

 private:
  /// One connect attempt under opt_.connect_timeout_s; returns an error
  /// message on failure (empty on success).
  [[nodiscard]] std::string try_connect(const std::string& socket_path);

  ClientOptions opt_;
  int fd_ = -1;
  std::string buffer_;  ///< LineReader state folded in (single-frame reads)
};

}  // namespace kronotri::service
