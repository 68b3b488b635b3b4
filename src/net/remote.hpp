// Coordinator-side handle to one remote agent connection.
//
// Deliberately dumb: AgentClient dials (or adopts a socketpair end),
// frames, and pumps — every policy decision (when to reconnect, what a
// silent agent means, how a lost attempt is charged) lives in
// runner::execute(), which sends every attempt, local or remote, to an
// agent through one of these. The fd is non-blocking after connect so the
// coordinator's single-threaded poll loop can pump every agent without
// ever parking on one of them.
#pragma once

#include <string>
#include <vector>

#include "net/framing.hpp"
#include "net/socket.hpp"
#include "util/json.hpp"

namespace kronotri::net {

struct AgentClientOptions {
  double connect_timeout_s = 1.0;
  unsigned connect_attempts = 1;
  util::Backoff backoff{0.05, 2.0, 1.0};
};

class AgentClient {
 public:
  AgentClient() = default;
  explicit AgentClient(AgentClientOptions opt) : opt_(opt) {}
  ~AgentClient() { close(); }

  AgentClient(const AgentClient&) = delete;
  AgentClient& operator=(const AgentClient&) = delete;
  AgentClient(AgentClient&& other) noexcept { *this = std::move(other); }
  AgentClient& operator=(AgentClient&& other) noexcept {
    if (this != &other) {
      close();
      opt_ = other.opt_;
      fd_ = other.fd_;
      reader_ = std::move(other.reader_);
      other.fd_ = -1;
    }
    return *this;
  }

  /// Dials `endpoint` ("HOST:PORT" or unix:PATH), sends the hello, and
  /// leaves the fd non-blocking. False with *error set on failure; the
  /// welcome arrives later through pump().
  bool connect(const std::string& endpoint, std::string* error);
  /// Takes over an already-connected fd (one end of a socketpair whose
  /// other end an in-process Agent::attach serves) and proceeds as
  /// connect() does after its dial: non-blocking, hello sent.
  bool adopt(int fd, std::string* error);
  void close();
  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  /// Frames and writes one message. False → the connection is gone (the
  /// caller runs its disconnect path; the fd is closed here).
  [[nodiscard]] bool send(const util::json::Value& msg);

  enum class Pump {
    kIdle,     ///< nothing new (messages may still have been appended)
    kClosed,   ///< peer EOF / hard error — fd closed
    kCorrupt,  ///< CRC-failed or unparsable frame — fd closed
  };
  /// Drains whatever the socket holds right now (never blocks), appending
  /// parsed messages to `out` in arrival order. Messages decoded before
  /// damage are delivered even when the return value is kClosed/kCorrupt.
  [[nodiscard]] Pump pump(std::vector<util::json::Value>& out);

 private:
  AgentClientOptions opt_;
  int fd_ = -1;
  FrameReader reader_;
};

}  // namespace kronotri::net
