#include "service/client.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "net/socket.hpp"
#include "obs/stopwatch.hpp"
#include "service/protocol.hpp"

namespace kronotri::service {

Client::~Client() { close(); }

std::string Client::try_connect(const std::string& socket_path) {
  // The bounded-time dial (non-blocking connect + poll + SO_ERROR) lives
  // in net::dial — one implementation shared with the agent transport.
  net::Endpoint ep;
  ep.kind = net::Endpoint::Kind::kUnix;
  ep.path = socket_path;
  ep.text = socket_path;
  net::DialResult r = net::dial(ep, opt_.connect_timeout_s);
  if (!r.ok()) return std::move(r.error);
  fd_ = r.fd;
  return {};
}

void Client::connect(const std::string& socket_path) {
  close();
  if (socket_path.empty() ||
      socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    throw std::runtime_error("service::Client: bad socket path \"" +
                             socket_path + "\"");
  }
  const unsigned attempts = opt_.connect_attempts > 0
                                ? opt_.connect_attempts
                                : 1;
  std::string last_error;
  for (unsigned attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) util::Backoff::sleep_s(opt_.backoff.delay_s(attempt - 1));
    last_error = try_connect(socket_path);
    if (last_error.empty()) return;
  }
  throw std::runtime_error("service::Client: " + socket_path + ": " +
                           last_error + " (" + std::to_string(attempts) +
                           " attempt" + (attempts > 1 ? "s" : "") + ")");
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

void Client::send(const util::json::Value& request) {
  if (fd_ < 0) throw std::runtime_error("service::Client: not connected");
  if (!write_all(fd_, frame(request))) {
    throw std::runtime_error("service::Client: connection lost while sending");
  }
}

util::json::Value Client::read_response() {
  if (fd_ < 0) throw std::runtime_error("service::Client: not connected");
  // One overall deadline per response frame, not per read(): a server
  // trickling bytes forever must still hit it.
  const double deadline_s = obs::now_s() + opt_.request_timeout_s;
  while (true) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      const std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return util::json::Value::parse(line);
    }
    if (opt_.request_timeout_s > 0) {
      const double remaining_ms = (deadline_s - obs::now_s()) * 1e3;
      pollfd pfd{fd_, POLLIN, 0};
      // Clamped into int's range: converting a larger double is undefined.
      const int ready = ::poll(
          &pfd, 1, static_cast<int>(std::clamp(remaining_ms, 0.0, 1e9)));
      if (ready == 0) {
        throw std::runtime_error(
            "service::Client: request timed out after " +
            std::to_string(opt_.request_timeout_s) +
            " s waiting for a response");
      }
      if (ready < 0 && errno != EINTR) {
        throw std::runtime_error(std::string("service::Client: poll: ") +
                                 std::strerror(errno));
      }
    }
    char chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("service::Client: read: ") +
                               std::strerror(errno));
    }
    if (n == 0) {
      throw std::runtime_error(
          "service::Client: server closed the connection before responding");
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

util::json::Value Client::request(const util::json::Value& req) {
  send(req);
  return read_response();
}

util::json::Value Client::submit(const api::RunPlan& plan) {
  util::json::Value req = util::json::Value::object();
  req.set("type", "submit");
  req.set("plan", plan.to_json());
  return request(req);
}

util::json::Value Client::submit_text(std::string_view plan_text) {
  util::json::Value req = util::json::Value::object();
  req.set("type", "submit");
  req.set("plan", plan_text);
  return request(req);
}

util::json::Value Client::stats() {
  util::json::Value req = util::json::Value::object();
  req.set("type", "stats");
  return request(req);
}

}  // namespace kronotri::service
