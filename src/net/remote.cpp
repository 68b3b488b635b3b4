#include "net/remote.hpp"

#include <unistd.h>

namespace kronotri::net {

using util::json::Value;

bool AgentClient::connect(const std::string& endpoint, std::string* error) {
  close();
  Endpoint ep;
  try {
    ep = parse_endpoint(endpoint);
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
  DialResult dr = dial_retry(ep, opt_.connect_timeout_s,
                             opt_.connect_attempts, opt_.backoff);
  if (!dr.ok()) {
    if (error != nullptr) *error = endpoint + ": " + dr.error;
    return false;
  }
  if (adopt(dr.fd, error)) return true;
  if (error != nullptr) *error = endpoint + ": " + *error;
  return false;
}

bool AgentClient::adopt(int fd, std::string* error) {
  close();
  fd_ = fd;
  set_nonblocking(fd_, true);
  Value hello = Value::object();
  hello.set("type", "hello");
  hello.set("proto", kProtoVersion);
  if (!send(hello)) {
    if (error != nullptr) *error = "connection lost on hello";
    return false;
  }
  return true;
}

void AgentClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reader_.reset();
}

bool AgentClient::send(const Value& msg) {
  if (fd_ < 0) return false;
  if (!write_all(fd_, encode_message(msg))) {
    close();
    return false;
  }
  return true;
}

AgentClient::Pump AgentClient::pump(std::vector<Value>& out) {
  if (fd_ < 0) return Pump::kClosed;
  bool closed = false;
  while (true) {
    std::string chunk;
    const IoStatus st = read_some(fd_, chunk);
    if (st == IoStatus::kData) {
      reader_.feed(chunk);
      continue;
    }
    if (st == IoStatus::kAgain) break;
    closed = true;  // kEof or kError
    break;
  }
  // Deliver everything decodable before reporting damage: results that
  // arrived intact ahead of an EOF or a torn frame are real results.
  while (true) {
    std::string payload;
    const FrameReader::Status fs = reader_.next(payload);
    if (fs == FrameReader::Status::kNeedMore) break;
    if (fs == FrameReader::Status::kCorrupt) {
      close();
      return Pump::kCorrupt;
    }
    try {
      out.push_back(Value::parse(payload));
    } catch (const std::exception&) {
      close();
      return Pump::kCorrupt;
    }
  }
  if (closed) {
    close();
    return Pump::kClosed;
  }
  return Pump::kIdle;
}

}  // namespace kronotri::net
