#include "net/agent.hpp"

#include <cerrno>
#include <charconv>
#include <deque>
#include <fstream>
#include <optional>
#include <stdexcept>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/framing.hpp"
#include "net/socket.hpp"
#include "obs/stopwatch.hpp"
#include "runner/proc.hpp"
#include "runner/runner.hpp"
#include "util/fault.hpp"
#include "util/journal.hpp"
#include "util/log.hpp"
#include "util/threads.hpp"

namespace kronotri::net {

namespace {

namespace proc = runner::proc;
using util::json::Value;

/// One dispatched unit waiting for a slot.
struct Job {
  unsigned unit = 0;
  unsigned attempt = 0;
  std::string plan_text;
  std::string fault;
  std::size_t mem_limit = 0;
  bool trace = false;
};

/// One running worker process of this connection.
struct Child {
  Job job;
  pid_t pid = -1;
  double start_s = 0;
  std::string plan_path;
  std::string out_path;
  std::string trace_path;
  bool cancelled = false;
};

}  // namespace

unsigned parse_slots(std::string_view text) {
  if (text == "auto") {
    return std::max(1u, std::thread::hardware_concurrency());
  }
  unsigned n = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), n);
  if (ec != std::errc() || ptr != text.data() + text.size() || n == 0) {
    throw std::invalid_argument("slots/workers: expected a positive integer "
                                "or \"auto\", got \"" +
                                std::string(text) + "\"");
  }
  return n;
}

Agent::Agent(AgentOptions opt) : opt_(std::move(opt)) {
  opt_.slots = std::max(1u, opt_.slots);
}

Agent::~Agent() { stop(); }

std::string Agent::endpoint() const {
  return opt_.host + ":" + std::to_string(port_);
}

bool Agent::prepare(std::string* error) {
  exe_ = opt_.worker_exe.empty() ? runner::default_worker_exe()
                                 : opt_.worker_exe;
  if (exe_.empty() || ::access(exe_.c_str(), X_OK) != 0) {
    if (error != nullptr) {
      *error = "agent: no worker executable (set $KRONOTRI_BIN or run from "
               "the build tree)";
    }
    return false;
  }
  omp_threads_ = util::omp_budget(opt_.slots);
  return true;
}

bool Agent::start(std::string* error) {
  if (running()) return true;
  if (!prepare(error)) return false;
  ListenResult lr = listen_tcp(opt_.host, opt_.port);
  if (!lr.ok()) {
    if (error != nullptr) {
      *error = "agent: cannot listen on " + opt_.host + ":" +
               std::to_string(opt_.port) + ": " + lr.error;
    }
    return false;
  }
  listen_fd_ = lr.fd;
  port_ = lr.port;
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread([this] { accept_loop(); });
  util::log::info("agent", "listening",
                  {{"endpoint", endpoint()},
                   {"slots", opt_.slots},
                   {"omp_threads", omp_threads_}});
  return true;
}

bool Agent::attach(int fd, std::string scratch_prefix, std::string* error) {
  if (!running()) {
    if (!prepare(error)) {
      ::close(fd);
      return false;
    }
    running_.store(true, std::memory_order_release);
  }
  const std::lock_guard<std::mutex> lock(mu_);
  conns_.emplace_back([this, fd, prefix = std::move(scratch_prefix)] {
    connection_loop(fd, prefix);
  });
  return true;
}

void Agent::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    return;
  }
  // Wake the acceptor, and close its fd only once it has exited.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::thread> conns;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    conns.swap(conns_);
  }
  for (std::thread& t : conns) {
    if (t.joinable()) t.join();
  }
}

void Agent::accept_loop() {
  while (running()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (!running()) break;
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    const std::lock_guard<std::mutex> lock(mu_);
    conns_.emplace_back([this, fd] {
      connection_loop(fd, proc::tmp_dir() + "/kronotri." +
                              std::to_string(::getpid()) + ".agent" +
                              std::to_string(fd) + ".");
    });
  }
}

void Agent::connection_loop(int fd, const std::string& prefix) {
  FrameReader reader;
  std::deque<Job> queue;
  std::vector<Child> children;
  double last_send = obs::now_s();

  const auto send_raw = [&](std::string_view bytes) -> bool {
    last_send = obs::now_s();
    return write_all(fd, bytes);
  };
  const auto send_msg = [&](const Value& msg) -> bool {
    return send_raw(encode_message(msg));
  };

  const auto cleanup_child = [&](Child& c) {
    if (!c.plan_path.empty()) ::unlink(c.plan_path.c_str());
    if (!c.out_path.empty()) ::unlink(c.out_path.c_str());
    if (!c.trace_path.empty()) ::unlink(c.trace_path.c_str());
    busy_.fetch_sub(1, std::memory_order_acq_rel);
  };

  // Kill + reap every child of this connection — run on any exit path so
  // a lost coordinator never races its own re-dispatched attempts.
  const auto kill_children = [&] {
    for (Child& c : children) {
      if (c.pid > 0) ::kill(c.pid, SIGKILL);
    }
    for (Child& c : children) {
      if (c.pid > 0) (void)proc::reap(c.pid, /*block=*/true);
      cleanup_child(c);
    }
    children.clear();
  };

  const auto result_msg = [](unsigned unit, unsigned attempt,
                             const std::string& outcome, int detail) {
    Value r = Value::object();
    r.set("type", "result");
    r.set("unit", unit);
    r.set("attempt", attempt);
    r.set("outcome", outcome);
    r.set("detail", detail);
    r.set("wall_s", 0.0);
    return r;
  };

  const auto spawn = [&](Job&& job) {
    Child c;
    c.job = std::move(job);
    const std::string stem = prefix + "u" + std::to_string(c.job.unit) +
                             ".a" + std::to_string(c.job.attempt);
    c.plan_path = stem + ".plan";
    c.out_path = stem + ".frame";
    if (c.job.trace) c.trace_path = stem + ".trace";
    bool written = false;
    {
      std::ofstream out(c.plan_path, std::ios::trunc);
      out << c.job.plan_text << "\n";
      written = static_cast<bool>(out);
    }
    proc::Spawned s;
    if (written) {
      s = proc::spawn(proc::worker_argv(
          exe_, {c.plan_path, c.out_path, c.job.unit, c.job.attempt,
                 omp_threads_, c.job.fault, c.job.mem_limit, c.trace_path}));
    } else {
      s.error = errno;
    }
    if (s.pid < 0) {
      (void)send_msg(
          result_msg(c.job.unit, c.job.attempt, "spawn_failed", s.error));
      ::unlink(c.plan_path.c_str());
      return;
    }
    c.pid = s.pid;
    c.start_s = obs::now_s();
    busy_.fetch_add(1, std::memory_order_acq_rel);
    children.push_back(std::move(c));
  };

  // Reaps each finished child into a result message carrying exactly what
  // runner::proc classified, wait4 usage included.
  const auto reap = [&] {
    for (std::size_t i = 0; i < children.size();) {
      Child& c = children[i];
      const std::optional<proc::Reaped> got = proc::reap(c.pid);
      if (!got) {
        ++i;
        continue;
      }
      const proc::Outcome out = proc::classify(got->status, c.out_path);
      Value r = result_msg(c.job.unit, c.job.attempt, out.kind, out.detail);
      r.set("pid", static_cast<std::int64_t>(c.pid));
      r.set("wall_s", obs::now_s() - c.start_s);
      r.set("max_rss_bytes",
            static_cast<std::uint64_t>(got->usage.max_rss_bytes));
      r.set("cpu_user_s", got->usage.cpu_user_s);
      r.set("cpu_sys_s", got->usage.cpu_sys_s);
      r.set("omp_threads", omp_threads_);
      if (out.payload) r.set("fragment", *out.payload);
      if (!c.trace_path.empty()) {
        if (std::optional<std::string> trace =
                util::journal::read_file(c.trace_path)) {
          r.set("trace", std::move(*trace));
        }
      }
      bool garble = false;
      if (!c.job.fault.empty() && !c.cancelled) {
        try {
          const util::fault::Injector inject(c.job.fault);
          garble = inject.match("garble_frame", c.job.unit, c.job.attempt) !=
                   nullptr;
        } catch (const std::exception&) {
          // The coordinator validated the spec; an unparsable one here is
          // inert rather than fatal.
        }
      }
      if (garble) {
        // Flip one payload byte AFTER framing: the length still parses,
        // the CRC check is what has to catch it.
        std::string bytes = encode_message(r);
        bytes[util::journal::kFrameOverhead / 2 + bytes.size() / 2] ^= 0x20;
        util::log::info("agent", "garbling result frame (fault injection)",
                        {{"unit", c.job.unit}, {"attempt", c.job.attempt}});
        (void)send_raw(bytes);
      } else if (!send_msg(r)) {
        // Peer gone mid-result: nothing to do — the poll loop below will
        // see the EOF and tear the connection down.
      }
      cleanup_child(c);
      children.erase(children.begin() + static_cast<std::ptrdiff_t>(i));
    }
  };

  std::string payload;
  bool open = true;
  while (open && running()) {
    pollfd pfd{fd, POLLIN, 0};
    const int timeout_ms =
        std::max(1, static_cast<int>(opt_.poll_interval_s * 1000));
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
      std::string chunk;
      const IoStatus st = read_some(fd, chunk);
      if (st == IoStatus::kEof || st == IoStatus::kError) break;
      if (st == IoStatus::kData) reader.feed(chunk);
      while (open) {
        const FrameReader::Status fs = reader.next(payload);
        if (fs == FrameReader::Status::kNeedMore) break;
        if (fs == FrameReader::Status::kCorrupt) {
          open = false;  // a coordinator speaking garbage gets hung up on
          break;
        }
        Value msg;
        try {
          msg = Value::parse(payload);
        } catch (const std::exception&) {
          open = false;
          break;
        }
        const std::string type = msg.get_string("type", "");
        if (type == "hello") {
          Value w = Value::object();
          w.set("type", "welcome");
          w.set("proto", kProtoVersion);
          w.set("slots", opt_.slots);
          w.set("pid", static_cast<std::int64_t>(::getpid()));
          if (!send_msg(w)) open = false;
        } else if (type == "dispatch") {
          Job job;
          job.unit = static_cast<unsigned>(msg.get_uint("unit", 0));
          job.attempt = static_cast<unsigned>(msg.get_uint("attempt", 0));
          job.plan_text = msg.get_string("plan", "");
          job.fault = msg.get_string("fault", "");
          job.mem_limit =
              static_cast<std::size_t>(msg.get_uint("mem_limit", 0));
          if (const Value* t = msg.find("trace")) job.trace = t->as_bool();
          bool drop = false;
          if (!job.fault.empty()) {
            try {
              const util::fault::Injector inject(job.fault);
              drop = inject.match("drop_conn", job.unit, job.attempt) !=
                     nullptr;
            } catch (const std::exception&) {
            }
          }
          if (drop) {
            // Injected partition: children die, the socket slams shut,
            // and the coordinator's disconnect path takes it from here.
            util::log::info("agent",
                            "dropping connection (fault injection)",
                            {{"unit", job.unit}, {"attempt", job.attempt}});
            open = false;
            break;
          }
          queue.push_back(std::move(job));
        } else if (type == "cancel") {
          const unsigned unit = static_cast<unsigned>(msg.get_uint("unit", 0));
          const unsigned attempt =
              static_cast<unsigned>(msg.get_uint("attempt", 0));
          bool queued = false;
          for (auto it = queue.begin(); it != queue.end(); ++it) {
            if (it->unit == unit && it->attempt == attempt) {
              queue.erase(it);
              queued = true;
              break;
            }
          }
          if (queued) {
            if (!send_msg(result_msg(unit, attempt, "cancelled", 0))) {
              open = false;
            }
          } else {
            for (Child& c : children) {
              if (c.job.unit == unit && c.job.attempt == attempt &&
                  !c.cancelled) {
                c.cancelled = true;
                if (c.pid > 0) ::kill(c.pid, SIGKILL);
              }
            }
          }
        }
        // Unknown types are ignored: a newer coordinator may speak more.
      }
    } else if (ready < 0 && errno != EINTR) {
      break;
    }

    while (open && !queue.empty() &&
           busy_.load(std::memory_order_acquire) < opt_.slots) {
      Job job = std::move(queue.front());
      queue.pop_front();
      spawn(std::move(job));
    }
    reap();
    if (open && obs::now_s() - last_send > opt_.heartbeat_interval_s) {
      Value hb = Value::object();
      hb.set("type", "heartbeat");
      if (!send_msg(hb)) open = false;
    }
  }
  kill_children();
  ::close(fd);
}

}  // namespace kronotri::net
