#include "runner/proc.hpp"

#include <cerrno>
#include <cstdlib>
#include <string_view>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "runner/runner.hpp"
#include "util/journal.hpp"

namespace kronotri::runner::proc {

namespace journal = util::journal;

namespace {

/// The value of `name` in a null-terminated envp; nullopt when unset.
std::optional<std::string_view> env_value(char* const* env,
                                          std::string_view name) {
  for (; env != nullptr && *env != nullptr; ++env) {
    const std::string_view entry(*env);
    if (entry.size() > name.size() && entry[name.size()] == '=' &&
        entry.substr(0, name.size()) == name) {
      return entry.substr(name.size() + 1);
    }
  }
  return std::nullopt;
}

/// The null-terminated char* view execve takes; `strings` must outlive it.
std::vector<char*> c_array(const std::vector<std::string>& strings) {
  std::vector<char*> out;
  out.reserve(strings.size() + 1);
  for (const std::string& s : strings) {
    out.push_back(const_cast<char*>(s.c_str()));
  }
  out.push_back(nullptr);
  return out;
}

}  // namespace

std::string tmp_dir() {
  const char* dir = std::getenv("TMPDIR");
  return (dir != nullptr && *dir != '\0') ? dir : "/tmp";
}

std::vector<std::string> worker_argv(const std::string& exe,
                                     const WorkerArgs& w) {
  std::vector<std::string> args = {exe,
                                   "__worker",
                                   "--plan-file",
                                   w.plan_file,
                                   "--out",
                                   w.out_path,
                                   "--unit",
                                   std::to_string(w.unit),
                                   "--attempt",
                                   std::to_string(w.attempt),
                                   "--omp-threads",
                                   std::to_string(w.omp_threads)};
  if (!w.fault.empty()) {
    args.push_back("--fault");
    args.push_back(w.fault);
  }
  if (w.mem_limit > 0) {
    args.push_back("--mem-limit");
    args.push_back(std::to_string(w.mem_limit));
  }
  if (!w.trace_out.empty()) {
    // Trace context rides the argv: the worker records on the shared
    // CLOCK_MONOTONIC axis and dumps its buffer here for stitching.
    args.push_back("--trace-out");
    args.push_back(w.trace_out);
  }
  return args;
}

std::vector<std::string> worker_env(char* const* base) {
  std::vector<std::string> env;
  for (char* const* e = base; e != nullptr && *e != nullptr; ++e) {
    env.emplace_back(*e);
  }
  if (!env_value(base, "OMP_WAIT_POLICY") &&
      !env_value(base, "GOMP_SPINCOUNT")) {
    env.emplace_back("OMP_WAIT_POLICY=passive");
  }
  return env;
}

std::string worker_omp_wait(char* const* base) {
  if (const auto policy = env_value(base, "OMP_WAIT_POLICY")) {
    return std::string(*policy);
  }
  if (const auto spin = env_value(base, "GOMP_SPINCOUNT")) {
    return "GOMP_SPINCOUNT=" + std::string(*spin);
  }
  return "passive";
}

Spawned spawn(const std::vector<std::string>& argv) {
  const std::vector<char*> cargv = c_array(argv);
  const std::vector<std::string> env = worker_env(environ);
  const std::vector<char*> cenv = c_array(env);
  Spawned s;
  s.pid = ::fork();
  if (s.pid == 0) {
    // Child: exec immediately — no OpenMP, no allocation between fork and
    // exec (the parent may hold libgomp/locale/malloc state a forked child
    // must not touch), which is why argv and envp are built above.
    ::execve(cargv[0], cargv.data(), cenv.data());
    ::_exit(127);
  }
  if (s.pid < 0) s.error = errno;
  return s;
}

std::optional<Reaped> reap(pid_t pid, bool block) {
  Reaped r;
  rusage ru{};
  // wait4 = waitpid + the child's rusage: per-attempt peak RSS and split
  // user/sys CPU come for free.
  if (::wait4(pid, &r.status, block ? 0 : WNOHANG, &ru) != pid) {
    return std::nullopt;
  }
  r.usage.max_rss_bytes =
      static_cast<std::size_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
  r.usage.cpu_user_s = static_cast<double>(ru.ru_utime.tv_sec) +
                       static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  r.usage.cpu_sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
                      static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  return r;
}

Outcome classify(int status, const std::string& out_path) {
  Outcome o;
  o.payload = read_frame_file(out_path);
  if (o.payload) {
    o.kind = "ok";
  } else if (WIFSIGNALED(status)) {
    o.kind = "signal";
    o.detail = WTERMSIG(status);
  } else if (WIFEXITED(status) && WEXITSTATUS(status) == kOomExitCode) {
    // The worker's RLIMIT_AS guard (or the oom fault) tripped its
    // std::bad_alloc path — a resource verdict, not a generic "exit".
    o.kind = "oom";
    o.detail = kOomExitCode;
  } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
    o.kind = "exit";
    o.detail = WEXITSTATUS(status);
  } else {
    o.kind = "truncated";
  }
  return o;
}

std::optional<std::string> read_frame_file(const std::string& path) {
  // A checksum, not a trailing newline, is the honest "the worker finished
  // its write" claim: a torn frame, trailing garbage or a flipped byte
  // never classifies as a result.
  const std::optional<std::string> bytes = journal::read_file(path);
  if (!bytes) return std::nullopt;
  journal::Decoded dec = journal::decode_frames(*bytes);
  if (dec.tail != journal::Decoded::Tail::kClean || dec.frames.size() != 1 ||
      dec.valid_bytes != bytes->size()) {
    return std::nullopt;
  }
  return std::move(dec.frames[0]);
}

}  // namespace kronotri::runner::proc
