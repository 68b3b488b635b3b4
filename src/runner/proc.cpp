#include "runner/proc.hpp"

#include <cerrno>
#include <cstdlib>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "runner/runner.hpp"
#include "util/journal.hpp"

namespace kronotri::runner::proc {

namespace journal = util::journal;

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

Spawned spawn(const std::vector<std::string>& argv) {
  std::vector<char*> cargv;
  cargv.reserve(argv.size() + 1);
  for (const std::string& a : argv) {
    cargv.push_back(const_cast<char*>(a.c_str()));
  }
  cargv.push_back(nullptr);
  Spawned s;
  s.pid = ::fork();
  if (s.pid == 0) {
    // Child: exec immediately — no OpenMP, no allocation-heavy work
    // between fork and exec (the parent may hold libgomp/locale state a
    // forked child must not touch).
    ::execv(cargv[0], cargv.data());
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
