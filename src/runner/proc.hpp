// The life of one `kronotri __worker` process: argv, fork/exec, wait4 reap
// and the classification of how it ended. net::Agent runs every worker
// through this module — the in-process agent behind the local --workers
// slots and a remote `kronotri agent` alike — so a unit dies the same way
// (same outcome, same detail) wherever its worker ran.
//
// Outcome kinds a reaped worker classifies into:
//   ok         a verified single-frame fragment sits at the --out path
//              (whatever the exit status: units are deterministic, so a
//              complete frame written just before a SIGKILL is a result)
//   signal     killed by a signal; detail = signal number
//   oom        exited with runner::kOomExitCode (RLIMIT_AS guard / oom
//              fault); detail = that code
//   exit       nonzero exit; detail = exit code
//   truncated  clean exit but no verifiable frame (torn, dirty or missing)
// Spawning adds `spawn_failed` (detail = errno of the failed fork).
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace kronotri::runner::proc {

/// $TMPDIR, or /tmp when unset or empty.
[[nodiscard]] std::string tmp_dir();

/// Everything the hidden `__worker` argv carries for one attempt.
struct WorkerArgs {
  std::string plan_file;
  std::string out_path;
  unsigned unit = 0;
  unsigned attempt = 0;
  unsigned omp_threads = 0;
  std::string fault;             ///< "" = no --fault
  std::size_t mem_limit = 0;     ///< 0 = no --mem-limit
  std::string trace_out;         ///< "" = no --trace-out
};

/// `exe __worker --plan-file … --out … --unit … --attempt … --omp-threads …`
/// plus the optional --fault / --mem-limit / --trace-out flags.
[[nodiscard]] std::vector<std::string> worker_argv(const std::string& exe,
                                                   const WorkerArgs& w);

struct Spawned {
  pid_t pid = -1;  ///< child pid, -1 when fork failed
  int error = 0;   ///< errno of the failed fork, read before anything else
};

/// fork + execv(argv[0], argv). An exec failure surfaces later as exit 127.
[[nodiscard]] Spawned spawn(const std::vector<std::string>& argv);

/// wait4 rusage of a reaped child.
struct Usage {
  std::size_t max_rss_bytes = 0;
  double cpu_user_s = 0;
  double cpu_sys_s = 0;
};

struct Reaped {
  int status = 0;
  Usage usage;
};

/// wait4(pid, WNOHANG): nullopt while the child is still running. With
/// `block` the call waits for the child instead.
[[nodiscard]] std::optional<Reaped> reap(pid_t pid, bool block = false);

/// How one attempt ended (see the kinds above).
struct Outcome {
  std::string kind;
  int detail = 0;
  std::optional<std::string> payload;  ///< verified fragment bytes ("ok")
};

/// Classifies a reaped worker from its wait status and its --out file.
[[nodiscard]] Outcome classify(int status, const std::string& out_path);

/// The payload of a file holding exactly ONE clean CRC64 frame and nothing
/// after it; nullopt when missing, torn, trailed by garbage or bit-flipped.
[[nodiscard]] std::optional<std::string> read_frame_file(
    const std::string& path);

}  // namespace kronotri::runner::proc
