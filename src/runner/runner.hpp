// Fault-tolerant multi-process RunPlan execution.
//
// The paper's trillion-edge regime assumes a fleet where individual
// workers stall or die; this module is the coordinator of that story: a
// RunPlan is decomposed into per-shard child plans — one "base" unit for
// everything that is not a validate analysis, plus U shard-subset
// validate units riding the deterministic `validate::` shard plan — and
// every attempt is sent to a worker agent (net/agent.hpp): the local
// --workers slots are one in-process agent served over a socketpair (no
// listening port), the --agents endpoints are remote ones, and all of
// them share one round-robin rotation. Each agent runs the unit in a
// `kronotri __worker` process and sends its RunReport fragment back. The
// coordinator merges fragments into one report BIT-IDENTICAL (modulo
// timings, metadata and the worker_events trail) to the single-process
// run: shard ownership makes fragment counters disjoint, so the merge is
// a pure fold.
//
// Robustness core:
//   * retry with exponential backoff (util::Backoff) under a bounded
//     attempt budget; exhausting it fails the run with a structured
//     error report, never a hang;
//   * per-attempt wall-clock timeouts: an attempt past its deadline is
//     cancelled (its agent SIGKILLs the worker) and its unit re-dispatched;
//   * speculative re-execution of stragglers — when the queue is drained
//     and a slot is free, the longest-running unit that is slow for its
//     kind (base vs validate) is re-issued and the first result wins
//     (safe: units are deterministic);
//   * crash-safe accounting: the agent classifies how each worker ended
//     (runner/proc.hpp: signal vs nonzero-exit vs truncated frame vs oom,
//     the RLIMIT_AS guard) and a lost or garbled connection classifies its
//     in-flight attempts; one settle step turns each attempt's end,
//     timeouts included, into the report's worker_events entry;
//   * graceful degradation to in-process execution when the worker
//     binary cannot be found, when the local agent's first result is a
//     failed spawn, or when workers <= 1.
//
// Durability (--journal DIR / --resume): the coordinator write-ahead-logs
// every unit transition (dispatch, done, failure) as CRC64 frames in
// DIR/run.journal and persists each verified fragment as a checksummed
// frame file DIR/unit<u>.frag (rename-into-journal, fsynced). A resume
// verifies the journaled plan identity hash, reloads only fragments whose
// CRC and journaled digest both verify — corrupt or truncated ones are
// re-executed, never trusted — and re-dispatches the rest through the
// same retry/backoff/speculation machinery; the merged report is
// bit-identical (per comparable()) to an uninterrupted run.
//
// Workers are fork+exec'd (not bare forks) on purpose: the coordinator
// has usually run OpenMP regions (tests, benches, a long-lived service),
// and libgomp's internal state does not survive fork into a child that
// starts its own parallel regions. A fresh exec sidesteps the whole class
// of deadlocks — which is also why the in-process agent may fork from its
// own thread.
#pragma once

#include <string>
#include <vector>

#include "api/plan.hpp"
#include "util/backoff.hpp"
#include "util/json.hpp"

namespace kronotri::runner {

struct Options {
  unsigned workers = 1;       ///< local worker slots (one in-process agent)
  double shard_timeout_s = 0; ///< per-attempt wall clock (0 = none)
  unsigned max_retries = 2;   ///< re-dispatches per unit beyond attempt 0
  /// Once the queue drains, a running attempt is re-issued as a straggler
  /// only after max(straggler_min_s, 2 x median wall of the completed
  /// attempts of its unit kind); a kind with none is never re-issued.
  double straggler_min_s = 1.0;
  /// Fault-injection spec forwarded to workers; empty falls back to the
  /// KRONOTRI_FAULT environment variable (the CI smoke's entry point).
  std::string fault_spec;
  /// Worker executable; empty resolves via default_worker_exe().
  std::string worker_exe;
  /// Durable-run directory: when non-empty, unit transitions are WAL'd to
  /// <journal_dir>/run.journal and fragments persist as CRC64 frame files
  /// there (the local workers' scratch files also live there instead of
  /// $TMPDIR, so a killed coordinator leaks nothing outside its own
  /// journal directory).
  std::string journal_dir;
  /// Resume from journal_dir instead of starting fresh: verified-complete
  /// units are reloaded ("resumed" events), damaged ones re-executed
  /// ("corrupt" events). Requires journal_dir; a plan-hash mismatch fails
  /// the run with a structured report.
  bool resume = false;
  /// RLIMIT_AS ceiling installed in each worker (bytes; 0 = none). A
  /// worker whose allocations trip it dies at kOomExitCode and is
  /// classified "oom", distinct from "signal"/"exit".
  std::size_t worker_mem_limit_bytes = 0;
  /// Runner re-dispatch backoff: seeded jitter on by default so a mass
  /// re-queue does not re-dispatch in lockstep (the service client keeps
  /// its separate documented no-jitter default).
  util::Backoff backoff{0.05, 2.0, 2.0, 0.5, 0x6b726f6e6f747269ULL};
  /// Remote agent endpoints ("HOST:PORT" / "unix:PATH", the CLI's
  /// --agents list). Every slot a connected `kronotri agent` advertises
  /// becomes one more dispatch target next to the local worker slots —
  /// same backoff, timeouts, speculation and journal records. workers=0
  /// with agents set runs purely remote. A lost connection, a torn
  /// result frame or a missed heartbeat turns the agent's in-flight
  /// attempts into "disconnect"/"garbled" events and re-dispatches them —
  /// for the local agent too, whose connection is redialed as a fresh
  /// socketpair.
  std::vector<std::string> agents;
  /// Per-attempt dial deadline for an agent connection (seconds).
  double agent_connect_timeout_s = 1.0;
  /// A connected agent silent for longer than this (agents heartbeat at
  /// ~4 Hz) is declared dead and its attempts re-dispatched.
  double heartbeat_timeout_s = 5.0;
};

/// Exit code a worker dies with when its RLIMIT_AS guard (or the `oom`
/// fault) trips std::bad_alloc — the coordinator classifies it "oom".
/// Distinct from 127 (exec failure) and ordinary analysis exit codes.
inline constexpr int kOomExitCode = 86;

/// Options derived from the plan's RunOptions (workers, shard_timeout,
/// max_retries, fault) with runner defaults for the rest. The durability
/// and guard knobs (journal_dir, resume, worker_mem_limit_bytes) are
/// CLI-level — set them on the returned Options.
Options options_from(const api::RunPlan& plan);

/// Identity hash a journal pins its plan to: canonical-JSON hash of the
/// plan with the distribution options (workers, shard_timeout,
/// max_retries, fault — the same set comparable() strips) removed. A
/// resume may change HOW the plan is distributed, never WHAT it computes.
std::uint64_t plan_identity_hash(const api::RunPlan& plan);

/// The kronotri CLI binary to exec workers from: $KRONOTRI_BIN when set,
/// else a `kronotri` sibling of /proc/self/exe (the binary itself, or the
/// build-tree sibling when the caller is a test/bench binary). Empty when
/// nothing resolves — execute() then degrades to in-process.
std::string default_worker_exe();

/// Executes the plan across opt.workers local worker slots and the
/// opt.agents fleet and returns the merged report. workers <= 1 without a
/// journal or agents runs in-process (api::run). Never throws
/// for worker failures — those come back as a pass=false report with
/// `error` set and the full worker_events trail.
api::RunReport execute(const api::RunPlan& plan, Options opt);

/// execute() with options_from(plan).
api::RunReport execute(const api::RunPlan& plan);

/// A report JSON with every volatile field removed — timings, rss,
/// metadata, worker_events, counters, and the runner-only plan options — so a
/// multi-process report can be compared bit-identically against the
/// serial run. Tests, the CI smokes and the benchmark all use this one
/// definition of "identical".
util::json::Value comparable(const util::json::Value& report_json);

}  // namespace kronotri::runner
