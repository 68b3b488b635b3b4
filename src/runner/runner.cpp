#include "runner/runner.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include <dirent.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include "net/remote.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "runner/proc.hpp"
#include "util/fault.hpp"
#include "util/journal.hpp"
#include "util/log.hpp"
#include "util/runmeta.hpp"
#include "util/threads.hpp"
#include "util/timer.hpp"
#include "validate/report.hpp"

namespace kronotri::runner {

namespace {

namespace journal = util::journal;
using util::json::Value;

using proc::monotonic_s;
using proc::tmp_dir;

/// One work unit of the decomposed plan: a child plan a worker executes to
/// a RunReport fragment.
struct Unit {
  unsigned id = 0;
  std::string kind;        // "base" | "validate" | "run"
  int analysis_index = -1; // original plan.analyses index (validate units)
  api::RunPlan plan;
};

/// Decomposition: one base unit for everything that is not a validate
/// analysis (it keeps the plan's output/stream duties), plus
/// units_per_validate shard-subset units per validate analysis. Validate
/// is the unit-splittable analysis — its deterministic shard plan is
/// derived identically in every worker, so unit i can take slice i
/// without any coordinator→worker shard negotiation.
std::vector<Unit> decompose(const api::RunPlan& plan,
                            unsigned units_per_validate) {
  std::vector<Unit> units;

  api::RunPlan base = plan;
  base.options.workers = 1;
  base.options.fault.clear();
  base.analyses.clear();
  std::vector<std::size_t> validate_indices;
  for (std::size_t i = 0; i < plan.analyses.size(); ++i) {
    if (plan.analyses[i].name == "validate") {
      validate_indices.push_back(i);
    } else {
      base.analyses.push_back(plan.analyses[i]);
    }
  }

  const bool base_has_work = !base.analyses.empty() ||
                             !base.options.output.empty() ||
                             base.options.stream;
  if (base_has_work || validate_indices.empty()) {
    Unit u;
    u.id = static_cast<unsigned>(units.size());
    u.kind = validate_indices.empty() ? "run" : "base";
    u.plan = base;
    units.push_back(std::move(u));
  }

  for (const std::size_t ai : validate_indices) {
    for (unsigned i = 0; i < units_per_validate; ++i) {
      Unit u;
      u.id = static_cast<unsigned>(units.size());
      u.kind = "validate";
      u.analysis_index = static_cast<int>(ai);
      u.plan = plan;
      u.plan.options.workers = 1;
      u.plan.options.fault.clear();
      u.plan.options.output.clear();
      u.plan.options.stream = false;
      api::AnalysisRequest req = plan.analyses[ai];
      req.params["unit"] = std::to_string(i);
      req.params["units"] = std::to_string(units_per_validate);
      u.plan.analyses = {std::move(req)};
      units.push_back(std::move(u));
    }
  }
  return units;
}

/// A SIGKILLed coordinator used to leak its kronotri.<pid>.* scratch files
/// in $TMPDIR forever (cleanup only ran on the success path). Every
/// execute() starts by sweeping scratch whose owning pid is gone.
void sweep_stale_tmp() {
  const std::string dir = tmp_dir();
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  std::vector<std::string> stale;
  while (dirent* ent = ::readdir(d)) {
    const std::string_view name(ent->d_name);
    constexpr std::string_view kPrefix = "kronotri.";
    if (name.substr(0, kPrefix.size()) != kPrefix) continue;
    const std::size_t dot = name.find('.', kPrefix.size());
    if (dot == std::string_view::npos || dot == kPrefix.size()) continue;
    const std::string pid_str(name.substr(kPrefix.size(),
                                          dot - kPrefix.size()));
    char* end = nullptr;
    const long pid = std::strtol(pid_str.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || pid <= 0) continue;
    if (pid == static_cast<long>(::getpid())) continue;
    errno = 0;
    if (::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH) continue;
    stale.push_back(dir + "/" + std::string(name));
  }
  ::closedir(d);
  for (const std::string& path : stale) ::unlink(path.c_str());
}

constexpr const char* kJournalFile = "run.journal";

std::string frag_path(const std::string& dir, unsigned unit) {
  return dir + "/unit" + std::to_string(unit) + ".frag";
}

/// Deletes a journal directory's contents: always the tmp.* scratch, and
/// (unless scratch_only) the journal and fragment files too — the fresh
/// `--journal` start must not resurrect an older run's records, while a
/// resume clears only scratch.
void clear_journal_dir(const std::string& dir, bool scratch_only) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  std::vector<std::string> doomed;
  while (dirent* ent = ::readdir(d)) {
    const std::string_view name(ent->d_name);
    const bool scratch = name.substr(0, 4) == "tmp.";
    const bool durable =
        name == kJournalFile ||
        (name.substr(0, 4) == "unit" && name.size() > 5 &&
         name.substr(name.size() - 5) == ".frag");
    if (scratch || (!scratch_only && durable)) {
      doomed.push_back(dir + "/" + std::string(name));
    }
  }
  ::closedir(d);
  for (const std::string& path : doomed) ::unlink(path.c_str());
}

/// Outcome and retry-budget reason of an attempt that neither won, lost
/// to another attempt nor timed out. An agent only answers "cancelled"
/// for an attempt the coordinator already marked superseded, timed out
/// or aborted, so that kind never reaches this table.
std::pair<std::string, std::string> failure_of(const std::string& kind,
                                               int detail) {
  const std::string d = std::to_string(detail);
  if (kind == "signal") return {kind, "died on signal " + d};
  if (kind == "oom") return {kind, "exceeded its memory guard (RLIMIT_AS)"};
  if (kind == "exit") return {kind, "exited with code " + d};
  if (kind == "spawn_failed") return {kind, "could not be spawned"};
  if (kind == "disconnect") return {kind, "lost its agent connection"};
  if (kind == "garbled") return {kind, "returned a garbled result frame"};
  return {"truncated", "wrote a truncated result frame"};
}

/// Per-unit facts recovered from a journal.
struct UnitRecord {
  bool done = false;         ///< a done record exists (last one wins)
  unsigned attempt = 0;      ///< attempt the winning done record credits
  std::uint64_t digest = 0;  ///< crc64 of the fragment frame payload
  std::uint64_t canon = 0;   ///< hash64 of the fragment's canonical JSON
  std::uint64_t vfp = 0;     ///< ValidationReport::fingerprint (validate)
  bool has_vfp = false;
  unsigned max_attempt = 0;  ///< highest attempt ever dispatched
  bool any_attempt = false;
};

struct JournalState {
  std::string error;  ///< non-empty → structured resume failure
  unsigned units_per_validate = 0;
  std::vector<UnitRecord> units;
  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

/// Decodes DIR/run.journal for a resume. A truncated/corrupt tail is the
/// EXPECTED post-crash state: the file is cut back to its valid prefix
/// (so our own appends decode later) and the prefix is trusted. Anything
/// structurally wrong INSIDE verified frames — no plan record, an identity
/// mismatch, an out-of-range unit — is a refusal, not a guess.
JournalState load_journal(const std::string& dir, std::uint64_t identity) {
  JournalState js;
  const std::string path = dir + "/" + std::string(kJournalFile);
  const std::optional<std::string> bytes = journal::read_file(path);
  if (!bytes) {
    js.error = "resume: cannot read journal " + path;
    return js;
  }
  const journal::Decoded dec = journal::decode_frames(*bytes);
  if (dec.tail != journal::Decoded::Tail::kClean &&
      ::truncate(path.c_str(), static_cast<off_t>(dec.valid_bytes)) != 0) {
    js.error = "resume: cannot drop the torn tail of " + path;
    return js;
  }
  if (dec.frames.empty()) {
    js.error = "resume: journal " + path + " holds no verifiable record";
    return js;
  }

  std::vector<Value> records;
  records.reserve(dec.frames.size());
  for (std::size_t i = 0; i < dec.frames.size(); ++i) {
    try {
      records.push_back(Value::parse(dec.frames[i]));
    } catch (const std::exception&) {
      js.error = "resume: journal record " + std::to_string(i) +
                 " verified its CRC but is not JSON — not a kronotri journal";
      return js;
    }
  }

  const Value& head = records.front();
  if (head.get_string("type", "") != "plan") {
    js.error = "resume: journal " + path + " does not start with a plan record";
    return js;
  }
  const std::uint64_t recorded = head.get_uint("identity", 0);
  if (recorded != identity) {
    js.error = "resume: journal was written for a different plan (identity " +
               std::to_string(recorded) + ", this plan is " +
               std::to_string(identity) + ")";
    return js;
  }
  const std::uint64_t unit_count = head.get_uint("units", 0);
  js.units_per_validate =
      static_cast<unsigned>(head.get_uint("units_per_validate", 0));
  if (unit_count == 0 || unit_count > 1u << 20 ||
      js.units_per_validate == 0) {
    js.error = "resume: journal plan record is malformed";
    return js;
  }
  js.units.resize(unit_count);

  for (std::size_t i = 1; i < records.size(); ++i) {
    const Value& rec = records[i];
    const std::string type = rec.get_string("type", "");
    const std::uint64_t u = rec.get_uint("unit", unit_count);
    if (u >= unit_count) {
      js.error = "resume: journal record " + std::to_string(i) +
                 " names unit " + std::to_string(u) + " of " +
                 std::to_string(unit_count);
      return js;
    }
    UnitRecord& ur = js.units[u];
    const unsigned attempt = static_cast<unsigned>(rec.get_uint("attempt", 0));
    ur.max_attempt = std::max(ur.max_attempt, attempt);
    ur.any_attempt = true;
    if (type == "done") {
      // Duplicate done records for a unit are idempotent: the last one
      // wins, exactly as the last finished attempt's fragment is the one
      // sitting in unit<u>.frag.
      ur.done = true;
      ur.attempt = attempt;
      ur.digest = rec.get_uint("digest", 0);
      ur.canon = rec.get_uint("canon", 0);
      ur.has_vfp = rec.find("vfp") != nullptr;
      ur.vfp = rec.get_uint("vfp", 0);
    }
    // "dispatch" and "failure" records only contribute attempt tracking.
  }
  return js;
}

struct RunningAttempt {
  unsigned unit = 0;
  unsigned attempt = 0;
  pid_t pid = -1;           // local child only
  int agent = -1;           // index into the remote-agent table; -1 = local
  double start_s = 0;
  double start_us = 0;      // obs::now_us() at spawn, for the attempt span
  std::string out_path;
  std::string trace_path;   // worker trace scratch ("" when tracing is off)
  bool timed_out = false;   // we SIGKILLed it past its deadline
  bool superseded = false;  // another attempt of the unit already won
  bool aborted = false;     // run is failing, everything was killed
};

/// Coordinator-side state of one --agents endpoint. The connection is a
/// cattle resource: dropped and re-dialed (with backoff) whenever the
/// transport reports damage, while the unit bookkeeping stays in the
/// same pending/running structures the local workers use.
struct RemoteAgent {
  std::string endpoint;
  net::AgentClient client;
  unsigned slots = 0;       // advertised by the welcome; 0 until then
  bool welcomed = false;
  double last_rx_s = 0;     // heartbeat/any-message arrival time
  double next_dial_s = 0;   // reconnect backoff deadline
  unsigned dial_failures = 0;
};

/// Trace track for one (unit, attempt) pair. Concurrent attempts all live
/// on the coordinator's event-loop thread, so their spans would interleave
/// on its track and break per-tid nesting; a synthetic tid per attempt
/// keeps every track well-nested.
std::uint32_t attempt_tid(unsigned unit, unsigned attempt) {
  return 10000 + unit * 100 + attempt % 100;
}

struct UnitState {
  unsigned next_attempt = 0;
  unsigned failures = 0;
  bool done = false;
  bool speculated = false;
  Value fragment;
};

/// Merges per-unit validate fragments back into the analysis list in the
/// original plan order; non-validate analyses come from the base fragment
/// verbatim.
api::RunReport merge_fragments(const api::RunPlan& plan,
                               const std::vector<Unit>& units,
                               const std::vector<UnitState>& states) {
  // Skeleton: the base fragment when one exists, else any validate
  // fragment (every top-level field outside `analyses` is identical
  // across fragments of the same plan, timings aside).
  const Value* skeleton = nullptr;
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (units[i].kind != "validate") skeleton = &states[i].fragment;
  }
  if (skeleton == nullptr) skeleton = &states[0].fragment;
  api::RunReport report = api::RunReport::from_json(*skeleton);
  std::vector<api::AnalysisReport> base_analyses = std::move(report.analyses);

  report.plan = plan;
  report.analyses.clear();
  std::size_t base_next = 0;
  for (std::size_t ai = 0; ai < plan.analyses.size(); ++ai) {
    if (plan.analyses[ai].name != "validate") {
      report.analyses.push_back(std::move(base_analyses.at(base_next++)));
      continue;
    }
    validate::ValidationReport merged;
    bool first = true;
    double wall_s = 0;
    for (std::size_t i = 0; i < units.size(); ++i) {
      if (units[i].analysis_index != static_cast<int>(ai)) continue;
      const api::RunReport frag = api::RunReport::from_json(states[i].fragment);
      const api::AnalysisReport& ar = frag.analyses.at(0);
      wall_s += ar.wall_s;
      validate::ValidationReport vr =
          validate::ValidationReport::from_json(ar.data);
      if (first) {
        merged = std::move(vr);
        first = false;
      } else {
        merged.merge(vr);
      }
    }
    merged.finalize_merged();
    api::AnalysisReport ar;
    ar.name = "validate";
    ar.pass = merged.pass();
    ar.wall_s = wall_s;
    std::ostringstream os;
    merged.print(os);
    ar.text = os.str();
    ar.data = merged.to_json();
    report.analyses.push_back(std::move(ar));
  }

  report.pass = true;
  for (const api::AnalysisReport& ar : report.analyses) {
    report.pass = report.pass && ar.pass;
  }
  return report;
}

/// A plan JSON minus the options that only say HOW it is distributed
/// (workers, shard_timeout, max_retries, fault): the one list comparable()
/// and plan_identity_hash() both strip.
Value without_distribution(const Value& plan_json) {
  Value out = Value::object();
  for (const auto& [key, value] : plan_json.members()) {
    if (key != "options") {
      out.set(key, value);
      continue;
    }
    Value o = Value::object();
    for (const auto& [okey, ovalue] : value.members()) {
      if (okey != "workers" && okey != "shard_timeout" &&
          okey != "max_retries" && okey != "fault") {
        o.set(okey, ovalue);
      }
    }
    out.set("options", std::move(o));
  }
  return out;
}

}  // namespace

Options options_from(const api::RunPlan& plan) {
  Options opt;
  opt.workers = plan.options.workers;
  opt.shard_timeout_s = plan.options.shard_timeout_s;
  opt.max_retries = plan.options.max_retries;
  opt.fault_spec = plan.options.fault;
  return opt;
}

std::uint64_t plan_identity_hash(const api::RunPlan& plan) {
  // How the plan is distributed may change across a resume; everything
  // content-bearing (spec, analyses, threads/partition count, budgets,
  // output) is pinned.
  return util::json::hash64(
      without_distribution(plan.to_json()).dump_canonical_string());
}

std::string default_worker_exe() {
  if (const char* env = std::getenv("KRONOTRI_BIN");
      env != nullptr && *env != '\0') {
    return env;
  }
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    const std::string self(buf);
    const std::size_t slash = self.rfind('/');
    const std::string dir =
        slash == std::string::npos ? "." : self.substr(0, slash);
    if (self.substr(slash + 1) == "kronotri") return self;
    // Test and bench binaries live in the build tree next to (or one
    // level below) the CLI binary.
    for (const std::string& cand : {dir + "/kronotri", dir + "/../kronotri"}) {
      if (::access(cand.c_str(), X_OK) == 0) return cand;
    }
  }
  if (::access("./kronotri", X_OK) == 0) return "./kronotri";
  return "";
}

api::RunReport execute(const api::RunPlan& plan) {
  return execute(plan, options_from(plan));
}

api::RunReport execute(const api::RunPlan& plan, Options opt) {
  const bool journaled = !opt.journal_dir.empty();
  if (opt.resume && !journaled) {
    throw std::invalid_argument("runner: resume requires a journal_dir");
  }
  // A journaled run goes through the worker machinery even at one worker —
  // durability needs the fragment/WAL protocol, not the in-process path.
  // Remote agents always do: their slots only exist in the dispatch loop.
  if (opt.workers <= 1 && !journaled && opt.agents.empty()) {
    return api::run(plan);
  }
  if (opt.agents.empty()) {
    opt.workers = std::max(1u, opt.workers);
  }

  if (opt.fault_spec.empty()) {
    if (const char* env = std::getenv("KRONOTRI_FAULT");
        env != nullptr && *env != '\0') {
      opt.fault_spec = env;
    }
  }
  // Validate the spec in the coordinator: a typo should fail the run with
  // an actionable message, not silently inject nothing in every worker.
  // The coordinator keeps the injector for its own torn_write actions.
  const util::fault::Injector inject(opt.fault_spec);

  std::string exe =
      opt.worker_exe.empty() ? default_worker_exe() : opt.worker_exe;
  if (exe.empty() || ::access(exe.c_str(), X_OK) != 0) {
    if (opt.agents.empty()) {
      // Graceful degradation: no worker binary → in-process serial run,
      // recorded as such instead of silently pretending to be parallel.
      api::RunReport report = api::run(plan);
      api::WorkerEvent e;
      e.kind = "run";
      e.outcome = "degraded";
      report.worker_events.push_back(e);
      return report;
    }
    // Agents execute remotely with their own binaries; just never spawn
    // a local worker from the missing one.
    opt.workers = 0;
  }

  sweep_stale_tmp();

  // Every local worker gets its share of this host's cores instead of a
  // full OpenMP team each (N workers x C threads on C cores); the caller's
  // omp_get_max_threads() stays the ceiling. Agents budget their own slots.
  const unsigned omp_threads = util::omp_budget(opt.workers);

  const util::WallTimer total_wall;
  const util::CpuTimer total_cpu;
  const Value counters_start = obs::CounterRegistry::instance().snapshot();
  obs::Span coord_span("runner::execute");
  coord_span.arg("workers", opt.workers);
  coord_span.arg("omp_threads", omp_threads);
  util::log::info("runner", "coordinator start",
                  {{"workers", opt.workers},
                   {"omp_threads", omp_threads},
                   {"journaled", journaled ? "yes" : "no"},
                   {"resume", opt.resume ? "yes" : "no"}});
  const auto fail_report = [&](const std::string& why) {
    api::RunReport r;
    r.plan = plan;
    r.pass = false;
    r.error = why;
    r.metadata = util::run_metadata(plan.options.batch_size);
    r.total_wall_s = total_wall.seconds();
    r.total_cpu_s = total_cpu.seconds();
    r.peak_rss_bytes = util::peak_rss_bytes();
    return r;
  };

  const std::uint64_t identity = journaled ? plan_identity_hash(plan) : 0;
  // Decomposition width must be decided before any agent connects (the
  // journal pins it), so remote slots are assumed ~2 per agent; the
  // actual advertised count only shapes scheduling, never the merge.
  const unsigned assumed_width =
      opt.workers + 2 * static_cast<unsigned>(opt.agents.size());
  unsigned units_per_validate =
      std::max(1u, assumed_width) * std::max(1u, opt.units_per_worker);
  JournalState js;
  if (opt.resume) {
    js = load_journal(opt.journal_dir, identity);
    if (!js.ok()) return fail_report(js.error);
    // The journal's decomposition shape wins: resuming with a different
    // --workers must not re-slice the validate units out from under the
    // fragments already on disk.
    units_per_validate = js.units_per_validate;
  }

  const std::vector<Unit> units = decompose(plan, units_per_validate);
  if (opt.resume && js.units.size() != units.size()) {
    return fail_report(
        "resume: journal records " + std::to_string(js.units.size()) +
        " units but this plan decomposes into " +
        std::to_string(units.size()));
  }
  std::vector<UnitState> states(units.size());
  std::vector<api::WorkerEvent> events;
  std::vector<std::string> cleanup;

  journal::Journal wal;
  if (journaled) {
    journal::ensure_dir(opt.journal_dir);
    clear_journal_dir(opt.journal_dir, /*scratch_only=*/opt.resume);
    wal.open(opt.journal_dir + "/" + std::string(kJournalFile));
    if (!opt.resume) {
      Value rec = Value::object();
      rec.set("type", "plan");
      rec.set("identity", identity);
      rec.set("units", units.size());
      rec.set("units_per_validate", units_per_validate);
      wal.append(rec.dump_string(0));
    }
  }

  // Resume: reload every unit whose journaled digest AND fragment bytes
  // agree; anything less re-executes. A resumed unit costs one "resumed"
  // event, a damaged one a "corrupt" event plus a fresh attempt.
  if (opt.resume) {
    for (std::size_t i = 0; i < units.size(); ++i) {
      const UnitRecord& ur = js.units[i];
      UnitState& st = states[i];
      st.next_attempt = ur.any_attempt ? ur.max_attempt + 1 : 0;
      if (!ur.done) continue;
      api::WorkerEvent e;
      e.unit = static_cast<unsigned>(i);
      e.kind = units[i].kind;
      e.attempt = ur.attempt;
      bool verified = false;
      try {
        const std::optional<std::string> payload =
            proc::read_frame_file(frag_path(opt.journal_dir, e.unit));
        if (payload && journal::crc64(*payload) == ur.digest) {
          Value json = Value::parse(*payload);
          bool semantic_ok =
              util::json::hash64(json.dump_canonical_string()) == ur.canon;
          if (semantic_ok && ur.has_vfp && units[i].kind == "validate") {
            const api::RunReport fr = api::RunReport::from_json(json);
            semantic_ok =
                validate::ValidationReport::from_json(
                    fr.analyses.at(0).data)
                    .fingerprint() == ur.vfp;
          }
          if (semantic_ok) {
            st.done = true;
            st.fragment = std::move(json);
            verified = true;
          }
        }
      } catch (const std::exception&) {
        verified = false;  // a fragment that throws anywhere is not a result
      }
      e.outcome = verified ? "resumed" : "corrupt";
      obs::counter(verified ? "runner.units_resumed"
                            : "runner.fragments_corrupt")
          .add();
      if (obs::TraceRecorder::instance().enabled()) {
        Value targs = Value::object();
        targs.set("unit", e.unit);
        targs.set("outcome", e.outcome);
        obs::TraceRecorder::instance().instant("journal:resume",
                                               std::move(targs));
      }
      if (!verified) {
        util::log::warn("runner", "journal fragment failed verification",
                        {{"unit", e.unit}});
      }
      events.push_back(e);
    }
  }

  // Scratch lives inside the journal directory when journaling (a killed
  // coordinator then leaks nothing into $TMPDIR), in $TMPDIR otherwise.
  const std::string prefix =
      journaled
          ? opt.journal_dir + "/tmp." + std::to_string(::getpid()) + "."
          : tmp_dir() + "/kronotri." + std::to_string(::getpid()) + ".";
  std::vector<std::string> plan_files(units.size());
  std::vector<std::string> plan_texts(units.size());  // remote dispatch body
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (states[i].done) continue;  // resumed units never touch a worker
    plan_texts[i] = units[i].plan.to_json().dump_string(0);
    plan_files[i] = prefix + "plan" + std::to_string(units[i].id) + ".json";
    std::ofstream out(plan_files[i], std::ios::trunc);
    out << plan_texts[i] << "\n";
    if (!out) {
      throw std::runtime_error("runner: cannot write " + plan_files[i]);
    }
    cleanup.push_back(plan_files[i]);
  }

  struct Pending {
    unsigned unit;
    double ready_at_s;
  };
  std::deque<Pending> pending;
  for (const Unit& u : units) {
    if (!states[u.id].done) pending.push_back({u.id, 0.0});
  }
  std::vector<RunningAttempt> running;
  std::string error;
  bool any_spawned = false;

  // Remote agents: one client per --agents endpoint, each advertised slot
  // a dispatch target. Slot occupancy is derived from `running` (one
  // source of truth), not counted separately.
  std::vector<RemoteAgent> remotes;
  {
    net::AgentClientOptions aco;
    aco.connect_timeout_s = opt.agent_connect_timeout_s;
    for (const std::string& ep : opt.agents) {
      RemoteAgent r;
      r.endpoint = ep;
      r.client = net::AgentClient(aco);
      remotes.push_back(std::move(r));
    }
  }
  const auto local_count = [&]() -> unsigned {
    unsigned n = 0;
    for (const RunningAttempt& ra : running) n += ra.agent < 0 ? 1 : 0;
    return n;
  };
  const auto agent_busy = [&](int ai) -> unsigned {
    unsigned n = 0;
    for (const RunningAttempt& ra : running) n += ra.agent == ai ? 1 : 0;
    return n;
  };
  const auto agent_free = [&](const RemoteAgent& r, int ai) -> bool {
    return r.welcomed && r.client.connected() &&
           agent_busy(ai) < r.slots;
  };
  const auto free_capacity = [&]() -> bool {
    if (local_count() < opt.workers) return true;
    for (std::size_t ai = 0; ai < remotes.size(); ++ai) {
      if (agent_free(remotes[ai], static_cast<int>(ai))) return true;
    }
    return false;
  };
  // Remote slots fill before local ones (they are the scale-out), agents
  // rotating round-robin so one fast welcome does not monopolize units.
  std::size_t agent_rotation = 0;
  const auto pick_agent = [&]() -> int {
    for (std::size_t k = 0; k < remotes.size(); ++k) {
      const std::size_t ai = (agent_rotation + k) % remotes.size();
      if (agent_free(remotes[ai], static_cast<int>(ai))) {
        agent_rotation = (ai + 1) % remotes.size();
        return static_cast<int>(ai);
      }
    }
    return -1;
  };
  const auto send_cancel = [&](const RunningAttempt& ra) {
    if (ra.agent < 0 || !remotes[ra.agent].client.connected()) return;
    Value c = Value::object();
    c.set("type", "cancel");
    c.set("unit", ra.unit);
    c.set("attempt", ra.attempt);
    (void)remotes[ra.agent].client.send(c);
  };

  // Unit completion from a verified fragment. Persists into the journal,
  // then supersedes every other in-flight attempt of the unit (first
  // result wins, local or remote).
  const auto complete_ok = [&](const RunningAttempt& ra, Value json,
                               const std::string& payload) {
    UnitState& st = states[ra.unit];
    st.done = true;
    if (wal.is_open()) {
      // Persist-then-record: the fragment's frame becomes DIR/unit<u>.frag
      // by atomic replace (the same bytes a local worker wrote, or the
      // frame a remote one's payload crossed the socket in), THEN the
      // done record lands in the WAL. A crash between the two re-executes
      // the unit — wasteful, never wrong.
      const std::string fpath = frag_path(opt.journal_dir, ra.unit);
      Value rec = Value::object();
      rec.set("type", "done");
      rec.set("unit", ra.unit);
      rec.set("attempt", ra.attempt);
      rec.set("digest", journal::crc64(payload));
      rec.set("canon", util::json::hash64(json.dump_canonical_string()));
      if (units[ra.unit].kind == "validate") {
        const api::RunReport fr = api::RunReport::from_json(json);
        rec.set("vfp",
                validate::ValidationReport::from_json(fr.analyses.at(0).data)
                    .fingerprint());
      }
      const std::string frame = journal::encode_frame(payload);
      if (inject.match("torn_write", ra.unit, ra.attempt) != nullptr) {
        // Injected coordinator crash mid-persist: write half the
        // fragment frame, no fsync, but still journal the done record
        // (the order a real crash between write and rename produces
        // is covered by the plain re-execute path; THIS is the nastier
        // inversion resume must catch by digest).
        std::ofstream out(fpath, std::ios::binary | std::ios::trunc);
        out.write(frame.data(),
                  static_cast<std::streamsize>(frame.size() / 2));
      } else {
        journal::atomic_write_file(fpath, frame);
      }
      wal.append(rec.dump_string(0));
    }
    st.fragment = std::move(json);
    // First result wins: kill/cancel any other in-flight attempt.
    for (RunningAttempt& other : running) {
      if (other.unit == ra.unit && !other.superseded &&
          !(other.attempt == ra.attempt && other.agent == ra.agent)) {
        other.superseded = true;
        if (other.agent < 0) {
          if (other.pid > 0) ::kill(other.pid, SIGKILL);
        } else {
          send_cancel(other);
        }
      }
    }
  };

  // The one place an attempt's end — a local reap, an agent's result,
  // a lost agent connection, a failed spawn or an abort — becomes its
  // WorkerEvent, `attempt` trace span, RSS gauge sample and log line.
  // The attempt's own flags decide first (aborted, superseded or unit
  // already won, verified fragment, deadline), then failure_of's table.
  // Returns the retry-budget reason when the attempt is charged. The
  // attempt must already be out of `running`. `remote_pid` is the child
  // pid an agent reported; it goes on the event only, while the trace's
  // pid argument and per-worker counters stay local-only.
  const auto settle = [&](const RunningAttempt& ra, const proc::Outcome& out,
                          const proc::Usage& use = {}, unsigned team = 0,
                          long remote_pid = 0) -> std::optional<std::string> {
    const bool remote = ra.agent >= 0;
    api::WorkerEvent e;
    e.unit = ra.unit;
    e.kind = units[ra.unit].kind;
    e.attempt = ra.attempt;
    e.pid = remote ? remote_pid : (ra.pid > 0 ? ra.pid : 0);
    e.detail = out.detail;
    e.wall_s = monotonic_s() - ra.start_s;
    if (remote) e.host = remotes[ra.agent].endpoint;
    e.max_rss_bytes = use.max_rss_bytes;
    e.cpu_user_s = use.cpu_user_s;
    e.cpu_sys_s = use.cpu_sys_s;
    e.omp_threads = team;

    const bool lost = ra.aborted || ra.superseded || states[ra.unit].done;
    std::optional<Value> frag;
    if (!lost && out.payload) {
      try {
        frag = Value::parse(*out.payload);
      } catch (const std::exception&) {
        // A frame that verifies but is not JSON classifies "truncated".
      }
    }
    std::optional<std::string> why;
    if (ra.aborted) {
      e.outcome = "aborted";
    } else if (lost) {
      // Whatever this attempt did, the unit was already won: a
      // speculative loss, never a budget-charged failure.
      e.outcome = "speculative_loss";
    } else if (frag) {
      e.outcome = "ok";
    } else if (ra.timed_out) {
      e.outcome = "timeout";
      why = "timed out";
    } else {
      std::tie(e.outcome, why) = failure_of(out.kind, out.detail);
    }
    events.push_back(e);
    if (frag) complete_ok(ra, std::move(*frag), *out.payload);

    obs::TraceRecorder& trace = obs::TraceRecorder::instance();
    if (trace.enabled()) {
      Value targs = Value::object();
      targs.set("unit", e.unit);
      targs.set("kind", e.kind);
      targs.set("attempt", e.attempt);
      if (!remote && e.pid > 0) {
        targs.set("pid", static_cast<std::int64_t>(e.pid));
      }
      targs.set("outcome", e.outcome);
      if (remote) targs.set("agent", e.host);
      trace.complete_on(attempt_tid(e.unit, e.attempt), "attempt",
                        ra.start_us, obs::now_us() - ra.start_us,
                        std::move(targs));
      if (!remote && e.pid > 0) {
        trace.counter("runner.worker_max_rss_bytes",
                      static_cast<double>(e.max_rss_bytes));
        trace.counter("runner.worker_cpu_s", e.cpu_user_s + e.cpu_sys_s);
      }
    }
    obs::gauge("runner.worker_max_rss_bytes")
        .max_of(static_cast<double>(e.max_rss_bytes));
    if (e.outcome == "ok") {
      util::log::debug("runner", "attempt ok",
                       {{"unit", e.unit},
                        {"attempt", e.attempt},
                        {"host", remote ? e.host : "local"},
                        {"wall_s", e.wall_s}});
    } else if (why) {
      util::log::warn("runner", "attempt failed",
                      {{"unit", e.unit},
                       {"attempt", e.attempt},
                       {"host", remote ? e.host : "local"},
                       {"outcome", e.outcome},
                       {"detail", e.detail}});
    }
    return why;
  };

  const auto fail_unit = [&](unsigned unit_id, const std::string& why) {
    error = "unit " + std::to_string(unit_id) + " (" + units[unit_id].kind +
            ") " + why + " after " +
            std::to_string(states[unit_id].failures) + " attempt" +
            (states[unit_id].failures == 1 ? "" : "s") +
            " (max_retries=" + std::to_string(opt.max_retries) + ")";
    util::log::error("runner", "unit exhausted its retry budget",
                     {{"unit", unit_id}, {"why", why}});
    pending.clear();
    for (std::size_t i = 0; i < running.size();) {
      RunningAttempt& ra = running[i];
      ra.aborted = true;
      if (ra.agent < 0) {
        if (ra.pid > 0) ::kill(ra.pid, SIGKILL);
        ++i;
        continue;
      }
      // Remote attempts have no child to reap: cancel best-effort and
      // settle the abort now so the drain loop only waits on local pids.
      send_cancel(ra);
      const RunningAttempt gone = ra;
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
      (void)settle(gone, {"cancelled", 0, std::nullopt});
    }
  };

  // Failure of one attempt: count it against the unit's budget and either
  // re-queue with backoff or fail the whole run. The delay is jittered per
  // unit so a mass worker kill does not re-dispatch every unit in
  // lockstep (deterministic — see util::Backoff).
  const auto on_failure = [&](const RunningAttempt& ra,
                              const std::string& why) {
    UnitState& st = states[ra.unit];
    ++st.failures;
    if (wal.is_open()) {
      Value rec = Value::object();
      rec.set("type", "failure");
      rec.set("unit", ra.unit);
      rec.set("attempt", ra.attempt);
      rec.set("why", why);
      wal.append(rec.dump_string(0));
    }
    if (st.failures > opt.max_retries) {
      fail_unit(ra.unit, why);
      return;
    }
    const double delay_s =
        opt.backoff.delay_jittered_s(st.failures - 1, ra.unit);
    if (obs::TraceRecorder::instance().enabled()) {
      Value targs = Value::object();
      targs.set("unit", ra.unit);
      targs.set("attempt", ra.attempt);
      targs.set("why", why);
      targs.set("backoff_s", delay_s);
      obs::TraceRecorder::instance().instant("retry", std::move(targs));
    }
    pending.push_back({ra.unit, monotonic_s() + delay_s});
  };

  // Starts the unit's next attempt on a remote slot when one is free, else
  // on a local one. A fork that fails settles as spawn_failed; its
  // retry-budget reason comes back for the caller to charge (or not).
  const auto dispatch = [&](unsigned unit_id) -> std::optional<std::string> {
    UnitState& st = states[unit_id];
    RunningAttempt ra;
    ra.unit = unit_id;
    ra.attempt = st.next_attempt++;
    ra.agent = remotes.empty() ? -1 : pick_agent();
    ra.out_path = prefix + "u" + std::to_string(unit_id) + ".a" +
                  std::to_string(ra.attempt) + ".frame";
    cleanup.push_back(ra.out_path);
    // WAL the dispatch BEFORE the spawn: after a crash the journal then
    // names every attempt that may ever have existed, so a resume picks
    // attempt numbers no orphaned worker could still be writing under.
    if (wal.is_open()) {
      Value rec = Value::object();
      rec.set("type", "dispatch");
      rec.set("unit", unit_id);
      rec.set("attempt", ra.attempt);
      wal.append(rec.dump_string(0));
    }
    if (ra.agent >= 0) {
      RemoteAgent& r = remotes[ra.agent];
      Value d = Value::object();
      d.set("type", "dispatch");
      d.set("unit", unit_id);
      d.set("attempt", ra.attempt);
      d.set("plan", plan_texts[unit_id]);
      if (!opt.fault_spec.empty()) d.set("fault", opt.fault_spec);
      if (opt.worker_mem_limit_bytes > 0) {
        d.set("mem_limit", opt.worker_mem_limit_bytes);
      }
      if (obs::TraceRecorder::instance().enabled()) d.set("trace", true);
      ra.start_s = monotonic_s();
      ra.start_us = obs::now_us();
      if (!r.client.send(d)) {
        // The connection died under the dispatch. Nothing ran, so nothing
        // is charged: the unit goes straight back to pending and the
        // agent into its redial backoff.
        r.welcomed = false;
        r.slots = 0;
        r.next_dial_s =
            monotonic_s() + opt.backoff.delay_s(std::min(r.dial_failures, 6u));
        ++r.dial_failures;
        pending.push_back({unit_id, 0.0});
        return std::nullopt;
      }
      any_spawned = true;
      obs::counter("runner.remote_dispatches").add();
      if (ra.attempt > 0) obs::counter("runner.retries").add();
      util::log::debug("runner", "dispatched to agent",
                       {{"unit", unit_id},
                        {"attempt", ra.attempt},
                        {"agent", r.endpoint}});
      running.push_back(std::move(ra));
      return std::nullopt;
    }
    if (obs::TraceRecorder::instance().enabled()) {
      // The worker dumps its trace buffer here; the coordinator stitches
      // the file in after the reap.
      ra.trace_path = prefix + "u" + std::to_string(unit_id) + ".a" +
                      std::to_string(ra.attempt) + ".trace";
      cleanup.push_back(ra.trace_path);
    }
    const proc::Spawned spawned = proc::spawn(proc::worker_argv(
        exe, {plan_files[unit_id], ra.out_path, unit_id, ra.attempt,
              omp_threads, opt.fault_spec, opt.worker_mem_limit_bytes,
              ra.trace_path}));
    ra.pid = spawned.pid;
    ra.start_s = monotonic_s();
    ra.start_us = obs::now_us();
    if (spawned.pid < 0) {
      return settle(ra, {"spawn_failed", spawned.error, std::nullopt});
    }
    obs::counter("runner.dispatches").add();
    if (ra.attempt > 0) obs::counter("runner.retries").add();
    util::log::debug("runner", "dispatched worker",
                     {{"unit", unit_id},
                      {"attempt", ra.attempt},
                      {"pid", static_cast<std::int64_t>(ra.pid)}});
    any_spawned = true;
    running.push_back(std::move(ra));
    return std::nullopt;
  };

  // Transport damage on one agent: drop the connection, schedule a
  // backed-off redial, and settle every in-flight attempt of the agent as
  // "disconnect"/"garbled" — charged like a SIGKILLed local child.
  const auto drop_agent = [&](int ai, const std::string& outcome) {
    RemoteAgent& r = remotes[ai];
    r.client.close();
    r.welcomed = false;
    r.slots = 0;
    r.next_dial_s =
        monotonic_s() + opt.backoff.delay_s(std::min(r.dial_failures, 6u));
    ++r.dial_failures;
    obs::counter(outcome == "garbled" ? "runner.garbled_frames"
                                      : "runner.disconnects")
        .add();
    util::log::warn("runner", "agent connection lost",
                    {{"agent", r.endpoint}, {"outcome", outcome}});
    for (std::size_t i = 0; i < running.size();) {
      if (running[i].agent != ai) {
        ++i;
        continue;
      }
      const RunningAttempt ra = running[i];
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
      if (const std::optional<std::string> why =
              settle(ra, {outcome, 0, std::nullopt})) {
        on_failure(ra, *why);
        // on_failure may have failed the run; fail_unit then already
        // drained every remote attempt (including the rest of ours).
        if (!error.empty()) break;
        i = 0;  // fail-safe: rescan, indices may have shifted
      }
    }
  };

  // One message from an agent connection. Results are matched to their
  // RunningAttempt by (unit, attempt, agent); a miss is a late/duplicate
  // delivery after a reconnect — dropping it is what makes redelivery
  // idempotent.
  const auto handle_remote_msg = [&](int ai, const Value& m) {
    RemoteAgent& r = remotes[ai];
    const std::string type = m.get_string("type", "");
    if (type == "welcome") {
      r.slots = static_cast<unsigned>(m.get_uint("slots", 1));
      r.welcomed = true;
      r.dial_failures = 0;
      util::log::info("runner", "agent connected",
                      {{"agent", r.endpoint}, {"slots", r.slots}});
      return;
    }
    if (type != "result") return;  // heartbeats only refresh last_rx_s
    const unsigned unit = static_cast<unsigned>(m.get_uint("unit", ~0ull));
    const unsigned attempt =
        static_cast<unsigned>(m.get_uint("attempt", ~0ull));
    std::size_t idx = running.size();
    for (std::size_t i = 0; i < running.size(); ++i) {
      if (running[i].agent == ai && running[i].unit == unit &&
          running[i].attempt == attempt) {
        idx = i;
        break;
      }
    }
    if (idx == running.size()) {
      obs::counter("runner.duplicate_results").add();
      util::log::debug("runner", "ignoring late/duplicate result",
                       {{"unit", unit}, {"attempt", attempt}});
      return;
    }
    const RunningAttempt ra = running[idx];
    running.erase(running.begin() + static_cast<std::ptrdiff_t>(idx));
    const auto number = [&](const char* key) {
      const Value* v = m.find(key);
      return v != nullptr && v->is_number() ? v->as_double() : 0.0;
    };
    proc::Outcome out;
    out.kind = m.get_string("outcome", "truncated");
    out.detail = static_cast<int>(m.get_uint("detail", 0));
    if (const Value* f = m.find("fragment"); f && f->is_string()) {
      out.payload = f->as_string();
    }
    proc::Usage use;
    use.max_rss_bytes =
        static_cast<std::size_t>(m.get_uint("max_rss_bytes", 0));
    use.cpu_user_s = number("cpu_user_s");
    use.cpu_sys_s = number("cpu_sys_s");
    obs::TraceRecorder& trace = obs::TraceRecorder::instance();
    if (trace.enabled()) {
      // The worker's trace buffer crossed the socket instead of $TMPDIR;
      // the agent endpoint keys the imported pids into their own band.
      if (const Value* t = m.find("trace"); t && t->is_string()) {
        trace.import_text(t->as_string(), r.endpoint);
      }
    }
    if (const std::optional<std::string> why = settle(
            ra, out, use,
            static_cast<unsigned>(m.get_uint("omp_threads", 0)),
            static_cast<long>(m.get_uint("pid", 0)))) {
      on_failure(ra, *why);
    }
  };

  while (!running.empty() || (!pending.empty() && error.empty())) {
    const double now = monotonic_s();

    // Agent transport upkeep: (re)dial disconnected agents whose backoff
    // elapsed, pump every live connection, and declare silent ones dead.
    if (error.empty()) {
      for (std::size_t ai = 0; ai < remotes.size(); ++ai) {
        RemoteAgent& r = remotes[ai];
        if (r.client.connected() || pending.empty() ||
            now < r.next_dial_s) {
          continue;
        }
        std::string derr;
        if (r.client.connect(r.endpoint, &derr)) {
          r.last_rx_s = monotonic_s();
          continue;
        }
        r.next_dial_s =
            monotonic_s() + opt.backoff.delay_s(std::min(r.dial_failures, 6u));
        ++r.dial_failures;
        util::log::debug("runner", "agent dial failed",
                         {{"agent", r.endpoint}, {"error", derr}});
      }
      for (std::size_t ai = 0; ai < remotes.size(); ++ai) {
        RemoteAgent& r = remotes[ai];
        if (!r.client.connected()) continue;
        std::vector<Value> msgs;
        const net::AgentClient::Pump ps = r.client.pump(msgs);
        if (!msgs.empty()) r.last_rx_s = monotonic_s();
        for (const Value& m : msgs) {
          handle_remote_msg(static_cast<int>(ai), m);
        }
        if (ps == net::AgentClient::Pump::kCorrupt) {
          // A frame failed its CRC mid-stream. No resync is possible —
          // drop the connection and re-dispatch whatever was in flight.
          drop_agent(static_cast<int>(ai), "garbled");
        } else if (ps == net::AgentClient::Pump::kClosed) {
          drop_agent(static_cast<int>(ai), "disconnect");
        } else if (opt.heartbeat_timeout_s > 0 &&
                   monotonic_s() - r.last_rx_s > opt.heartbeat_timeout_s) {
          drop_agent(static_cast<int>(ai), "disconnect");
        }
      }
      // Pure-remote runs must not spin forever against a dead fleet: once
      // every agent's dial budget mirrors the unit retry budget with no
      // connection and nothing in flight, fail structurally.
      if (error.empty() && opt.workers == 0 && !remotes.empty() &&
          running.empty() && !pending.empty()) {
        bool any_conn = false;
        bool all_exhausted = true;
        for (const RemoteAgent& r : remotes) {
          any_conn = any_conn || r.client.connected();
          all_exhausted = all_exhausted && r.dial_failures > opt.max_retries + 1;
        }
        if (!any_conn && all_exhausted) {
          std::string list;
          for (const std::string& ep : opt.agents) {
            if (!list.empty()) list += ",";
            list += ep;
          }
          error = "no reachable agents (" + list + ")";
          util::log::error("runner", "no reachable agents",
                           {{"agents", list}});
          pending.clear();
        }
      }
    }

    // Deadline enforcement: SIGKILL a local worker past its per-attempt
    // budget (the reap below classifies it "timeout"); a remote attempt
    // is marked and cancelled, classified when the agent acknowledges —
    // or when its connection drops.
    for (RunningAttempt& ra : running) {
      if (opt.shard_timeout_s > 0 && !ra.timed_out && !ra.aborted &&
          now - ra.start_s > opt.shard_timeout_s) {
        ra.timed_out = true;
        if (ra.agent < 0) {
          ::kill(ra.pid, SIGKILL);
        } else {
          send_cancel(ra);
        }
      }
    }

    // Reap (local children only; remote attempts resolve via pump above).
    for (std::size_t i = 0; i < running.size();) {
      std::optional<proc::Reaped> got;
      if (running[i].agent >= 0 || !(got = proc::reap(running[i].pid))) {
        ++i;
        continue;
      }
      const RunningAttempt ra = running[i];
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
      // Stitch the worker's own timeline in before its attempt span
      // (missing/truncated files from killed workers are tolerated).
      obs::TraceRecorder& trace = obs::TraceRecorder::instance();
      if (trace.enabled() && !ra.trace_path.empty()) {
        trace.import_file(ra.trace_path);
      }
      if (const std::optional<std::string> why =
              settle(ra, proc::classify(got->status, ra.out_path),
                     got->usage, omp_threads)) {
        on_failure(ra, *why);
      }
    }

    if (!error.empty()) {
      if (running.empty()) break;
      util::Backoff::sleep_s(opt.poll_interval_s);
      continue;
    }

    // Launch pending attempts whose backoff delay has elapsed, onto
    // whichever slot is free — a welcomed agent's advertised slots fill
    // before local fork/exec slots.
    for (std::size_t i = 0; i < pending.size() && free_capacity();) {
      if (pending[i].ready_at_s > now || states[pending[i].unit].done) {
        if (states[pending[i].unit].done) {
          pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
          continue;
        }
        ++i;
        continue;
      }
      const unsigned unit_id = pending[i].unit;
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
      if (const std::optional<std::string> why = dispatch(unit_id)) {
        if (!any_spawned) {
          // fork is unavailable before anything ran: degrade to the
          // in-process serial path rather than failing the plan.
          api::RunReport report = api::run(plan);
          api::WorkerEvent ev;
          ev.kind = "run";
          ev.outcome = "degraded";
          report.worker_events = std::move(events);
          report.worker_events.push_back(ev);
          for (const std::string& path : cleanup) ::unlink(path.c_str());
          return report;
        }
        RunningAttempt ra;
        ra.unit = unit_id;
        ra.attempt = states[unit_id].next_attempt - 1;
        on_failure(ra, *why);
      }
    }

    // Speculative re-execution: queue drained, slots free, and a running
    // attempt has outlived the straggler threshold — re-issue its unit
    // once; whichever attempt finishes first wins.
    if (opt.speculate && pending.empty() && !running.empty() &&
        free_capacity() && error.empty()) {
      std::vector<double> walls;
      for (const api::WorkerEvent& ev : events) {
        if (ev.outcome == "ok") walls.push_back(ev.wall_s);
      }
      double threshold = opt.straggler_min_s;
      if (!walls.empty()) {
        std::sort(walls.begin(), walls.end());
        threshold = std::max(threshold, 2 * walls[walls.size() / 2]);
      }
      RunningAttempt* straggler = nullptr;
      for (RunningAttempt& ra : running) {
        const UnitState& st = states[ra.unit];
        if (st.done || st.speculated || ra.timed_out || ra.superseded) {
          continue;
        }
        if (now - ra.start_s < threshold) continue;
        if (straggler == nullptr || ra.start_s < straggler->start_s) {
          straggler = &ra;
        }
      }
      if (straggler != nullptr) {
        states[straggler->unit].speculated = true;
        obs::counter("runner.speculations").add();
        if (obs::TraceRecorder::instance().enabled()) {
          Value targs = Value::object();
          targs.set("unit", straggler->unit);
          targs.set("running_s", now - straggler->start_s);
          obs::TraceRecorder::instance().instant("speculate",
                                                 std::move(targs));
        }
        util::log::info("runner", "speculative re-execution",
                        {{"unit", straggler->unit}});
        (void)dispatch(straggler->unit);
      }
    }

    // Always yield a poll interval: also covers the drained-but-backing-
    // off state (nothing running, every pending attempt waiting out its
    // delay), which must not busy-spin.
    if (!running.empty() || !pending.empty()) {
      util::Backoff::sleep_s(opt.poll_interval_s);
    }
  }

  api::RunReport report;
  if (error.empty()) {
    obs::Span merge_span("runner::merge");
    report = merge_fragments(plan, units, states);
  } else {
    report.plan = plan;
    report.pass = false;
    report.error = error;
    report.metadata = util::run_metadata(plan.options.batch_size);
  }
  report.worker_events = std::move(events);
  report.total_wall_s = total_wall.seconds();
  report.total_cpu_s = total_cpu.seconds();
  report.peak_rss_bytes = util::peak_rss_bytes();
  // The report's counters are the coordinator's own delta plus every
  // finished worker fragment's delta (the workers did the validate shards;
  // their counts must not vanish with the scratch files). Counters sum;
  // gauges (doubles) keep the max.
  Value agg = obs::CounterRegistry::delta(
      counters_start, obs::CounterRegistry::instance().snapshot());
  for (const UnitState& st : states) {
    const Value* frag_counters = st.fragment.find("counters");
    if (frag_counters == nullptr || !frag_counters->is_object()) continue;
    for (const auto& [key, value] : frag_counters->members()) {
      if (value.kind() == Value::Kind::kUInt) {
        std::uint64_t base = 0;
        if (const Value* cur = agg.find(key);
            cur != nullptr && cur->kind() == Value::Kind::kUInt) {
          base = cur->as_uint();
        }
        agg.set(key, base + value.as_uint());
      } else if (value.is_number()) {
        double base = 0;
        if (const Value* cur = agg.find(key);
            cur != nullptr && cur->is_number()) {
          base = cur->as_double();
        }
        agg.set(key, std::max(base, value.as_double()));
      }
    }
  }
  report.counters = std::move(agg);
  // Stamp the resolved execution topology (the --workers auto value and
  // the agent fleet) into the run's metadata. comparable() strips
  // metadata, so this never perturbs bit-identity checks.
  if (report.metadata.is_object()) {
    report.metadata.set("runner_workers", static_cast<std::uint64_t>(opt.workers));
    if (!opt.agents.empty()) {
      Value alist = Value::array();
      for (const std::string& ep : opt.agents) alist.push_back(ep);
      report.metadata.set("runner_agents", std::move(alist));
    }
  }
  util::log::info("runner", "coordinator done",
                  {{"pass", report.pass ? "yes" : "no"},
                   {"attempts", report.worker_events.size()},
                   {"wall_s", report.total_wall_s}});
  for (const std::string& path : cleanup) ::unlink(path.c_str());
  return report;
}

Value comparable(const Value& report_json) {
  const auto strip_timing = [](const Value& arr,
                               std::initializer_list<const char*> drop) {
    Value out = Value::array();
    for (const Value& item : arr.items()) {
      Value copy = Value::object();
      for (const auto& [key, value] : item.members()) {
        bool dropped = false;
        for (const char* d : drop) dropped = dropped || key == d;
        if (!dropped) copy.set(key, value);
      }
      out.push_back(std::move(copy));
    }
    return out;
  };

  Value out = Value::object();
  for (const auto& [key, value] : report_json.members()) {
    if (key == "total_wall_s" || key == "total_cpu_s" ||
        key == "peak_rss_bytes" || key == "queue_wait_s" ||
        key == "metadata" || key == "worker_events" || key == "counters") {
      continue;
    }
    if (key == "stages") {
      out.set(key, strip_timing(value, {"wall_s", "cpu_s"}));
    } else if (key == "analyses") {
      out.set(key, strip_timing(value, {"wall_s"}));
    } else if (key == "plan") {
      out.set(key, without_distribution(value));
    } else {
      out.set(key, value);
    }
  }
  return out;
}

}  // namespace kronotri::runner
