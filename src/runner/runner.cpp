#include "runner/runner.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include <dirent.h>
#include <sys/socket.h>
#include <unistd.h>

#include "net/agent.hpp"
#include "net/remote.hpp"
#include "obs/counters.hpp"
#include "obs/stopwatch.hpp"
#include "obs/trace.hpp"
#include "runner/proc.hpp"
#include "util/fault.hpp"
#include "util/journal.hpp"
#include "util/log.hpp"
#include "util/runmeta.hpp"
#include "util/threads.hpp"
#include "validate/report.hpp"

namespace kronotri::runner {

namespace {

namespace journal = util::journal;
using util::json::Value;

using proc::tmp_dir;

/// Validate units per worker slot: U = width * kUnitsPerWorker shard-subset
/// units per validate analysis, so the schedule has slack for stragglers
/// without a unit being too small to measure.
constexpr unsigned kUnitsPerWorker = 2;
/// Coordinator and local agent poll period (seconds).
constexpr double kPollIntervalS = 0.002;

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
    if (::access(("/proc/" + pid_str).c_str(), F_OK) == 0) continue;  // alive
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
  int agent = 0;            // index into the agent table
  double start_s = 0;      // obs::now_s() at dispatch
  bool timed_out = false;   // cancelled past its deadline
  bool superseded = false;  // another attempt of the unit already won
  bool aborted = false;     // run is failing, everything was cancelled
};

/// Coordinator-side state of one dispatch target: the in-process agent
/// behind the local --workers slots, or one --agents endpoint. The
/// connection is a cattle resource: dropped and re-dialed (with backoff)
/// whenever the transport reports damage — a fresh socketpair for the
/// local agent — while the unit bookkeeping stays in `running`/`pending`.
struct AgentConn {
  std::string endpoint;     // "" for the local agent: its events keep no host
  std::string name;         // log label: the endpoint, or "local"
  std::unique_ptr<net::Agent> local;  // set for the local slots only
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

  // Graceful degradation: an in-process serial run, recorded as such
  // instead of silently pretending to be parallel.
  const auto degrade = [&](std::vector<api::WorkerEvent> trail) {
    api::RunReport report = api::run(plan);
    api::WorkerEvent e;
    e.kind = "run";
    e.outcome = "degraded";
    report.worker_events = std::move(trail);
    report.worker_events.push_back(e);
    return report;
  };

  std::string exe =
      opt.worker_exe.empty() ? default_worker_exe() : opt.worker_exe;
  if (exe.empty() || ::access(exe.c_str(), X_OK) != 0) {
    if (opt.agents.empty()) return degrade({});
    // Agents execute remotely with their own binaries; just never spawn
    // a local worker from the missing one.
    opt.workers = 0;
  }

  sweep_stale_tmp();

  // Every local worker gets its share of this host's cores instead of a
  // full OpenMP team each (N workers x C threads on C cores); the caller's
  // omp_get_max_threads() stays the ceiling. The local agent resolves the
  // same budget on this thread when it is first attached; remote agents
  // budget their own slots.
  const unsigned omp_threads = util::omp_budget(opt.workers);

  const obs::Stopwatch elapsed;
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
    r.total_wall_s = elapsed.wall_s();
    r.total_cpu_s = elapsed.cpu_s();
    r.peak_rss_bytes = util::peak_rss_bytes();
    return r;
  };

  const std::uint64_t identity = journaled ? plan_identity_hash(plan) : 0;
  // Decomposition width must be decided before any agent connects (the
  // journal pins it), so remote slots are assumed ~2 per agent; the
  // actual advertised count only shapes scheduling, never the merge.
  const unsigned assumed_width =
      opt.workers + 2 * static_cast<unsigned>(opt.agents.size());
  unsigned units_per_validate = std::max(1u, assumed_width) * kUnitsPerWorker;
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

  // The local agent's worker scratch lives inside the journal directory
  // when journaling (a killed coordinator then leaks nothing into
  // $TMPDIR), in $TMPDIR otherwise.
  const std::string prefix =
      journaled
          ? opt.journal_dir + "/tmp." + std::to_string(::getpid()) + "."
          : tmp_dir() + "/kronotri." + std::to_string(::getpid()) + ".";
  std::vector<std::string> plan_texts(units.size());  // dispatch bodies
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (states[i].done) continue;  // resumed units never touch a worker
    plan_texts[i] = units[i].plan.to_json().dump_string(0);
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
  bool any_result = false;  // some attempt's result has been settled
  bool degraded = false;    // the local agent could not spawn at all

  // The agent table: the local --workers slots first (one in-process
  // agent, served over a socketpair, never a listening port), then one
  // client per --agents endpoint. Every advertised slot is a dispatch
  // target; slot occupancy is derived from `running` (one source of
  // truth), not counted separately.
  std::vector<AgentConn> conns;
  if (opt.workers > 0) {
    net::AgentOptions ao;
    ao.slots = opt.workers;
    ao.worker_exe = exe;
    ao.poll_interval_s = kPollIntervalS;
    AgentConn a;
    a.name = "local";
    a.local = std::make_unique<net::Agent>(ao);
    conns.push_back(std::move(a));
  }
  {
    net::AgentClientOptions aco;
    aco.connect_timeout_s = opt.agent_connect_timeout_s;
    for (const std::string& ep : opt.agents) {
      AgentConn a;
      a.endpoint = ep;
      a.name = ep;
      a.client = net::AgentClient(aco);
      conns.push_back(std::move(a));
    }
  }
  // Dials one agent: a fresh socketpair into the local agent, a socket
  // connect for a remote one.
  const auto dial = [&](AgentConn& a, std::string* err) -> bool {
    if (!a.local) return a.client.connect(a.endpoint, err);
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv) != 0) {
      *err = std::strerror(errno);
      return false;
    }
    if (!a.local->attach(sv[1], prefix, err)) {
      ::close(sv[0]);
      return false;
    }
    return a.client.adopt(sv[0], err);
  };
  const auto agent_busy = [&](int ai) -> unsigned {
    unsigned n = 0;
    for (const RunningAttempt& ra : running) n += ra.agent == ai ? 1 : 0;
    return n;
  };
  const auto agent_free = [&](int ai) -> bool {
    const AgentConn& a = conns[ai];
    return a.welcomed && a.client.connected() && agent_busy(ai) < a.slots;
  };
  // The next agent with a free slot, -1 when none. Agents rotate
  // round-robin (dispatch advances the rotation) so one fast welcome does
  // not monopolize units.
  std::size_t agent_rotation = 0;
  const auto next_free = [&]() -> int {
    for (std::size_t k = 0; k < conns.size(); ++k) {
      const std::size_t ai = (agent_rotation + k) % conns.size();
      if (agent_free(static_cast<int>(ai))) return static_cast<int>(ai);
    }
    return -1;
  };
  // Best effort: an attempt whose connection is gone already died with it.
  const auto send_cancel = [&](const RunningAttempt& ra) {
    if (!conns[ra.agent].client.connected()) return;
    Value c = Value::object();
    c.set("type", "cancel");
    c.set("unit", ra.unit);
    c.set("attempt", ra.attempt);
    (void)conns[ra.agent].client.send(c);
  };

  // Unit completion from a verified fragment. Persists into the journal,
  // then supersedes every other in-flight attempt of the unit (first
  // result wins, whichever agent ran it).
  const auto complete_ok = [&](const RunningAttempt& ra, Value json,
                               const std::string& payload) {
    UnitState& st = states[ra.unit];
    st.done = true;
    if (wal.is_open()) {
      // Persist-then-record: the fragment's frame (the payload crossed
      // the socket in) becomes DIR/unit<u>.frag by atomic replace, THEN
      // the done record lands in the WAL. A crash between the two
      // re-executes the unit — wasteful, never wrong.
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
    // First result wins: cancel any other in-flight attempt (`ra` itself
    // is already out of `running`).
    for (RunningAttempt& other : running) {
      if (other.unit == ra.unit && !other.superseded) {
        other.superseded = true;
        send_cancel(other);
      }
    }
  };

  // The one place an attempt's end — an agent's result, a lost agent
  // connection or an abort — becomes its WorkerEvent, `attempt` trace
  // span, RSS gauge sample and log line. The attempt's own flags decide
  // first (aborted, superseded or unit already won, verified fragment,
  // deadline), then failure_of's table. Returns the retry-budget reason
  // when the attempt is charged. The attempt must already be out of
  // `running`. `pid`, `use` and `team` are what the agent reported for
  // the worker child.
  const auto settle = [&](const RunningAttempt& ra, const proc::Outcome& out,
                          const proc::Usage& use = {}, unsigned team = 0,
                          long pid = 0) -> std::optional<std::string> {
    const AgentConn& a = conns[ra.agent];
    api::WorkerEvent e;
    e.unit = ra.unit;
    e.kind = units[ra.unit].kind;
    e.attempt = ra.attempt;
    e.pid = pid;
    e.detail = out.detail;
    e.wall_s = obs::now_s() - ra.start_s;
    e.host = a.endpoint;
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
      if (e.pid > 0) targs.set("pid", static_cast<std::int64_t>(e.pid));
      targs.set("outcome", e.outcome);
      if (!e.host.empty()) targs.set("agent", e.host);
      trace.complete_on(attempt_tid(e.unit, e.attempt), "attempt",
                        ra.start_s * 1e6, (obs::now_s() - ra.start_s) * 1e6,
                        std::move(targs));
      if (e.pid > 0) {
        trace.counter("runner.worker_max_rss_bytes",
                      static_cast<double>(e.max_rss_bytes));
        trace.counter("runner.worker_cpu_s", e.cpu_user_s + e.cpu_sys_s);
      }
    }
    if (e.max_rss_bytes > 0) {
      obs::histogram("runner.worker_rss_bytes").record(e.max_rss_bytes);
    }
    if (e.outcome == "ok") {
      util::log::debug("runner", "attempt ok",
                       {{"unit", e.unit},
                        {"attempt", e.attempt},
                        {"host", a.name},
                        {"wall_s", e.wall_s}});
    } else if (why) {
      util::log::warn("runner", "attempt failed",
                      {{"unit", e.unit},
                       {"attempt", e.attempt},
                       {"host", a.name},
                       {"outcome", e.outcome},
                       {"detail", e.detail}});
    }
    return why;
  };

  // The run fails: cancel and settle every in-flight attempt as aborted.
  // No agent answer is awaited — an in-process agent kills whatever is
  // left when it stops, a remote one when its connection closes.
  const auto fail_unit = [&](unsigned unit_id, const std::string& why) {
    error = "unit " + std::to_string(unit_id) + " (" + units[unit_id].kind +
            ") " + why + " after " +
            std::to_string(states[unit_id].failures) + " attempt" +
            (states[unit_id].failures == 1 ? "" : "s") +
            " (max_retries=" + std::to_string(opt.max_retries) + ")";
    util::log::error("runner", "unit exhausted its retry budget",
                     {{"unit", unit_id}, {"why", why}});
    pending.clear();
    std::vector<RunningAttempt> gone;
    gone.swap(running);
    for (RunningAttempt& ra : gone) {
      send_cancel(ra);
      ra.aborted = true;
      (void)settle(ra, {"cancelled", 0, std::nullopt});
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
    pending.push_back({ra.unit, obs::now_s() + delay_s});
  };

  // Transport damage on one agent: drop the connection, schedule a
  // backed-off redial, and settle every in-flight attempt of the agent as
  // "disconnect"/"garbled" — charged like any other worker death.
  const auto drop_agent = [&](int ai, const std::string& outcome) {
    AgentConn& a = conns[ai];
    a.client.close();
    a.welcomed = false;
    a.slots = 0;
    a.next_dial_s =
        obs::now_s() + opt.backoff.delay_s(std::min(a.dial_failures, 6u));
    ++a.dial_failures;
    obs::counter(outcome == "garbled" ? "runner.garbled_frames"
                                      : "runner.disconnects")
        .add();
    util::log::warn("runner", "agent connection lost",
                    {{"agent", a.name}, {"outcome", outcome}});
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
        // drained every attempt (including the rest of ours).
        if (!error.empty()) break;
        i = 0;  // fail-safe: rescan, indices may have shifted
      }
    }
  };

  // Starts the unit's next attempt on agent `ai`, which has a free slot.
  // A send that fails re-queues the unit uncharged — nothing ran — and
  // drops the connection.
  const auto dispatch = [&](unsigned unit_id, int ai) {
    RunningAttempt ra;
    ra.unit = unit_id;
    ra.attempt = states[unit_id].next_attempt++;
    ra.agent = ai;
    agent_rotation = static_cast<std::size_t>(ai) + 1;
    AgentConn& a = conns[ai];
    // WAL the dispatch BEFORE the send: after a crash the journal then
    // names every attempt that may ever have existed, so a resume picks
    // attempt numbers no orphaned worker could still be writing under.
    if (wal.is_open()) {
      Value rec = Value::object();
      rec.set("type", "dispatch");
      rec.set("unit", unit_id);
      rec.set("attempt", ra.attempt);
      wal.append(rec.dump_string(0));
    }
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
    ra.start_s = obs::now_s();
    if (!a.client.send(d)) {
      pending.push_back({unit_id, 0.0});
      drop_agent(ra.agent, "disconnect");
      return;
    }
    obs::counter("runner.dispatches").add();
    if (ra.attempt > 0) obs::counter("runner.retries").add();
    util::log::debug("runner", "dispatched",
                     {{"unit", unit_id},
                      {"attempt", ra.attempt},
                      {"agent", a.name}});
    running.push_back(std::move(ra));
  };

  // One message from an agent connection. Results are matched to their
  // RunningAttempt by (unit, attempt, agent); a miss is a late/duplicate
  // delivery after a reconnect or a cancel — dropping it is what makes
  // redelivery idempotent.
  const auto handle_msg = [&](int ai, const Value& m) {
    AgentConn& a = conns[ai];
    const std::string type = m.get_string("type", "");
    if (type == "welcome") {
      a.slots = static_cast<unsigned>(m.get_uint("slots", 1));
      a.welcomed = true;
      a.dial_failures = 0;
      util::log::info("runner", "agent connected",
                      {{"agent", a.name}, {"slots", a.slots}});
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
      // The worker's trace buffer crossed the socket; a remote endpoint
      // keys the imported pids into their own band, the local agent's
      // empty one keeps them as they are.
      if (const Value* t = m.find("trace"); t && t->is_string()) {
        trace.import_text(t->as_string(), a.endpoint);
      }
    }
    const bool first = !any_result;
    any_result = true;
    const std::optional<std::string> why = settle(
        ra, out, use, static_cast<unsigned>(m.get_uint("omp_threads", 0)),
        static_cast<long>(m.get_uint("pid", 0)));
    if (first && a.local && out.kind == "spawn_failed") {
      // fork is unavailable before anything ran: degrade to the
      // in-process serial path rather than failing the plan.
      degraded = true;
    } else if (why) {
      on_failure(ra, *why);
    }
  };

  while (!running.empty() || (!pending.empty() && error.empty())) {
    const double now = obs::now_s();

    // Agent transport upkeep: (re)dial disconnected agents whose backoff
    // elapsed, pump every live connection, and declare silent ones dead.
    for (AgentConn& a : conns) {
      if (a.client.connected() || pending.empty() || now < a.next_dial_s) {
        continue;
      }
      std::string derr;
      if (dial(a, &derr)) {
        a.last_rx_s = obs::now_s();
        continue;
      }
      a.next_dial_s =
          obs::now_s() + opt.backoff.delay_s(std::min(a.dial_failures, 6u));
      ++a.dial_failures;
      util::log::debug("runner", "agent dial failed",
                       {{"agent", a.name}, {"error", derr}});
    }
    for (std::size_t ai = 0; ai < conns.size(); ++ai) {
      AgentConn& a = conns[ai];
      if (!a.client.connected()) continue;
      std::vector<Value> msgs;
      const net::AgentClient::Pump ps = a.client.pump(msgs);
      if (!msgs.empty()) a.last_rx_s = obs::now_s();
      for (std::size_t k = 0; k < msgs.size() && !degraded && error.empty();
           ++k) {
        handle_msg(static_cast<int>(ai), msgs[k]);
      }
      if (degraded || !error.empty()) break;
      if (ps == net::AgentClient::Pump::kCorrupt) {
        // A frame failed its CRC mid-stream. No resync is possible —
        // drop the connection and re-dispatch whatever was in flight.
        drop_agent(static_cast<int>(ai), "garbled");
      } else if (ps == net::AgentClient::Pump::kClosed) {
        drop_agent(static_cast<int>(ai), "disconnect");
      } else if (opt.heartbeat_timeout_s > 0 &&
                 obs::now_s() - a.last_rx_s > opt.heartbeat_timeout_s) {
        drop_agent(static_cast<int>(ai), "disconnect");
      }
    }
    if (degraded) return degrade(std::move(events));
    if (!error.empty()) break;  // fail_unit settled everything in flight

    // A run must not spin forever against a dead fleet: once every
    // agent's dial budget mirrors the unit retry budget with no
    // connection and nothing in flight, fail structurally.
    if (running.empty() && !pending.empty()) {
      bool any_conn = false;
      bool all_exhausted = true;
      std::string list;
      for (const AgentConn& a : conns) {
        any_conn = any_conn || a.client.connected();
        all_exhausted = all_exhausted && a.dial_failures > opt.max_retries + 1;
        list += (list.empty() ? "" : ",") + a.name;
      }
      if (!any_conn && all_exhausted) {
        error = "no reachable agents (" + list + ")";
        util::log::error("runner", "no reachable agents", {{"agents", list}});
        break;
      }
    }

    // Deadline enforcement: an attempt past its per-attempt budget is
    // marked and cancelled — the agent SIGKILLs the worker and its
    // result then settles as "timeout", as does a connection drop.
    for (RunningAttempt& ra : running) {
      if (opt.shard_timeout_s > 0 && !ra.timed_out &&
          now - ra.start_s > opt.shard_timeout_s) {
        ra.timed_out = true;
        send_cancel(ra);
      }
    }

    // Launch pending attempts whose backoff delay has elapsed, onto
    // whichever agent slot is free.
    for (std::size_t i = 0; i < pending.size() && error.empty();) {
      const int ai = next_free();
      if (ai < 0) break;
      if (states[pending[i].unit].done) {
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      if (pending[i].ready_at_s > now) {
        ++i;
        continue;
      }
      const unsigned unit_id = pending[i].unit;
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
      dispatch(unit_id, ai);
    }
    if (!error.empty()) break;

    // Speculative re-execution: queue drained, slots free, and a running
    // attempt has outlived the straggler threshold — re-issue its unit
    // once; whichever attempt finishes first wins.
    if (const int ai = next_free();
        ai >= 0 && pending.empty() && !running.empty()) {
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
        const unsigned unit_id = straggler->unit;
        states[unit_id].speculated = true;
        obs::counter("runner.speculations").add();
        if (obs::TraceRecorder::instance().enabled()) {
          Value targs = Value::object();
          targs.set("unit", unit_id);
          targs.set("running_s", now - straggler->start_s);
          obs::TraceRecorder::instance().instant("speculate",
                                                 std::move(targs));
        }
        util::log::info("runner", "speculative re-execution",
                        {{"unit", unit_id}});
        dispatch(unit_id, ai);
      }
    }

    // Always yield a poll interval: also covers the drained-but-backing-
    // off state (nothing running, every pending attempt waiting out its
    // delay), which must not busy-spin.
    if (!running.empty() || !pending.empty()) {
      util::Backoff::sleep_s(kPollIntervalS);
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
  report.total_wall_s = elapsed.wall_s();
  report.total_cpu_s = elapsed.cpu_s();
  report.peak_rss_bytes = util::peak_rss_bytes();
  // The report's counters are the coordinator's own delta plus every
  // finished worker fragment's delta (the workers did the validate shards;
  // their counts must not vanish with the scratch files). Counters sum;
  // histogram maxima (doubles) keep the max.
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
