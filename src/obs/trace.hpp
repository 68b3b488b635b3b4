// Flight recorder: Chrome trace-event spans/instants/counters with
// lock-free thread-local buffers, exported as Perfetto-loadable JSON.
//
// Design constraints, in order:
//   1. Near-zero cost when disabled. Every public entry point starts with
//      one relaxed atomic bool load; when false, nothing allocates — Span
//      keeps only string_views, arg() is a no-op, names are never
//      composed. Untraced runs (the default) must stay measurably
//      unchanged; CI gates traced overhead at ≤5%.
//   2. Lock-free recording. Each thread appends to its own buffer; the
//      recorder hands a thread its buffer once (one mutex acquisition per
//      thread lifetime) via a thread_local pointer and owns the storage,
//      so buffers survive thread exit and export after quiescence needs
//      no synchronization with writers.
//   3. Cross-process stitching. Timestamps are obs::now_us()
//      (CLOCK_MONOTONIC — fork/exec-shared on Linux), so a worker process
//      records with the same time axis as the coordinator, dumps its
//      buffer to a scratch file (export_file), and the coordinator
//      import_file()s it after reaping: one timeline keyed by real pids.
//
// The exported document is the Chrome trace-event JSON Object Format:
//   {"traceEvents":[{"name","ph","ts","dur","pid","tid","args"},...]}
// phases used: 'X' complete span, 'i' instant, 'C' counter, 'M' metadata
// (process_name). Load it at https://ui.perfetto.dev or chrome://tracing.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/stopwatch.hpp"
#include "util/json.hpp"

namespace kronotri::obs {

struct TraceEvent {
  std::string name;
  char phase = 'X';     // 'X' | 'i' | 'C' | 'M'
  double ts_us = 0;     // obs::now_us() axis
  double dur_us = 0;    // 'X' only
  std::int64_t pid = 0; // 0 = this process (stamped with getpid() at export)
  std::uint32_t tid = 0;
  util::json::Value args;  // null when empty
};

class TraceRecorder {
 public:
  static TraceRecorder& instance();

  /// Flips recording on/off. Off is the default; every record call bails
  /// on one relaxed load when off.
  void set_enabled(bool on) noexcept;
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// 'X' complete span on the calling thread's track.
  void complete(std::string_view name, double start_us, double dur_us,
                util::json::Value args = {});
  /// Same, but on an explicit synthetic track — for the coordinator's
  /// concurrently in-flight unit attempts, which would interleave (and
  /// break per-tid nesting) if they shared the event-loop thread's track.
  void complete_on(std::uint32_t tid, std::string_view name, double start_us,
                   double dur_us, util::json::Value args = {});
  /// 'i' instant marker (cache hits, retries, journal replay points).
  void instant(std::string_view name, util::json::Value args = {});
  /// 'C' counter sample — Perfetto draws these as a counter track.
  void counter(std::string_view name, double value);
  /// 'M' process_name metadata for this process's pid group.
  void set_process_name(std::string_view name);

  /// Parses a trace file a worker exported and adopts its events,
  /// preserving the recorded pid/tid. Returns false (and records nothing)
  /// if the file is missing or unparsable — a killed worker legitimately
  /// leaves no/truncated output, and stitching must not fail the run.
  bool import_file(const std::string& path);

  /// Same adoption from an in-memory document — the remote-agent path,
  /// where a worker's trace buffer crossed a socket instead of $TMPDIR.
  /// A non-empty `host` keys the import: foreign pids are shifted into a
  /// per-host band (remote pids may collide with local ones) and
  /// " @host" is appended to imported process_name metadata, so the
  /// stitched timeline reads host-by-host in Perfetto.
  bool import_text(const std::string& json_text, std::string_view host);

  /// {"traceEvents":[...]} — local events get ::getpid(), imported events
  /// keep theirs. Call after workers/threads have quiesced.
  [[nodiscard]] util::json::Value export_json();
  /// Writes export_json() to `path`; false on I/O failure.
  bool export_file(const std::string& path);

  /// Drops all recorded events (buffers stay registered). Test hygiene and
  /// the CLI's fresh-start on --trace.
  void clear();

 private:
  TraceRecorder() = default;
  void record(TraceEvent ev);

  std::atomic<bool> enabled_{false};
};

/// RAII scoped span. Construction snapshots now_us(); destruction emits a
/// complete event. When the recorder is disabled at construction the span
/// is inert: no name composition, no allocation, arg() no-ops.
class Span {
 public:
  explicit Span(std::string_view name);
  /// Two-part name (`prefix + suffix`, e.g. "analyze:" + name) composed
  /// only when recording is on — callers never build the string just to
  /// throw it away in the disabled case.
  Span(std::string_view prefix, std::string_view suffix);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a key to the span's args. No-op when inert.
  Span& arg(const char* key, util::json::Value v);

  [[nodiscard]] bool active() const noexcept { return active_; }

 private:
  bool active_ = false;
  double start_us_ = 0;
  std::string name_;
  util::json::Value args_;
};

}  // namespace kronotri::obs
