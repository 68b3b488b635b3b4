#include "obs/trace.hpp"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

#include <unistd.h>

namespace kronotri::obs {

namespace {

struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::vector<TraceEvent> events;
};

// The recorder owns every buffer (thread exit must not free events that
// export will read); threads hold a raw thread_local pointer handed out
// once under the registry mutex.
struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  std::uint32_t next_tid = 1;
};

Registry& registry() {
  static Registry* r = new Registry;  // leak: threads may outlive statics
  return *r;
}

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buf = nullptr;
  if (buf == nullptr) {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    r.buffers.push_back(std::make_unique<ThreadBuffer>());
    buf = r.buffers.back().get();
    buf->tid = r.next_tid++;
  }
  return *buf;
}

util::json::Value event_to_json(const TraceEvent& ev, std::int64_t self_pid) {
  util::json::Value j = util::json::Value::object();
  j.set("name", ev.name);
  j.set("ph", std::string(1, ev.phase));
  j.set("ts", ev.ts_us);
  if (ev.phase == 'X') j.set("dur", ev.dur_us);
  j.set("pid", ev.pid != 0 ? ev.pid : self_pid);
  j.set("tid", static_cast<std::uint64_t>(ev.tid));
  if (ev.phase == 'i') j.set("s", "t");  // thread-scoped instant
  if (!ev.args.is_null()) j.set("args", ev.args);
  return j;
}

bool event_from_json(const util::json::Value& j, TraceEvent& ev) {
  const util::json::Value* name = j.find("name");
  const util::json::Value* ph = j.find("ph");
  if (!name || !name->is_string() || !ph || !ph->is_string() ||
      ph->as_string().size() != 1) {
    return false;
  }
  ev.name = name->as_string();
  ev.phase = ph->as_string()[0];
  if (const util::json::Value* v = j.find("ts"); v && v->is_number()) {
    ev.ts_us = v->as_double();
  }
  if (const util::json::Value* v = j.find("dur"); v && v->is_number()) {
    ev.dur_us = v->as_double();
  }
  if (const util::json::Value* v = j.find("pid"); v && v->is_number()) {
    ev.pid = v->as_int();
  }
  if (const util::json::Value* v = j.find("tid"); v && v->is_number()) {
    ev.tid = static_cast<std::uint32_t>(v->as_uint());
  }
  if (const util::json::Value* v = j.find("args")) ev.args = *v;
  return true;
}

}  // namespace

TraceRecorder& TraceRecorder::instance() {
  static TraceRecorder* rec = new TraceRecorder;
  return *rec;
}

void TraceRecorder::set_enabled(bool on) noexcept {
  enabled_.store(on, std::memory_order_relaxed);
}

void TraceRecorder::record(TraceEvent ev) {
  ThreadBuffer& buf = local_buffer();
  if (ev.tid == 0) ev.tid = buf.tid;
  buf.events.push_back(std::move(ev));
}

void TraceRecorder::complete(std::string_view name, double start_us,
                             double dur_us, util::json::Value args) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.name.assign(name);
  ev.phase = 'X';
  ev.ts_us = start_us;
  ev.dur_us = dur_us;
  ev.args = std::move(args);
  record(std::move(ev));
}

void TraceRecorder::complete_on(std::uint32_t tid, std::string_view name,
                                double start_us, double dur_us,
                                util::json::Value args) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.name.assign(name);
  ev.phase = 'X';
  ev.ts_us = start_us;
  ev.dur_us = dur_us;
  ev.tid = tid;
  ev.args = std::move(args);
  record(std::move(ev));
}

void TraceRecorder::instant(std::string_view name, util::json::Value args) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.name.assign(name);
  ev.phase = 'i';
  ev.ts_us = now_us();
  ev.args = std::move(args);
  record(std::move(ev));
}

void TraceRecorder::counter(std::string_view name, double value) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.name.assign(name);
  ev.phase = 'C';
  ev.ts_us = now_us();
  ev.args = util::json::Value::object();
  ev.args.set("value", value);
  record(std::move(ev));
}

void TraceRecorder::set_process_name(std::string_view name) {
  if (!enabled()) return;
  TraceEvent ev;
  ev.name = "process_name";
  ev.phase = 'M';
  ev.ts_us = 0;
  ev.args = util::json::Value::object();
  ev.args.set("name", std::string(name));
  record(std::move(ev));
}

bool TraceRecorder::import_file(const std::string& path) {
  if (!enabled()) return false;
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream text;
  text << in.rdbuf();
  return import_text(text.str(), /*host=*/{});
}

bool TraceRecorder::import_text(const std::string& json_text,
                                std::string_view host) {
  if (!enabled()) return false;
  util::json::Value doc;
  try {
    doc = util::json::Value::parse(json_text);
  } catch (const std::exception&) {
    return false;  // killed worker → truncated buffer; tolerate
  }
  const util::json::Value* events = doc.find("traceEvents");
  if (!events || !events->is_array()) return false;
  std::int64_t pid_band = 0;
  if (!host.empty()) {
    // Per-host pid band: a remote agent's worker pids can collide with
    // local ones, so foreign pids are shifted into a disjoint range (one
    // band per distinct host, stable for the recorder's lifetime) and the
    // host name lands in the process_name metadata.
    static std::mutex bands_mu;
    static std::vector<std::string>* bands = new std::vector<std::string>;
    const std::lock_guard<std::mutex> lock(bands_mu);
    std::size_t idx = 0;
    while (idx < bands->size() && (*bands)[idx] != host) ++idx;
    if (idx == bands->size()) bands->emplace_back(host);
    pid_band = static_cast<std::int64_t>(idx + 1) * 10'000'000;
  }
  std::vector<TraceEvent> imported;
  imported.reserve(events->size());
  for (const util::json::Value& j : events->items()) {
    TraceEvent ev;
    if (event_from_json(j, ev)) imported.push_back(std::move(ev));
  }
  ThreadBuffer& buf = local_buffer();
  for (TraceEvent& ev : imported) {
    if (ev.pid == 0) continue;  // refuse to masquerade as this process
    if (pid_band != 0) {
      ev.pid += pid_band;
      if (ev.phase == 'M' && ev.name == "process_name" &&
          ev.args.is_object()) {
        if (const util::json::Value* n = ev.args.find("name");
            n != nullptr && n->is_string()) {
          ev.args.set("name", n->as_string() + " @" + std::string(host));
        }
      }
    }
    buf.events.push_back(std::move(ev));
  }
  return true;
}

util::json::Value TraceRecorder::export_json() {
  const std::int64_t self = static_cast<std::int64_t>(::getpid());
  util::json::Value events = util::json::Value::array();
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (const std::unique_ptr<ThreadBuffer>& buf : r.buffers) {
    for (const TraceEvent& ev : buf->events) {
      events.push_back(event_to_json(ev, self));
    }
  }
  util::json::Value doc = util::json::Value::object();
  doc.set("traceEvents", std::move(events));
  return doc;
}

bool TraceRecorder::export_file(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  export_json().dump(out, 0);
  out << "\n";
  return static_cast<bool>(out);
}

void TraceRecorder::clear() {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (const std::unique_ptr<ThreadBuffer>& buf : r.buffers) {
    buf->events.clear();
  }
}

Span::Span(std::string_view name) {
  if (!TraceRecorder::instance().enabled()) return;
  active_ = true;
  start_us_ = now_us();
  name_.assign(name);
}

Span::Span(std::string_view prefix, std::string_view suffix) {
  if (!TraceRecorder::instance().enabled()) return;
  active_ = true;
  start_us_ = now_us();
  name_.reserve(prefix.size() + suffix.size());
  name_.assign(prefix);
  name_.append(suffix);
}

Span::~Span() {
  if (!active_) return;
  TraceRecorder::instance().complete(name_, start_us_, now_us() - start_us_,
                                     std::move(args_));
}

Span& Span::arg(const char* key, util::json::Value v) {
  if (active_) args_.set(key, std::move(v));
  return *this;
}

}  // namespace kronotri::obs
