#include "util/log.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <mutex>
#include <sstream>

#include <sys/time.h>
#include <unistd.h>

namespace kronotri::util::log {

namespace {

std::atomic<int>& threshold_cell() {
  static std::atomic<int> cell{-1};  // -1 = not yet read from env
  return cell;
}

const char* level_name(Level level) {
  switch (level) {
    case Level::kDebug: return "DEBUG";
    case Level::kInfo: return "INFO ";
    case Level::kWarn: return "WARN ";
    case Level::kError: return "ERROR";
    case Level::kOff: return "OFF  ";
  }
  return "?????";
}

void append_timestamp(std::ostringstream& os) {
  timeval tv{};
  gettimeofday(&tv, nullptr);
  tm utc{};
  gmtime_r(&tv.tv_sec, &utc);
  char buf[96];  // room for every int the fields could hold
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03ldZ",
                utc.tm_year + 1900, utc.tm_mon + 1, utc.tm_mday, utc.tm_hour,
                utc.tm_min, utc.tm_sec,
                static_cast<long>(tv.tv_usec / 1000));
  os << buf;
}

bool needs_quotes(std::string_view v) {
  if (v.empty()) return true;
  for (char c : v) {
    if (c == ' ' || c == '"' || c == '=') return true;
  }
  return false;
}

}  // namespace

Level level_from(std::string_view text) {
  std::string lower;
  lower.reserve(text.size());
  for (char c : text) {
    lower.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a')
                                         : c);
  }
  if (lower == "debug") return Level::kDebug;
  if (lower == "info") return Level::kInfo;
  if (lower == "warn" || lower == "warning") return Level::kWarn;
  if (lower == "error") return Level::kError;
  if (lower == "off" || lower == "none") return Level::kOff;
  return Level::kWarn;
}

Level threshold() {
  std::atomic<int>& cell = threshold_cell();
  int v = cell.load(std::memory_order_relaxed);
  if (v < 0) {
    const char* env = std::getenv("KRONOTRI_LOG");
    const Level parsed = env != nullptr ? level_from(env) : Level::kWarn;
    v = static_cast<int>(parsed);
    cell.store(v, std::memory_order_relaxed);
  }
  return static_cast<Level>(v);
}

void set_threshold(Level level) {
  threshold_cell().store(static_cast<int>(level), std::memory_order_relaxed);
}

Field::Field(std::string_view k, double v) : key(k) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  value = buf;
}

std::string format_line(Level level, std::string_view component,
                        std::string_view message,
                        std::initializer_list<Field> fields) {
  std::ostringstream os;
  append_timestamp(os);
  os << ' ' << level_name(level) << " [" << ::getpid() << "] " << component
     << ": " << message;
  for (const Field& f : fields) {
    os << ' ' << f.key << '=';
    if (needs_quotes(f.value)) {
      os << '"';
      for (char c : f.value) {
        if (c == '"' || c == '\\') os << '\\';
        os << c;
      }
      os << '"';
    } else {
      os << f.value;
    }
  }
  return os.str();
}

void write(Level level, std::string_view component, std::string_view message,
           std::initializer_list<Field> fields) {
  if (!enabled(level)) return;
  const std::string line = format_line(level, component, message, fields);
  static std::mutex mu;  // one writer: lines never interleave
  const std::lock_guard<std::mutex> lock(mu);
  std::cerr << line << '\n';
}

}  // namespace kronotri::util::log
