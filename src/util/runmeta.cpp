#include "util/runmeta.hpp"

#include <thread>

#include "util/threads.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace kronotri::util {

json::Value run_metadata(std::size_t batch_size) {
  json::Value meta = json::Value::object();
  meta.set("hardware_concurrency", std::thread::hardware_concurrency());
  meta.set("omp_max_threads", omp_max_threads());
  meta.set("batch_size", batch_size);
#ifdef KRONOTRI_GIT_DESCRIBE
  meta.set("git_describe", KRONOTRI_GIT_DESCRIBE);
#else
  meta.set("git_describe", "unknown");
#endif
  return meta;
}

std::size_t peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::size_t>(ru.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

}  // namespace kronotri::util
