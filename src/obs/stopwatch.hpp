// The one clock source behind every wall/CPU measurement in the repo.
//
// Every elapsed time and deadline in the library, the CLI and examples/
// reads these functions: RunReport stage timings, the runner's
// and agent's deadlines and heartbeats, service latencies and client
// timeouts, and trace spans. (Log lines stamp calendar time, not a
// duration.) obs::Stopwatch reads both clocks at once, so a stage's wall
// and CPU seconds come from one object.
//
// Wall time is CLOCK_MONOTONIC, deliberately NOT steady_clock-as-abstract:
// on Linux CLOCK_MONOTONIC is shared across fork/exec, so the trace
// timestamps a fork'd worker records (obs::now_us) land on the SAME axis
// as the coordinator's — the property that lets the flight recorder stitch
// worker timelines under the coordinator's without clock negotiation.
#pragma once

#include <ctime>

namespace kronotri::obs {

/// Microseconds on the process-shared monotonic clock — the trace-event
/// timestamp base (Chrome trace `ts`/`dur` are microseconds).
[[nodiscard]] inline double now_us() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) * 1e-3;
}

/// now_us() in seconds: the runner's and agent's deadline clock.
[[nodiscard]] inline double now_s() noexcept { return now_us() * 1e-6; }

/// Summed CPU seconds of every thread in the process. Wall on an
/// oversubscribed box measures the scheduler; CPU seconds measure the work.
[[nodiscard]] inline double cpu_now_s() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Wall + process-CPU stopwatch. Starts on construction.
class Stopwatch {
 public:
  Stopwatch() noexcept : wall_start_us_(now_us()), cpu_start_s_(cpu_now_s()) {}

  [[nodiscard]] double wall_s() const noexcept {
    return (now_us() - wall_start_us_) * 1e-6;
  }
  [[nodiscard]] double cpu_s() const noexcept {
    return cpu_now_s() - cpu_start_s_;
  }

 private:
  const double wall_start_us_;
  const double cpu_start_s_;
};

}  // namespace kronotri::obs
