// Per-host OpenMP thread budgets for processes and threads that run
// several plan units side by side.
//
// Every runner worker, agent child and service job runs api::run, whose
// kernels open OpenMP parallel regions at the caller's team size. Left at
// the default, N concurrent units each start a full team, so N units on C
// cores run N·C threads. The budget splits the cores instead: each of
// `slots` concurrent units gets
//
//   max(1, min(omp_get_max_threads(), affinity CPUs / slots))
//
// threads. omp_get_max_threads() is read on the calling thread, so an
// explicit OMP_NUM_THREADS (or an earlier omp_set_num_threads there) stays
// the ceiling. The team size never reaches a report's content: results are
// bit-identical at every team size, and plan.options.threads (the stream
// partition count) is a separate knob.
#pragma once

namespace kronotri::util {

/// CPUs in the calling thread's affinity mask (sched_getaffinity), falling
/// back to std::thread::hardware_concurrency(); always >= 1.
[[nodiscard]] unsigned affinity_cpus();

/// The calling thread's OpenMP team ceiling (1 without OpenMP).
[[nodiscard]] unsigned omp_max_threads();

/// OpenMP team for each of `slots` concurrent units on this host:
/// max(1, min(omp_max_threads(), affinity_cpus() / slots)). slots = 0 is
/// treated as 1.
[[nodiscard]] unsigned omp_budget(unsigned slots);

/// Sets the calling thread's OpenMP team size (no-op without OpenMP).
/// Other threads and later-forked processes are unaffected.
void set_omp_threads(unsigned n);

}  // namespace kronotri::util
