#include "util/threads.hpp"

#include <algorithm>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

#if defined(__linux__)
#include <sched.h>
#endif

namespace kronotri::util {

unsigned affinity_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

unsigned omp_max_threads() {
#ifdef _OPENMP
  return static_cast<unsigned>(std::max(1, omp_get_max_threads()));
#else
  return 1;
#endif
}

unsigned omp_budget(unsigned slots) {
  const unsigned share = affinity_cpus() / std::max(1u, slots);
  return std::max(1u, std::min(omp_max_threads(), share));
}

void set_omp_threads(unsigned n) {
#ifdef _OPENMP
  omp_set_num_threads(static_cast<int>(std::max(1u, n)));
#else
  (void)n;
#endif
}

}  // namespace kronotri::util
