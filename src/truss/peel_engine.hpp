// The level-synchronous truss peel over any source of per-edge triangles.
//
// truss::peel walks two such sources: an explicit graph's rows (an
// EdgeIndex, decompose.cpp) and a Kronecker product's factor
// common-neighbour lists (product_peel.cpp). Both give the engine their
// edge ids and Δ(e); the engine owns the level jump, the frontier gather,
// the bounded CAS and the frontier–frontier rule. The sub-rounds are a
// function of the graph and its edge ids alone, so both sources peel the
// same sub-rounds and give every edge the same truss number, at every team
// size.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "core/types.hpp"
#include "obs/counters.hpp"
#include "triangle/census.hpp"

namespace kronotri::truss::detail {

/// Edge lifecycle in the level-synchronous peel. Transitions only happen at
/// sub-round barriers, so a round always reads the state fixed at its start.
enum : std::uint8_t { kAlive = 0, kInFrontier = 1, kPeeled = 2 };

/// Truss number per edge id of the `sup.size()` edges `source` describes,
/// starting from their supports Δ(e). A Source provides
///   - `Scratch`, per-thread state (default-constructible, kept for the
///     whole peel);
///   - `count_t triangles(Scratch&, std::span<esz> slice, Visit&& visit)
///     const`, which calls visit(e, e1, e2) once for every triangle
///     {e, e1, e2} through each edge e of `slice` (edge ids; the slice may
///     be reordered) and returns the lookups it spent on them.
/// Adds the lookups to `truss.peel_lookups` and the sub-rounds to
/// `truss.peel_sub_rounds`. The truss numbers are written over `sup`: an
/// edge's support is never read again once it is peeled, so the peel
/// allocates no second per-edge array.
template <typename Source>
std::vector<count_t> peel_frontiers(const Source& source,
                                    std::vector<count_t> sup) {
  const esz m = sup.size();
  std::vector<std::uint8_t> state(m, kAlive);

  const unsigned workers = triangle::census_workers();
  std::vector<std::vector<esz>> tl_found(workers);
  std::vector<typename Source::Scratch> tl_scratch(workers);
  count_t lookups = 0, sub_rounds = 0;
  std::vector<esz> curr;
  count_t level = 0;

  // Decrement sup[t] unless it already sits at the level (edges at or below
  // the threshold keep their peel level — the clamp the serial peel applies
  // by never touching the peeled prefix). Exactly one CAS observes the
  // crossing to `level`, so the crossing thread enqueues t exactly once.
  const auto try_decrement = [&](esz t, std::vector<esz>& found) {
    std::atomic_ref<count_t> slot(sup[t]);
    count_t cur = slot.load(std::memory_order_relaxed);
    while (cur > level) {
      if (slot.compare_exchange_weak(cur, cur - 1,
                                     std::memory_order_relaxed)) {
        if (cur - 1 == level) found.push_back(t);
        break;
      }
    }
  };

  // The next frontier: every thread's found edges, marked in parallel (each
  // edge sits in exactly one list), then concatenated.
  const auto join_frontier = [&] {
#pragma omp parallel for schedule(static, 1)
    for (std::int64_t w = 0; w < static_cast<std::int64_t>(workers); ++w) {
      for (const esz e : tl_found[static_cast<std::size_t>(w)]) {
        state[e] = kInFrontier;
      }
    }
    curr.clear();
    for (auto& found : tl_found) {
      curr.insert(curr.end(), found.begin(), found.end());
      found.clear();
    }
  };

  esz remaining = m;
  while (remaining > 0) {
    // Jump to the smallest surviving support: the level loop advances by
    // distinct support values, not by 1, so sparse distributions don't pay
    // an O(m) scan per empty level.
    count_t lo = std::numeric_limits<count_t>::max();
#pragma omp parallel
    {
      count_t local_lo = std::numeric_limits<count_t>::max();
#pragma omp for schedule(static) nowait
      for (std::int64_t e = 0; e < static_cast<std::int64_t>(m); ++e) {
        if (state[static_cast<esz>(e)] == kAlive) {
          local_lo = std::min(local_lo, sup[static_cast<esz>(e)]);
        }
      }
#pragma omp critical(kronotri_truss_min)
      lo = std::min(lo, local_lo);
    }
    level = std::max(level, lo);

    // Initial frontier of this level (thread-local gather, then concat).
#pragma omp parallel
    {
#ifdef _OPENMP
      auto& found = tl_found[static_cast<std::size_t>(omp_get_thread_num())];
#else
      auto& found = tl_found.front();
#endif
      found.clear();
#pragma omp for schedule(static) nowait
      for (std::int64_t e = 0; e < static_cast<std::int64_t>(m); ++e) {
        if (state[static_cast<esz>(e)] == kAlive &&
            sup[static_cast<esz>(e)] <= level) {
          found.push_back(static_cast<esz>(e));
        }
      }
    }
    join_frontier();

    // Sub-rounds: peel the frontier, collect the edges its removal drags to
    // the level, repeat until the level is exhausted. The frontier is cut
    // into ~8 slices per thread, and the source enumerates each slice's
    // triangles.
    while (!curr.empty()) {
      ++sub_rounds;
      const std::size_t size = curr.size();
      const std::size_t slices = std::min<std::size_t>(size, 8 * workers);
#pragma omp parallel reduction(+ : lookups)
      {
#ifdef _OPENMP
        const auto tid = static_cast<std::size_t>(omp_get_thread_num());
#else
        const std::size_t tid = 0;
#endif
        auto& found = tl_found[tid];
        const auto visit = [&](esz e, esz e1, esz e2) {
          const std::uint8_t s1 = state[e1], s2 = state[e2];
          if (s1 == kPeeled || s2 == kPeeled) return;
          // Frontier-frontier triangles are destroyed once: the smaller
          // edge id performs the shared decrement.
          if (s1 == kInFrontier && s2 == kInFrontier) {
            // all three peel together — nothing survives to update
          } else if (s1 == kInFrontier) {
            if (e < e1) try_decrement(e2, found);
          } else if (s2 == kInFrontier) {
            if (e < e2) try_decrement(e1, found);
          } else {
            try_decrement(e1, found);
            try_decrement(e2, found);
          }
        };
#pragma omp for schedule(dynamic, 1) nowait
        for (std::int64_t si = 0; si < static_cast<std::int64_t>(slices);
             ++si) {
          const auto i = static_cast<std::size_t>(si);
          const std::size_t begin = size * i / slices;
          const std::size_t end = size * (i + 1) / slices;
          lookups += source.triangles(
              tl_scratch[tid],
              std::span<esz>(curr.data() + begin, end - begin), visit);
        }
      }

      remaining -= curr.size();
      const count_t kappa = level + 2;
#pragma omp parallel for schedule(static)
      for (std::int64_t i = 0; i < static_cast<std::int64_t>(curr.size());
           ++i) {
        const esz e = curr[static_cast<std::size_t>(i)];
        sup[e] = kappa;
        state[e] = kPeeled;
      }
      join_frontier();
    }
  }

  obs::counter("truss.peel_lookups").add(lookups);
  obs::counter("truss.peel_sub_rounds").add(sub_rounds);
  return sup;
}

}  // namespace kronotri::truss::detail
