#include "truss/decompose.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/ops.hpp"
#include "obs/counters.hpp"
#include "triangle/census.hpp"
#include "triangle/support.hpp"

namespace kronotri::truss {

namespace {

/// Edge lifecycle in the level-synchronous peel. Transitions only happen at
/// sub-round barriers, so a round always reads the state fixed at its start.
enum : std::uint8_t { kAlive = 0, kInFrontier = 1, kPeeled = 2 };

/// Assembles the symmetric truss_number matrix from per-edge-id values.
TrussDecomposition assemble(const BoolCsr& s, const triangle::EdgeIdMap& eids,
                            const std::vector<count_t>& truss_of, esz m) {
  TrussDecomposition out;
  std::vector<count_t> vals(s.nnz(), 0);
  count_t max_truss = 2;
  for (esz k = 0; k < s.nnz(); ++k) {
    vals[k] = truss_of[eids.slot_id[k]];
    max_truss = std::max(max_truss, vals[k]);
  }
  out.truss_number = CountCsr::from_parts(s.rows(), s.cols(), s.row_ptr(),
                                          s.col_idx(), std::move(vals));
  out.max_truss = m == 0 ? 2 : max_truss;
  return out;
}

}  // namespace

count_t TrussDecomposition::edges_in_truss(count_t kappa) const {
  count_t c = 0;
  for (const count_t t : truss_number.values()) {
    if (t >= kappa) ++c;
  }
  return c / 2;  // symmetric storage counts both directions
}

std::vector<count_t> truss_sizes(std::span<const count_t> truss_of) {
  count_t max_truss = 2;
  for (const count_t t : truss_of) max_truss = std::max(max_truss, t);
  std::vector<count_t> sizes(max_truss + 1, 0);
  for (const count_t t : truss_of) ++sizes[t];
  for (count_t k = max_truss; k > 0; --k) sizes[k - 1] += sizes[k];
  return sizes;
}

TrussDecomposition decompose(const Graph& a) {
  const triangle::CensusWorkspace ws(a);
  return assemble(ws.structure(), ws.edge_ids(), peel(ws, ws.edge_census()),
                  ws.num_edges());
}

std::vector<count_t> peel(const triangle::CensusWorkspace& ws,
                          std::vector<count_t> sup) {
  const BoolCsr& s = ws.structure();
  const triangle::EdgeIdMap& eids = ws.edge_ids();
  const esz m = eids.num_edges();
  if (eids.slot_id.size() != s.nnz() || sup.size() != m) {
    throw std::invalid_argument(
        "truss::peel: needs a workspace with edge ids and one support per "
        "edge id");
  }

  std::vector<std::uint8_t> state(m, kAlive);
  std::vector<count_t> truss_of(m, 2);

  const vid n = s.rows();
  const unsigned workers = triangle::census_workers();
  std::vector<std::vector<esz>> tl_found(workers);
  // Per-thread owner-sorted slice and n-sized row marks (4·n bytes each,
  // allocated by each thread on its first sub-round).
  std::vector<std::vector<std::pair<vid, esz>>> tl_slice(workers);
  std::vector<std::vector<std::uint32_t>> tl_mark(workers);
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

  // The owner of an edge is its endpoint with the longer row, ties to the
  // larger id: a function of the graph alone, so the scanned rows (and the
  // lookup count) do not depend on the team size or the frontier's order.
  const auto owner_of = [&](vid u, vid v) {
    const esz du = s.row_ptr()[u + 1] - s.row_ptr()[u];
    const esz dv = s.row_ptr()[v + 1] - s.row_ptr()[v];
    return du > dv || (du == dv && u > v) ? u : v;
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
    curr.clear();
    for (auto& found : tl_found) {
      curr.insert(curr.end(), found.begin(), found.end());
      found.clear();
    }
    for (const esz e : curr) state[e] = kInFrontier;

    // Sub-rounds: peel the frontier, collect the edges its removal drags to
    // the level, repeat until the level is exhausted. The frontier is cut
    // into ~8 slices per thread; each slice is grouped by owner endpoint,
    // the owner's row is marked once per group (mark[w] = position + 1),
    // and every frontier edge of the group scans only its other, shorter
    // row with O(1) lookups — Σ_e min(d_u, d_v) instead of a full merge.
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
        auto& slice = tl_slice[tid];
        auto& mark = tl_mark[tid];
        if (mark.empty()) mark.assign(n, 0);
#pragma omp for schedule(dynamic, 1) nowait
        for (std::int64_t si = 0; si < static_cast<std::int64_t>(slices);
             ++si) {
          const auto i = static_cast<std::size_t>(si);
          slice.clear();
          for (std::size_t k = size * i / slices;
               k < size * (i + 1) / slices; ++k) {
            const auto [u, v] = eids.ends[curr[k]];
            slice.emplace_back(owner_of(u, v), curr[k]);
          }
          std::sort(slice.begin(), slice.end());
          for (std::size_t a = 0; a < slice.size();) {
            const vid o = slice[a].first;
            const esz obase = s.row_ptr()[o];
            const auto ro = s.row_cols(o);
            for (std::size_t p = 0; p < ro.size(); ++p) {
              mark[ro[p]] = static_cast<std::uint32_t>(p + 1);
            }
            for (; a < slice.size() && slice[a].first == o; ++a) {
              const esz e = slice[a].second;
              const auto [u, v] = eids.ends[e];
              const vid x = u == o ? v : u;
              const esz xbase = s.row_ptr()[x];
              const auto rx = s.row_cols(x);
              lookups += rx.size();
              for (std::size_t q = 0; q < rx.size(); ++q) {
                const std::uint32_t p = mark[rx[q]];
                if (p == 0) continue;
                const esz eow = eids.slot_id[obase + p - 1];
                const esz exw = eids.slot_id[xbase + q];
                const std::uint8_t so = state[eow], sx = state[exw];
                if (so == kPeeled || sx == kPeeled) continue;
                // Frontier-frontier triangles are destroyed once: the
                // smaller edge id performs the shared decrement.
                if (so == kInFrontier && sx == kInFrontier) {
                  // all three peel together — nothing survives to update
                } else if (so == kInFrontier) {
                  if (e < eow) try_decrement(exw, found);
                } else if (sx == kInFrontier) {
                  if (e < exw) try_decrement(eow, found);
                } else {
                  try_decrement(eow, found);
                  try_decrement(exw, found);
                }
              }
            }
            for (const vid w : ro) mark[w] = 0;
          }
        }
      }

      remaining -= curr.size();
      const count_t kappa = level + 2;
#pragma omp parallel for schedule(static)
      for (std::int64_t i = 0; i < static_cast<std::int64_t>(curr.size());
           ++i) {
        const esz e = curr[static_cast<std::size_t>(i)];
        truss_of[e] = kappa;
        state[e] = kPeeled;
      }

      curr.clear();
      for (auto& found : tl_found) {
        curr.insert(curr.end(), found.begin(), found.end());
        found.clear();
      }
      for (const esz e : curr) state[e] = kInFrontier;
    }
  }

  obs::counter("truss.peel_lookups").add(lookups);
  obs::counter("truss.peel_sub_rounds").add(sub_rounds);
  return truss_of;
}

TrussDecomposition decompose_serial(const Graph& a) {
  // The census workspace provides the loop-free structure, the shared
  // undirected edge ids, and the initial supports Δ(e) — already indexed by
  // edge id, so no symmetric count matrix has to be built and re-read.
  const triangle::CensusWorkspace ws(a);
  const BoolCsr& s = ws.structure();
  const triangle::EdgeIdMap& eids = ws.edge_ids();
  const esz m = eids.num_edges();

  std::vector<count_t> sup = ws.edge_census();

  // Bucket ordering (Batagelj–Zaveršnik): edges sorted by current support,
  // with position/bucket arrays allowing O(1) "decrement support" moves.
  const count_t max_sup =
      m == 0 ? 0 : *std::max_element(sup.begin(), sup.end());
  std::vector<esz> bin(max_sup + 2, 0);
  for (esz e = 0; e < m; ++e) ++bin[sup[e] + 1];
  for (std::size_t i = 1; i < bin.size(); ++i) bin[i] += bin[i - 1];
  std::vector<esz> order(m);   // edges sorted by support
  std::vector<esz> pos(m);     // position of edge in `order`
  {
    std::vector<esz> cursor(bin.begin(), bin.end() - 1);
    for (esz e = 0; e < m; ++e) {
      pos[e] = cursor[sup[e]]++;
      order[pos[e]] = e;
    }
  }
  // bin[b] = first index in `order` whose support is >= b.
  auto decrement_support = [&](esz e) {
    const count_t sv = sup[e];
    // Swap e with the first edge of its bucket, then shrink the bucket.
    const esz first_pos = bin[sv];
    const esz first_edge = order[first_pos];
    if (first_edge != e) {
      std::swap(order[pos[e]], order[first_pos]);
      std::swap(pos[e], pos[first_edge]);
    }
    ++bin[sv];
    --sup[e];
  };

  // uint8_t, not vector<bool>: the peel inner loop reads this per triangle
  // and the bitset proxy costs show up there.
  std::vector<std::uint8_t> peeled(m, 0);
  std::vector<count_t> truss_of(m, 2);
  count_t current = 0;  // monotone support threshold
  for (esz step = 0; step < m; ++step) {
    const esz e = order[step];
    current = std::max(current, sup[e]);
    truss_of[e] = current + 2;
    peeled[e] = true;

    // Remove e = (u,v): every remaining triangle through e loses support on
    // its other two edges.
    const auto [u, v] = eids.ends[e];
    const auto ru = s.row_cols(u), rv = s.row_cols(v);
    std::size_t p = 0, q = 0;
    while (p < ru.size() && q < rv.size()) {
      if (ru[p] < rv[q]) {
        ++p;
      } else if (ru[p] > rv[q]) {
        ++q;
      } else {
        const esz euw = eids.slot_id[s.row_ptr()[u] + p];
        const esz evw = eids.slot_id[s.row_ptr()[v] + q];
        if (!peeled[euw] && !peeled[evw]) {
          // Decrement only above the threshold: edges at or below it keep
          // their (already determined) peel level, and the bucket swap must
          // never touch the peeled prefix of `order`.
          if (sup[euw] > current) decrement_support(euw);
          if (sup[evw] > current) decrement_support(evw);
        }
        ++p;
        ++q;
      }
    }
  }

  return assemble(s, eids, truss_of, m);
}

Graph truss_subgraph(const TrussDecomposition& t, count_t kappa) {
  const CountCsr& m = t.truss_number;
  std::vector<esz> rp(m.rows() + 1, 0);
  std::vector<vid> ci;
  std::vector<std::uint8_t> vals;
  for (vid u = 0; u < m.rows(); ++u) {
    const auto row = m.row_cols(u);
    const auto rv = m.row_vals(u);
    for (std::size_t k = 0; k < row.size(); ++k) {
      if (rv[k] >= kappa) {
        ci.push_back(row[k]);
        vals.push_back(1);
      }
    }
    rp[u + 1] = ci.size();
  }
  return Graph(BoolCsr::from_parts(m.rows(), m.cols(), std::move(rp),
                                   std::move(ci), std::move(vals)));
}

bool edges_in_at_most_one_triangle(const Graph& b) {
  const CountCsr delta = triangle::edge_support_masked(b);
  for (const count_t v : delta.values()) {
    if (v > 1) return false;
  }
  return true;
}

}  // namespace kronotri::truss
