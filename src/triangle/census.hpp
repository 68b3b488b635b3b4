// Atomic-free parallel triangle-census engine.
//
// The original analyze() bumped 9 shared counters with `#pragma omp atomic`
// and located edge slots with 6 binary-search CsrMatrix::find() calls per
// triangle, serializing every census thread on shared cache lines — the
// throughput ceiling for the paper's core deliverable (exact triangle
// statistics at every edge and vertex). CensusWorkspace removes all
// per-triangle synchronization:
//
//   1. orient_by_degree() is a parallel two-pass prefix-sum build,
//   2. an oriented-slot → undirected-edge-id map is computed once per graph
//      (the edge-id machinery truss/decompose.cpp used to rebuild privately),
//   3. for_each_triangle() hands every worker its own thread-local
//      accumulator plus plain array indices for the three triangle edges, so
//      the inner loop is ordinary unsynchronized increments,
//   4. the per-thread buffers are reduced and mirrored into the symmetric
//      CountCsr in one parallel pass.
//
// Counts are exact integer sums, so results are bit-identical for every
// thread count. All census consumers (triangle/count.cpp,
// triangle/labeled.cpp, triangle/support.cpp, truss/decompose.cpp, and the
// per-plan census api::PlanContext shares between analyses of a graph that
// is not a Kronecker product) run on this engine. A product plan's
// PlanContext reads t and Δ off kron::TriangleOracle instead, and its
// truss peel walks the factors (truss/product_peel.cpp). Every enumeration
// pass bumps the `triangle.census_passes` counter, so a RunReport shows how
// many censuses a plan paid for.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/csr.hpp"
#include "core/graph.hpp"
#include "core/types.hpp"
#include "triangle/forward.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace kronotri::triangle {

/// Number of worker slots for_each_triangle() may use — size thread-local
/// state vectors to exactly this.
inline unsigned census_workers() noexcept {
#ifdef _OPENMP
  return static_cast<unsigned>(omp_get_max_threads());
#else
  return 1;
#endif
}

/// Team size for an enumeration whose caller supplied `tls_size`
/// thread-local slots: never more threads than slots, never more slots
/// used than census_workers(), at least one.
inline int census_team(std::size_t tls_size) noexcept {
  return static_cast<int>(std::max<std::size_t>(
      1, std::min<std::size_t>(tls_size, census_workers())));
}

/// Undirected edge ids over a symmetric loop-free structure: the two stored
/// entries (u,v) and (v,u) share one id in [0, num_edges()).
struct EdgeIdMap {
  std::vector<esz> slot_id;               ///< per stored entry → edge id
  std::vector<std::pair<vid, vid>> ends;  ///< id → (u, v) with u < v

  [[nodiscard]] esz num_edges() const noexcept { return ends.size(); }
};

/// Parallel two-pass build (count ids per row, prefix-sum, fill). One
/// binary search per undirected edge to mirror the id into the (v,u) slot —
/// paid once per graph instead of once per triangle.
EdgeIdMap build_edge_ids(const BoolCsr& s);

/// A − I∘A and its undirected edge ids: the index per-edge counts Δ(e) are
/// kept by, and all a truss peel walks.
struct EdgeIndex {
  BoolCsr structure;
  EdgeIdMap ids;
};

/// Bumps the `triangle.census_passes` counter (one call per enumeration).
void count_census_pass();

class CensusWorkspace {
 public:
  /// What the workspace precomputes. Vertex-only censuses (count_total,
  /// participation_vertices, run plans whose analyses read no Δ(e)) skip the edge-id build — one binary search per undirected edge
  /// plus two m-sized arrays they would never read.
  enum class Detail { kVertexOnly, kEdges };

  /// Requires an undirected graph (throws std::invalid_argument otherwise);
  /// self loops are stripped per Def. 5/6. With Detail::kVertexOnly the
  /// edge-id map is not built: edge_ids(), edge_census(),
  /// mirror_edge_counts() and for_each_triangle() must not be used — only
  /// for_each_triangle_vertices().
  explicit CensusWorkspace(const Graph& a, Detail detail = Detail::kEdges);

  /// A − I∘A: the symmetric loop-free structure every census runs on.
  [[nodiscard]] const BoolCsr& structure() const noexcept {
    return index_.structure;
  }
  [[nodiscard]] const Oriented& oriented() const noexcept { return o_; }
  [[nodiscard]] const EdgeIdMap& edge_ids() const noexcept {
    return index_.ids;
  }
  /// structure() and edge_ids() together (empty ids with
  /// Detail::kVertexOnly).
  [[nodiscard]] const EdgeIndex& edge_index() const noexcept {
    return index_;
  }
  [[nodiscard]] vid num_vertices() const noexcept {
    return index_.structure.rows();
  }
  [[nodiscard]] esz num_edges() const noexcept {
    return index_.ids.num_edges();
  }

  /// Enumerates each triangle exactly once, calling
  /// visit(tls[worker], u, v, w, eid_uv, eid_uw, eid_vw) with u ≺ v ≺ w in
  /// degree order and the three undirected edge ids. The team size is
  /// min(tls.size(), census_workers()) — callers whose thread-local state
  /// is expensive (the labeled census' O(L²·n) blocks) clamp parallelism by
  /// sizing `tls` smaller. Each worker only touches its own entry, so
  /// `visit` needs no synchronization. Returns the wedge-check count.
  template <typename TLS, typename Visit>
  count_t for_each_triangle(std::vector<TLS>& tls, Visit&& visit) const {
    const std::int64_t n = static_cast<std::int64_t>(num_vertices());
    const esz* const eid = oriented_eid_.data();
    count_census_pass();
    count_t checks = 0;
#ifdef _OPENMP
    const int team = census_team(tls.size());
#endif
#pragma omp parallel num_threads(team) reduction(+ : checks)
    {
#ifdef _OPENMP
      TLS& local = tls[static_cast<std::size_t>(omp_get_thread_num())];
#else
      TLS& local = tls.front();
#endif
#pragma omp for schedule(dynamic, 64) nowait
      for (std::int64_t uu = 0; uu < n; ++uu) {
        checks += forward_row(
            o_, static_cast<vid>(uu),
            [&](vid u, vid v, vid w, esz kuv, esz kuw, esz kvw) {
              visit(local, u, v, w, eid[kuv], eid[kuw], eid[kvw]);
            });
      }
    }
    return checks;
  }

  /// Vertex-only enumeration: visit(tls[worker], u, v, w), no edge ids —
  /// valid for both Detail modes.
  template <typename TLS, typename Visit>
  count_t for_each_triangle_vertices(std::vector<TLS>& tls,
                                     Visit&& visit) const {
    const std::int64_t n = static_cast<std::int64_t>(num_vertices());
    count_census_pass();
    count_t checks = 0;
#ifdef _OPENMP
    const int team = census_team(tls.size());
#endif
#pragma omp parallel num_threads(team) reduction(+ : checks)
    {
#ifdef _OPENMP
      TLS& local = tls[static_cast<std::size_t>(omp_get_thread_num())];
#else
      TLS& local = tls.front();
#endif
#pragma omp for schedule(dynamic, 64) nowait
      for (std::int64_t uu = 0; uu < n; ++uu) {
        checks += forward_row(o_, static_cast<vid>(uu),
                              [&](vid u, vid v, vid w, esz, esz, esz) {
                                visit(local, u, v, w);
                              });
      }
    }
    return checks;
  }

  /// Δ(e) for every undirected edge id — thread-local accumulate + reduce.
  [[nodiscard]] std::vector<count_t> edge_census() const;

  /// t_v for every vertex — one vertex-only pass (valid for both Detail
  /// modes).
  [[nodiscard]] std::vector<count_t> vertex_census() const;

  /// t_v = ½·Σ_{e∋v} Δ(e) from per-edge-id counts (edge_census()'s
  /// result) — one O(m) sweep, no enumeration. Requires Detail::kEdges.
  [[nodiscard]] std::vector<count_t> vertex_census(
      const std::vector<count_t>& per_edge) const;

  /// Scatters per-edge-id counts into both stored directions of the
  /// symmetric CountCsr (structure = A − I∘A).
  [[nodiscard]] CountCsr mirror_edge_counts(
      const std::vector<count_t>& per_edge) const;

 private:
  EdgeIndex index_;
  Oriented o_;
  std::vector<esz> oriented_eid_;  // per oriented successor slot → edge id
};

}  // namespace kronotri::triangle
