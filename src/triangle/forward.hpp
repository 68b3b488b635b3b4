// The degree-ordered "forward" triangle enumeration kernel, shared by the
// undirected analytics and the labeled census.
//
// orient_by_degree() turns an undirected loop-free graph into a DAG in which
// u → v when (deg(u), u) < (deg(v), v); forward_row() then emits every
// triangle with smallest-ranked vertex u exactly once by intersecting
// successor lists, reporting the number of wedge checks performed (the §VI
// work statistic). forward_row() also hands back the successor-array slots
// of the three triangle edges, which is what lets the census engine
// (triangle/census.hpp) translate each triangle into plain array indices
// instead of per-triangle binary searches.
#pragma once

#include <cstdint>
#include <vector>

#include "core/csr.hpp"
#include "core/types.hpp"

namespace kronotri::triangle {

/// Degree-ordered orientation: successor lists sorted by vertex id.
struct Oriented {
  std::vector<esz> row_ptr;
  std::vector<vid> succ;
};

/// Builds the orientation of a symmetric loop-free 0/1 matrix with a
/// two-pass prefix-sum build (both passes parallel over rows). The
/// orientation bounds each out-degree by O(√nnz), giving the O(|E|^{3/2})
/// worst case of Chiba–Nishizeki [10].
Oriented orient_by_degree(const BoolCsr& s);

/// Enumerates the triangles whose degree-minimal vertex is u, invoking
/// emit(u, v, w, slot_uv, slot_uw, slot_vw) with u ≺ v ≺ w in degree order;
/// slot_xy indexes o.succ at the oriented edge (x, y). Serial — parallel
/// drivers partition the row range themselves. Returns the wedge checks
/// (merge comparisons) performed for this row.
template <typename Emit>
inline count_t forward_row(const Oriented& o, vid u, Emit&& emit) {
  count_t checks = 0;
  const esz ub = o.row_ptr[u], ue = o.row_ptr[u + 1];
  for (esz k = ub; k < ue; ++k) {
    const vid v = o.succ[k];
    esz p = ub, q = o.row_ptr[v];
    const esz pe = ue, qe = o.row_ptr[v + 1];
    while (p < pe && q < qe) {
      ++checks;
      if (o.succ[p] < o.succ[q]) {
        ++p;
      } else if (o.succ[p] > o.succ[q]) {
        ++q;
      } else {
        emit(u, v, o.succ[p], k, p, q);
        ++p;
        ++q;
      }
    }
  }
  return checks;
}

}  // namespace kronotri::triangle
