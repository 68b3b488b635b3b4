// Exact undirected triangle analytics on a single graph.
//
// Implements Def. 5 / Def. 6 of the paper:
//   t_A = ½·diag((A − A∘I)³)          triangle participation at vertices,
//   Δ_A = (A − A∘I) ∘ (A − A∘I)²      triangle participation at edges,
// via a degree-ordered adjacency-intersection kernel (the Chiba–Nishizeki
// style "forward" algorithm the paper cites as [10]); self loops are ignored
// per the definitions. The kernel also reports the number of wedge checks
// performed — the work measure the paper quotes in §VI (7,734,429 wedge
// checks for web-NotreDame).
//
// All entry points run on the atomic-free census engine
// (triangle/census.hpp): thread-local accumulation indexed by vertex id and
// undirected edge id, reduced after enumeration — no per-triangle atomics
// or binary searches, bit-identical counts at every thread count.
#pragma once

#include <vector>

#include "core/csr.hpp"
#include "core/graph.hpp"
#include "core/types.hpp"

namespace kronotri::triangle {

struct UndirectedStats {
  std::vector<count_t> per_vertex;  ///< t_A
  CountCsr per_edge;                ///< Δ_A (symmetric; structure = A − I∘A)
  count_t total = 0;                ///< τ(A) = ⅓·1ᵗt_A
  count_t wedge_checks = 0;         ///< merge comparisons performed
};

/// Full triangle analysis. Requires an undirected graph (throws otherwise);
/// self loops are stripped per Def. 5/6.
UndirectedStats analyze(const Graph& a);

/// t_A only (cheaper: no per-edge scatter).
std::vector<count_t> participation_vertices(const Graph& a);

/// τ(A) only.
count_t count_total(const Graph& a);

/// diag(A³) including walks through self loops — the right-factor statistic
/// of Cor. 1 / Thm. 4 / Thm. 6 when B has self loops. Requires undirected.
std::vector<count_t> diag_cube(const Graph& a);

}  // namespace kronotri::triangle
