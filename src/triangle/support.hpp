// Edge-support computation: Δ_A = A ∘ A² for a loop-free undirected A
// (Def. 6), the paper's Fig. 2 (right) — (A²)_{ij} counts 2-paths between
// i and j, so A ∘ A² counts triangles at every edge.
//
// Since the census-engine rework this runs on the atomic-free enumeration
// engine (triangle/census.hpp) rather than a masked SpGEMM; the
// linear-algebra formulation is still available as
// ops::masked_product(S, S, S).
#pragma once

#include "core/csr.hpp"
#include "core/graph.hpp"

namespace kronotri::triangle {

/// Δ_A. Requires undirected; self loops are stripped.
CountCsr edge_support_masked(const Graph& a);

/// t_A = ½·Δ_A·1 (useful identity from Def. 6).
std::vector<count_t> vertex_from_edge_support(const CountCsr& delta);

}  // namespace kronotri::triangle
