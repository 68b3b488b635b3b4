// Kronecker formulas for directed triangle statistics (§IV, Thm 4/5).
//
// Preconditions (checked): A has no self loops; B is undirected (B_d = O),
// self loops in B allowed. Then C = A ⊗ B decomposes as C_r = A_r ⊗ B,
// C_d = A_d ⊗ B, and for every directed flavor τ of Fig. 4 / Fig. 5:
//
//    t^{(τ)}_C = t^{(τ)}_A ⊗ diag(B³)          (Thm 4)
//    Δ^{(τ)}_C = Δ^{(τ)}_A ⊗ (B ∘ B²)          (Thm 5)
#pragma once

#include <array>

#include "core/graph.hpp"
#include "kron/formulas.hpp"
#include "triangle/directed.hpp"

namespace kronotri::kron {

/// All 15 vertex-flavor expressions for C = A ⊗ B.
std::array<KronVectorExpr, triangle::kNumVertexTriTypes>
directed_vertex_triangles(const Graph& a, const Graph& b);

/// All 15 edge-flavor expressions for C = A ⊗ B. Matrices for central-'+'
/// flavors have structure A_d ⊗ B; central-'o' flavors A_r ⊗ B (held on
/// A ⊗ B's slots, 0 off the flavor's structure). a and b must outlive them.
std::array<KronMatrixExpr, triangle::kNumEdgeTriTypes>
directed_edge_triangles(const Graph& a, const Graph& b);

/// Reciprocal / directed-out / directed-in degree vectors of C (§IV.B):
/// d_{C_r} = d_{A_r} ⊗ d_B, d^out_{C_d} = d^out_{A_d} ⊗ d_B,
/// d^in_{C_d} = d^in_{A_d} ⊗ d_B (row sums of B since B symmetric).
struct DirectedDegrees {
  KronVectorExpr reciprocal;
  KronVectorExpr directed_out;
  KronVectorExpr directed_in;
};
DirectedDegrees directed_degrees(const Graph& a, const Graph& b);

}  // namespace kronotri::kron
