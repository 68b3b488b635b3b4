// Kronecker formulas for vertex-labeled triangle statistics (§V, Thm 6/7).
//
// The product graph inherits labels from the left factor:
// f_C(p) = f_A(α(p)) (so Π_{C,q} = Π_{A,q} ⊗ I_B). Preconditions (checked):
// A undirected, labeled, no self loops; B undirected, unlabeled, loops
// allowed. For every labeled flavor τ = (q1, q2, q3):
//
//    t^{(τ)}_C = t^{(τ)}_A ⊗ diag(B³)          (Thm 6)
//    Δ^{(τ)}_C = Δ^{(τ)}_A ⊗ (B ∘ B²)          (Thm 7)
#pragma once

#include "core/graph.hpp"
#include "kron/formulas.hpp"
#include "triangle/labeled.hpp"

namespace kronotri::kron {

/// The labeling of C = A ⊗ B inherited from A's labeling.
triangle::Labeling kron_labeling(const triangle::Labeling& la, vid nb);

/// Thm 6: t^{(q1,q2,q3)}_C as an expression over factor statistics.
KronVectorExpr labeled_vertex_triangles(const Graph& a,
                                        const triangle::Labeling& lab,
                                        const Graph& b, std::uint32_t q1,
                                        std::uint32_t q2, std::uint32_t q3);

/// Thm 7: Δ^{(q1,q2,q3)}_C as an expression over factor statistics; a and b
/// must outlive it.
KronMatrixExpr labeled_edge_triangles(const Graph& a,
                                      const triangle::Labeling& lab,
                                      const Graph& b, std::uint32_t q1,
                                      std::uint32_t q2, std::uint32_t q3);

}  // namespace kronotri::kron
