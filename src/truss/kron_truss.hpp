// Kronecker truss transfer (Thm 3 of the paper).
//
// In general the truss decomposition of C = A ⊗ B is NOT a simple product
// of the factor decompositions (the paper's Ex. 2 is the counterexample,
// checked by examples/plans/paper_ex2_truss.json). Under the strong assumption Δ_B ≤ 1
// (every edge of B in at most one triangle) Thm 3 gives an exact transfer:
//
//   (p,q) ∈ T^{(κ)}_C  ⟺  (i,j) ∈ T^{(κ)}_A and (k,l) ∈ T^{(3)}_B,
//
// i.e. the truss number of a product edge is the truss number of its
// A-edge when its B-edge closes a triangle, and 2 otherwise. §III.D(b)'s
// preferential-attachment generator (gen/one_triangle_pa) produces
// scale-free B factors satisfying the assumption.
#pragma once

#include "core/graph.hpp"
#include "kron/index.hpp"
#include "truss/decompose.hpp"

namespace kronotri::truss {

class KronTrussOracle {
 public:
  /// Preconditions (checked): both factors undirected, loop-free;
  /// Δ_B ≤ 1. Computes the truss decomposition of A only.
  KronTrussOracle(const Graph& a, const Graph& b);

  /// Truss number of product edge (p,q); throws std::invalid_argument when
  /// (p,q) is not an edge of C.
  [[nodiscard]] count_t truss_number(vid p, vid q) const;

  /// |T^{(κ)}_C| — undirected edge count of the κ-truss of C, computed
  /// factor-side: |T^{(κ)}_A| · |T^{(3)}_B| ... counted over nonzero pairs.
  [[nodiscard]] count_t edges_in_truss(count_t kappa) const;

  [[nodiscard]] count_t max_truss() const noexcept {
    return b_tri_edges_ == 0 ? 2 : a_truss_.max_truss;
  }

  [[nodiscard]] const TrussDecomposition& factor_a_truss() const noexcept {
    return a_truss_;
  }

 private:
  const Graph* a_;
  const Graph* b_;
  kron::KronIndex index_;
  TrussDecomposition a_truss_;
  CountCsr b_delta_;        // Δ_B (0/1 valued by assumption)
  count_t b_tri_edges_ = 0; // |T^{(3)}_B| as undirected edges
};

}  // namespace kronotri::truss
