// Multi-factor Kronecker chains: C = A₁ ⊗ A₂ ⊗ … ⊗ A_k.
//
// The paper's companion work ([3], Kepner et al., "Design, generation, and
// validation of extreme-scale power-law graphs") builds benchmark graphs
// from MORE than two factors — the formulas of §III generalize directly by
// associativity of ⊗. This module implements the k-factor case:
//
//   * mixed-radix index maps p ↔ (x₁, …, x_k), left factor most
//     significant (the k-fold γ/α/β of §II),
//   * implicit edge/degree queries from the factors,
//   * closed triangle formulas whenever the product is loop-free (i.e. at
//     least one factor has no self loops — loops in C need a loop in EVERY
//     factor):
//       diag(C³)  = ⊗ᵢ diag(Aᵢ³)            so  t_C = ½·⊗ᵢ diag(Aᵢ³)
//       Δ_C       = ⊗ᵢ (Aᵢ ∘ Aᵢ²)
//       τ(C)      = (1/6)·Πᵢ Σ diag(Aᵢ³)    (= 6^{k-1}·Πᵢ τ(Aᵢ) when all
//                                              factors are loop-free)
//       d_C       = ⊗ᵢ (Aᵢ·1)
//     For two factors these reduce exactly to Thm 1 / Cor 1 / Thm 2 /
//     Cor 2. The all-factors-looped case (which needs the §III.B general
//     expansion at every level) is rejected with an exception.
#pragma once

#include <vector>

#include "core/csr.hpp"
#include "core/graph.hpp"

namespace kronotri::kron {

class KronChain {
 public:
  /// Takes ownership of copies of the factors (factor graphs are small by
  /// design). Requires k ≥ 1 undirected factors; triangle statistics
  /// additionally require at least one loop-free factor.
  explicit KronChain(std::vector<Graph> factors);

  [[nodiscard]] std::size_t num_factors() const noexcept {
    return factors_.size();
  }
  [[nodiscard]] const Graph& factor(std::size_t i) const {
    return factors_[i];
  }

  [[nodiscard]] vid num_vertices() const noexcept { return n_; }
  [[nodiscard]] esz nnz() const noexcept { return nnz_; }
  [[nodiscard]] count_t num_undirected_edges() const;

  /// Mixed-radix decomposition of a product vertex, left factor first.
  [[nodiscard]] std::vector<vid> decompose(vid p) const;
  /// Inverse of decompose().
  [[nodiscard]] vid compose(const std::vector<vid>& xs) const;

  [[nodiscard]] bool has_edge(vid p, vid q) const;
  [[nodiscard]] esz out_degree(vid p) const;
  [[nodiscard]] esz nonloop_degree(vid p) const;

  /// Sorted out-neighbor list of p (materialized per call; size =
  /// out_degree, includes p itself when every factor has the loop) — the
  /// k-factor analogue of KronGraphView::neighbors.
  [[nodiscard]] std::vector<vid> neighbors(vid p) const;

  /// Materializes the product — small chains only (tests/examples).
  [[nodiscard]] Graph materialize() const;

  // -- exact triangle statistics (require ≥ 1 loop-free factor) ----------

  /// t_C[p] — exact triangle participation at product vertex p.
  [[nodiscard]] count_t vertex_triangles(vid p) const;

  /// Δ_C[p,q]; throws std::invalid_argument when (p,q) is not an edge.
  [[nodiscard]] count_t edge_triangles(vid p, vid q) const;

  /// τ(C).
  [[nodiscard]] count_t total_triangles() const;

  /// Factor i's terms of the formulas above: diag(Aᵢ³) and Aᵢ ∘ Aᵢ² (the
  /// latter on Aᵢ's own CSR pattern).
  [[nodiscard]] const std::vector<count_t>& diag_cube(std::size_t i) const;
  [[nodiscard]] const CountCsr& support(std::size_t i) const;

 private:
  void require_triangle_stats() const;

  std::vector<Graph> factors_;
  vid n_ = 1;
  esz nnz_ = 1;
  bool product_loop_free_ = false;
  // Per-factor precomputed statistics (lazily built on first use).
  mutable std::vector<std::vector<count_t>> diag_cube_;  // diag(Aᵢ³)
  mutable std::vector<CountCsr> support_;                // Aᵢ ∘ Aᵢ²
  mutable bool stats_ready_ = false;
};

}  // namespace kronotri::kron
