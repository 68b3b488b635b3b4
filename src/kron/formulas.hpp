// Closed Kronecker formulas for undirected triangle statistics (§III).
//
// Every theorem in the paper expresses a statistic of C = A ⊗ B as a small
// signed sum of Kronecker products of factor statistics:
//
//   Thm 1  (no self loops):         t_C = 2·t_A ⊗ t_B
//   Cor 1  (loops in B only):       t_C = t_A ⊗ diag(B³)
//   general (loops in both):        t_C = ½[ diag(A³)⊗diag(B³)
//                                           − 2·diag(A²D_A)⊗diag(B²D_B)
//                                           − diag(A D_A A)⊗diag(B D_B B)
//                                           + 2·diag(D_A)⊗diag(D_B) ]
//   Thm 2  (no self loops):         Δ_C = Δ_A ⊗ Δ_B
//   Cor 2  (loops in B only):       Δ_C = Δ_A ⊗ (B∘B²)
//   general (loops in both):        Δ_C = (A∘A²)⊗(B∘B²) − (D_A A)⊗(D_B B)
//                                         − (A D_A)⊗(B D_B) + 2·D_A⊗D_B
//                                         − (D_A∘A²)⊗(D_B∘B²)
//   §III.A (degrees):               d_C = (A·1)⊗(B·1) − loops_A⊗loops_B
//
// Rather than dispatching per case at every call site, the formulas are
// returned as KronVectorExpr / KronMatrixExpr — signed sums of Kronecker
// product terms over precomputed factor statistics. An expression supports
// O(1)-ish point evaluation at a product vertex/edge (the generation-time
// ground-truth oracle), factor-side summation (exact global totals without
// expanding), and full expansion (for tests and small graphs).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/csr.hpp"
#include "core/graph.hpp"
#include "kron/index.hpp"

namespace kronotri::kron {

/// Signed sum of Kronecker products of factor vectors, divided by a common
/// positive divisor: v[p] = (Σ_t coeff_t · a_t[i(p)] · b_t[k(p)]) / divisor.
class KronVectorExpr {
 public:
  struct Term {
    std::int64_t coeff;
    std::vector<count_t> a;
    std::vector<count_t> b;
  };

  KronVectorExpr(std::int64_t divisor, std::vector<Term> terms);

  /// Exact value at product vertex p. Throws std::logic_error if the
  /// expression evaluates negative or non-divisible (formula misuse).
  [[nodiscard]] count_t at(vid p) const;

  /// Materializes the full n_A·n_B vector.
  [[nodiscard]] std::vector<count_t> expand() const;

  /// Σ_p value — computed factor-side: Σ_t coeff·(Σa_t)(Σb_t)/divisor.
  [[nodiscard]] count_t sum() const;

  /// Exact value histogram of the full n_A·n_B vector, computed as the
  /// product-convolution of the factor histograms — O(|distinct_a|·
  /// |distinct_b|) instead of O(n_A·n_B). Only defined for single-term
  /// expressions (Thm 1 / Cor 1 shapes — the paper's contribution (d) on
  /// triangle distributions); throws std::logic_error otherwise.
  [[nodiscard]] std::map<count_t, count_t> histogram() const;

  [[nodiscard]] vid size() const noexcept { return na_ * nb_; }
  [[nodiscard]] const std::vector<Term>& terms() const noexcept { return terms_; }
  [[nodiscard]] std::int64_t divisor() const noexcept { return divisor_; }

 private:
  std::int64_t divisor_;
  std::vector<Term> terms_;
  vid na_ = 0;
  vid nb_ = 0;
};

/// Signed sum of Kronecker products of factor count matrices:
/// M[p,q] = (Σ_t coeff_t · A_t(i,j) · B_t(k,l)) / divisor.
class KronMatrixExpr {
 public:
  struct Term {
    std::int64_t coeff;
    CountCsr a;
    CountCsr b;
  };

  KronMatrixExpr(std::int64_t divisor, std::vector<Term> terms);

  /// Exact value at product entry (p,q) — two binary searches per term.
  [[nodiscard]] count_t at(vid p, vid q) const;

  /// Materializes the full product matrix (small factors only). Entries
  /// that evaluate to zero are dropped.
  [[nodiscard]] CountCsr expand() const;

  /// Σ over all entries, computed factor-side.
  [[nodiscard]] count_t sum() const;

  [[nodiscard]] vid rows() const noexcept { return ra_ * rb_; }
  [[nodiscard]] const std::vector<Term>& terms() const noexcept { return terms_; }
  [[nodiscard]] std::int64_t divisor() const noexcept { return divisor_; }

 private:
  std::int64_t divisor_;
  std::vector<Term> terms_;
  vid ra_ = 0, rb_ = 0;  // factor row counts
};

/// Non-loop degree vector d_C of C = A ⊗ B (§III.A; works for directed
/// factors too, giving out-degrees).
KronVectorExpr degrees(const Graph& a, const Graph& b);

/// In-degree vector of C (column sums less loops).
KronVectorExpr in_degrees(const Graph& a, const Graph& b);

/// Triangle participation at vertices t_C. Dispatches between Thm 1, Cor 1
/// (either orientation), and the general self-loop formula based on the
/// factors' loop structure. Requires undirected factors.
KronVectorExpr vertex_triangles(const Graph& a, const Graph& b);

/// Triangle participation at edges Δ_C (Thm 2 / Cor 2 / general case).
/// Requires undirected factors.
KronMatrixExpr edge_triangles(const Graph& a, const Graph& b);

/// τ(C) = ⅓·1ᵗt_C, computed factor-side. For loop-free factors this equals
/// the paper's 6·τ(A)·τ(B).
count_t total_triangles(const Graph& a, const Graph& b);

}  // namespace kronotri::kron
