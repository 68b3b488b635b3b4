// Closed Kronecker formulas for undirected triangle statistics (§III).
//
// For C = A_1 ⊗ … ⊗ A_k (k ≥ 1 undirected factors, self loops allowed in
// any of them), write D_f for factor f's self-loop diagonal. Then D_C =
// ⊗_f D_f, and every matrix power or loop product of C is the Kronecker
// product of the same expression in each factor. So the paper's
// two-factor general formulas carry over to k factors term by term:
//
//   §III.B  t_C = ½[ ⊗ diag(A_f³) − 2·⊗ diag(A_f² D_f)
//                   − ⊗ diag(A_f D_f A_f) + 2·⊗ diag(D_f) ]
//   §III.C  Δ_C = ⊗ (A_f∘A_f²) − ⊗ (D_f A_f) − ⊗ (A_f D_f)
//                 + 2·⊗ D_f − ⊗ (D_f∘A_f²)
//   §III.A  d_C = ⊗ (A_f·1) − ⊗ diag(D_f)
//
// Zero-term pruning: a term is dropped when one of its factor statistics
// is all zero. Every loop term has a statistic supported on D_f, which is
// all zero exactly when factor f is loop-free. So the loop terms survive
// only when every factor has loops, and a product with a loop-free factor
// keeps a single term. The leading term is always kept.
//
// Divisor 1: a loop-free factor's diag(A³) is 2·t_A. In the single-term
// case the first loop-free factor contributes t_A, so the ½ cancels and
// the divisor is 1. For two factors the single terms are exactly Thm 1
// (t_A ⊗ 2t_B = 2·t_A ⊗ t_B) / Cor 1 (t_A ⊗ diag(B³)) and Thm 2 / Cor 2
// (Δ_A ⊗ Δ_B, Δ_A ⊗ B∘B²). A loop-free factor's t_A and Δ_A come from the
// triangle census engine, which orients edges by degree and so beats row
// merges on skewed factors; a looped factor's diag(A³) and A∘A² come from
// sorted row merges (ops::diag_cube_symmetric, ops::masked_product).
//
// These, the directed (Thm 4/5) and labeled (Thm 6/7) formulas are all
// stored as one KronVectorExpr or KronMatrixExpr: a signed sum over terms
// t of Kronecker products of k ≥ 1 factor statistics, over a common
// divisor d,
//
//   v[p] = (Σ_t c_t · Π_f v_{t,f}[x_f]) / d,
//   M[p, q] = (Σ_t c_t · Π_f M_{t,f}(x_f, y_f)) / d,
//
// with x, y the mixed-radix factor coordinates of p, q (left factor most
// significant). An expression answers exact point queries at a product
// vertex or edge (the ground-truth oracle), at factor coordinates or
// adjacency slots (the streaming validator, which already stands on them),
// factor-side sums, and full expansion (tests, small graphs). Every edge
// term M_{t,f} is supported on factor f's adjacency pattern, so it is held
// as one value per adjacency slot of factor f (0 where a narrower term has
// no entry). A KronMatrixExpr keeps pointers to its factor graphs, which
// must outlive it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/csr.hpp"
#include "core/graph.hpp"

namespace kronotri::kron {

/// A chain of k factors with ≥ 2 vertices each has ≥ 2^k product vertices,
/// so 64 factors already saturate the vid space; the cap lets point queries
/// keep factor coordinates on the stack.
inline constexpr std::size_t kMaxFactors = 64;

namespace detail {

/// The terms of one expression, every factor's values in one flat array:
/// expressions stay copyable and an evaluation is a few reads.
struct KronTerms {
  std::int64_t divisor = 1;
  std::vector<vid> radix;  ///< per-factor vertex counts
  std::vector<std::int64_t> coeff;
  std::vector<count_t> values;
  /// offset[t·k + f]: first value of term t, factor f; the last entry is
  /// values.size().
  std::vector<std::size_t> offset;

  /// Throws std::invalid_argument unless divisor > 0, num_terms ≥ 1 and
  /// 1 ≤ k ≤ kMaxFactors; the expression then adds the terms.
  KronTerms(std::int64_t divisor, std::size_t num_terms,
            std::vector<vid> radix);

  /// (Σ_t coeff[t] · Π_f values[offset[t·k + f] + at[f]]) / divisor; nullopt
  /// when the sum is negative or not divisible (statistics that do not fit
  /// the formula).
  template <typename Index>
  [[nodiscard]] std::optional<count_t> eval(const Index* at) const noexcept {
    const std::size_t k = radix.size();
    __int128 acc = 0;
    for (std::size_t t = 0; t < coeff.size(); ++t) {
      const std::size_t* const off = offset.data() + t * k;
      __int128 term = coeff[t];
      for (std::size_t f = 0; f < k; ++f) term *= values[off[f] + at[f]];
      acc += term;
    }
    return divide(acc);
  }

  /// The same sum over every product entry, factor-side.
  [[nodiscard]] std::optional<count_t> total() const noexcept;

  /// acc / divisor; nullopt when acc is negative or not divisible.
  [[nodiscard]] std::optional<count_t> divide(__int128 acc) const noexcept {
    if (acc < 0) return std::nullopt;
    if (divisor == 1) return static_cast<count_t>(acc);  // no 128-bit division
    if (acc % divisor != 0) return std::nullopt;
    return static_cast<count_t>(acc / divisor);
  }

  /// Mixed-radix coordinates of product vertex p into x[0..k).
  void decompose(vid p, vid* x) const noexcept;
};

}  // namespace detail

/// Signed sum of Kronecker products of factor vectors, divided by a common
/// positive divisor: v[p] = (Σ_t coeff_t · Π_f v_{t,f}[x_f(p)]) / divisor.
class KronVectorExpr {
 public:
  /// coeff · v_0 ⊗ … ⊗ v_{k−1}, left factor first.
  struct Term {
    std::int64_t coeff;
    std::vector<std::vector<count_t>> factors;
  };

  /// Every term needs the same k ≥ 1 factor sizes (std::invalid_argument
  /// otherwise).
  KronVectorExpr(std::int64_t divisor, std::vector<Term> terms);

  /// Exact value at product vertex p. Throws std::logic_error if the
  /// expression evaluates negative or non-divisible (formula misuse).
  [[nodiscard]] count_t at(vid p) const;

  /// Value at the vertex with factor coordinates x[0..k); nullopt where
  /// at() throws.
  [[nodiscard]] std::optional<count_t> at_coords(const vid* x) const noexcept {
    return terms_.eval(x);
  }

  /// Materializes the full Π_f n_f vector.
  [[nodiscard]] std::vector<count_t> expand() const;

  /// Σ_p value — computed factor-side: Σ_t coeff·Π_f(Σv_{t,f})/divisor.
  [[nodiscard]] count_t sum() const;

  /// Exact value histogram of the full vector, computed as the
  /// product-convolution of the factor histograms — O(Π_f |distinct v_f|)
  /// instead of O(Π_f n_f). Only defined for a single nonnegative term
  /// (t_C of a product with a loop-free factor — the paper's contribution
  /// (d) on triangle distributions); throws std::logic_error otherwise.
  [[nodiscard]] std::map<count_t, count_t> histogram() const;

  [[nodiscard]] std::size_t num_terms() const noexcept {
    return terms_.coeff.size();
  }

  [[nodiscard]] vid size() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_factors() const noexcept {
    return terms_.radix.size();
  }
  [[nodiscard]] vid factor_size(std::size_t f) const {
    return terms_.radix[f];
  }

 private:
  detail::KronTerms terms_;
  vid n_ = 1;
};

/// Signed sum of Kronecker products of factor count matrices:
/// M[p,q] = (Σ_t coeff_t · Π_f M_{t,f}(x_f(p), x_f(q))) / divisor, each
/// M_{t,f} held on factor f's adjacency slots.
class KronMatrixExpr {
 public:
  /// coeff · M_0 ⊗ … ⊗ M_{k−1}, left factor first.
  struct Term {
    std::int64_t coeff;
    std::vector<CountCsr> factors;
  };

  /// Term factor f is aligned onto the adjacency slots of factors[f] (0 at
  /// slots where it has no entry). Throws std::invalid_argument on a size
  /// mismatch or a nonzero entry outside its factor's pattern. The factor
  /// graphs must outlive the expression.
  KronMatrixExpr(std::vector<const Graph*> factors, std::int64_t divisor,
                 std::vector<Term> terms);

  /// Exact value at product entry (p,q) — one slot search per factor; 0
  /// off the product pattern. Throws like KronVectorExpr::at.
  [[nodiscard]] count_t at(vid p, vid q) const {
    return stored(p, q).value_or(0);
  }

  /// at(p, q) on the product pattern ⊗_f factor(f), nullopt off it.
  [[nodiscard]] std::optional<count_t> stored(vid p, vid q) const;

  /// Value at the entry whose factor-f coordinate pair sits at adjacency
  /// slot slot[f] of factor f (an index into factor(f).matrix().col_idx());
  /// nullopt where at() throws.
  [[nodiscard]] std::optional<count_t> at_slots(
      const esz* slot) const noexcept {
    return terms_.eval(slot);
  }

  /// Adjacency slot of (x, y) in factor f; nullopt when it is not an edge.
  [[nodiscard]] std::optional<esz> slot(std::size_t f, vid x, vid y) const;

  /// Materializes the full product matrix (small factors only). Entries
  /// that evaluate to zero are dropped.
  [[nodiscard]] CountCsr expand() const;

  /// Σ over all entries, computed factor-side.
  [[nodiscard]] count_t sum() const;

  [[nodiscard]] vid rows() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_factors() const noexcept {
    return factors_.size();
  }
  [[nodiscard]] const Graph& factor(std::size_t f) const {
    return *factors_[f];
  }

 private:
  detail::KronTerms terms_;
  std::vector<const Graph*> factors_;
  vid n_ = 1;
};

/// Non-loop degree vector d_C of C = ⊗_f factors[f] (§III.A). Also
/// works for directed factors, giving out-degrees.
KronVectorExpr degrees(const std::vector<const Graph*>& factors);

/// Triangle participation at vertices t_C of C = ⊗_f factors[f] (§III.B
/// with zero-term pruning; see the file comment). Requires 1 to
/// kMaxFactors undirected factors.
KronVectorExpr vertex_triangles(const std::vector<const Graph*>& factors);

/// Triangle participation at edges Δ_C (§III.C, pruned alike). Requires
/// undirected factors, which must outlive the expression.
KronMatrixExpr edge_triangles(const std::vector<const Graph*>& factors);

}  // namespace kronotri::kron
