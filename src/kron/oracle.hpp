// TriangleOracle — the generation-time ground-truth interface.
//
// This is the deliverable the paper's title promises: while (or after)
// generating C = A ⊗ B, answer "how many triangles touch vertex p?" and
// "how many triangles contain edge (p,q)?" exactly, from factor statistics
// alone. Construction costs one triangle analysis per factor
// (O(|E_A|^{3/2} + |E_B|^{3/2}) worst case — the square-root-of-|E_C| bound
// of §I); queries touch only factor-sized data.
#pragma once

#include <map>
#include <optional>

#include "core/graph.hpp"
#include "kron/formulas.hpp"
#include "kron/index.hpp"

namespace kronotri::kron {

class TriangleOracle {
 public:
  /// Factors must be undirected; any self-loop configuration is handled
  /// (Thm 1/2, Cor 1/2 or the general formulas are selected internally).
  /// Factors must outlive the oracle.
  TriangleOracle(const Graph& a, const Graph& b);

  /// t_C[p] — exact triangle count at product vertex p.
  [[nodiscard]] count_t vertex_triangles(vid p) const { return tvec_.at(p); }

  /// Δ_C[p,q] — exact triangle count at product edge (p,q). Returns nullopt
  /// when (p,q) is not an edge of C (a stored count of 0 is a real edge in
  /// zero triangles).
  [[nodiscard]] std::optional<count_t> edge_triangles(vid p, vid q) const;

  /// τ(C) — 6·τ(A)·τ(B) when the factors are loop-free.
  [[nodiscard]] count_t total_triangles() const { return total_; }

  /// Non-loop degree of p (§III.A formulas).
  [[nodiscard]] count_t degree(vid p) const { return deg_.at(p); }

  /// Local clustering coefficient of p: t_C[p] / C(d_C[p], 2) — the §I
  /// motivating statistic, exact at any product vertex in O(1).
  [[nodiscard]] double local_clustering(vid p) const;

  /// Exact histogram of t_C over all n_A·n_B vertices, computed
  /// factor-side (contribution (d): triangle distributions). Only
  /// available when the triangle formula is a single Kronecker term
  /// (Thm 1 / Cor 1 regimes); throws std::logic_error otherwise.
  [[nodiscard]] std::map<count_t, count_t> triangle_histogram() const {
    return tvec_.histogram();
  }

  [[nodiscard]] vid num_vertices() const noexcept { return n_; }
  [[nodiscard]] count_t num_undirected_edges() const noexcept { return edges_; }
  [[nodiscard]] const Graph& factor_a() const noexcept { return *a_; }
  [[nodiscard]] const Graph& factor_b() const noexcept { return *b_; }

  [[nodiscard]] const KronVectorExpr& vertex_expr() const noexcept { return tvec_; }
  [[nodiscard]] const KronMatrixExpr& edge_expr() const noexcept { return dmat_; }

 private:
  const Graph* a_;
  const Graph* b_;
  KronIndex index_;
  KronVectorExpr tvec_;
  KronMatrixExpr dmat_;
  KronVectorExpr deg_;
  count_t total_ = 0;
  count_t edges_ = 0;
  vid n_ = 0;
};

}  // namespace kronotri::kron
