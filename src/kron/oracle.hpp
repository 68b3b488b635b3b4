// TriangleOracle — the generation-time ground-truth interface.
//
// This is the deliverable the paper's title promises: while (or after)
// generating C = A_1 ⊗ … ⊗ A_k, answer "how many triangles touch vertex
// p?" and "how many triangles contain edge (p,q)?" exactly, from factor
// statistics alone. One oracle serves every k ≥ 1 (k = 2 is the paper's
// A ⊗ B; longer chains are the companion work's [3] benchmark graphs) and
// every self-loop configuration: its t_C, Δ_C and d_C are the §III
// expansions of kron/formulas.hpp, a single Kronecker term whenever some
// factor is loop-free. Construction costs one triangle analysis per
// factor (O(Σ_f |E_f|^{3/2}) worst case — the square-root-of-|E_C| bound
// of §I for two factors); queries touch only factor-sized data.
//
// The oracle owns copies of its factors (factor graphs are small by
// design) and builds every expression in its constructor, so its const
// queries are safe from concurrent threads (TriangleCensusSink's stream
// partitions).
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "core/graph.hpp"
#include "kron/formulas.hpp"

namespace kronotri::kron {

class TriangleOracle {
 public:
  /// Requires 1 to kMaxFactors undirected factors (std::invalid_argument
  /// otherwise); self loops are allowed in any of them.
  explicit TriangleOracle(std::vector<Graph> factors);

  /// C = A ⊗ B.
  TriangleOracle(const Graph& a, const Graph& b)
      : TriangleOracle(std::vector<Graph>{a, b}) {}

  // The expressions point at factors_: a copy rebuilds its own; a move
  // keeps the factors' buffer, so they move along.
  TriangleOracle(const TriangleOracle& other)
      : TriangleOracle(other.factors_) {}
  TriangleOracle& operator=(const TriangleOracle& other) {
    return *this = TriangleOracle(other);
  }
  TriangleOracle(TriangleOracle&&) = default;
  TriangleOracle& operator=(TriangleOracle&&) = default;

  /// t_C[p] — exact triangle count at product vertex p.
  [[nodiscard]] count_t vertex_triangles(vid p) const { return tvec_.at(p); }

  /// Δ_C[p,q] — exact triangle count at product edge (p,q). Returns nullopt
  /// when (p,q) is not an edge of C (a stored count of 0 is a real edge in
  /// zero triangles).
  [[nodiscard]] std::optional<count_t> edge_triangles(vid p, vid q) const {
    return dmat_.stored(p, q);
  }

  /// τ(C) — 6·τ(A)·τ(B) for two loop-free factors.
  [[nodiscard]] count_t total_triangles() const { return total_; }

  /// Non-loop degree of p (§III.A formulas).
  [[nodiscard]] count_t degree(vid p) const { return deg_.at(p); }

  /// Local clustering coefficient of p: t_C[p] / C(d_C[p], 2) — the §I
  /// motivating statistic, exact at any product vertex in O(k).
  [[nodiscard]] double local_clustering(vid p) const;

  /// Exact histogram of t_C over all product vertices, computed
  /// factor-side (contribution (d): triangle distributions). Only
  /// available when t_C is a single Kronecker term, i.e. some factor is
  /// loop-free (vertex_expr().num_terms() == 1); throws std::logic_error
  /// otherwise.
  [[nodiscard]] std::map<count_t, count_t> triangle_histogram() const {
    return tvec_.histogram();
  }

  [[nodiscard]] vid num_vertices() const noexcept { return tvec_.size(); }
  [[nodiscard]] count_t num_undirected_edges() const noexcept { return edges_; }
  [[nodiscard]] const std::vector<Graph>& factors() const noexcept {
    return factors_;
  }

  [[nodiscard]] const KronVectorExpr& vertex_expr() const noexcept { return tvec_; }
  [[nodiscard]] const KronMatrixExpr& edge_expr() const noexcept { return dmat_; }

 private:
  std::vector<Graph> factors_;
  KronVectorExpr tvec_;
  KronMatrixExpr dmat_;
  KronVectorExpr deg_;
  count_t total_ = 0;
  count_t edges_ = 0;
};

}  // namespace kronotri::kron
