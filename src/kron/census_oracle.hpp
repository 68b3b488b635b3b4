// Census oracles: the directed (Thm 4/5) and labeled (Thm 6/7) analogues of
// TriangleOracle — per-flavor point queries on product vertices and edges,
// backed by factor-sized precomputation only.
//
// These are the "diverse triangle statistics" of the paper's title as a
// queryable API: a benchmark harness generates C = A ⊗ B, runs the
// implementation under test, and asks these oracles for the exact expected
// value of any of the 15 directed flavors (Fig. 4/5) or any labeled type
// (Fig. 6) at any vertex or edge it wishes to check.
#pragma once

#include <array>
#include <optional>

#include "core/graph.hpp"
#include "kron/directed.hpp"
#include "kron/index.hpp"
#include "kron/labeled.hpp"

namespace kronotri::kron {

/// Directed-flavor oracle for C = A ⊗ B (A directed loop-free, B
/// undirected; Thm 4/5 preconditions checked at construction).
class DirectedTriangleOracle {
 public:
  /// Factors must outlive the oracle.
  DirectedTriangleOracle(const Graph& a, const Graph& b);

  /// t^{(τ)}_C[p] for any of the 15 vertex flavors.
  [[nodiscard]] count_t vertex_triangles(triangle::VertexTriType flavor,
                                         vid p) const;

  /// Δ^{(τ)}_C[p,q] for any of the 15 edge flavors; nullopt when (p,q) is
  /// not a stored entry of the flavor's structure (A_d ⊗ B for central-'+'
  /// flavors, A_r ⊗ B for central-'o').
  [[nodiscard]] std::optional<count_t> edge_triangles(
      triangle::EdgeTriType flavor, vid p, vid q) const;

  /// Σ_p t^{(τ)}_C[p] for one flavor, factor-side.
  [[nodiscard]] count_t total(triangle::VertexTriType flavor) const;

  [[nodiscard]] vid num_vertices() const noexcept { return n_; }

 private:
  KronIndex index_;
  triangle::DirectedParts parts_;
  std::array<KronVectorExpr, triangle::kNumVertexTriTypes> vertex_;
  std::array<KronMatrixExpr, triangle::kNumEdgeTriTypes> edge_;
  vid n_ = 0;
};

/// Labeled-flavor oracle for C = A ⊗ B with labels inherited from A
/// (Thm 6/7 preconditions checked at construction). Flavors are addressed
/// as (q1 = center label, {q2, q3} = other labels) for vertices and
/// (q1, q2 = endpoint labels, q3 = third-vertex label) for edges.
class LabeledTriangleOracle {
 public:
  LabeledTriangleOracle(const Graph& a, triangle::Labeling labels,
                        const Graph& b);

  [[nodiscard]] count_t vertex_triangles(std::uint32_t q1, std::uint32_t q2,
                                         std::uint32_t q3, vid p) const;

  /// Δ^{(q1,q2,q3)}_C[p,q]; nullopt when (p,q) is outside the type's label
  /// block or not an edge.
  [[nodiscard]] std::optional<count_t> edge_triangles(std::uint32_t q1,
                                                      std::uint32_t q2,
                                                      std::uint32_t q3, vid p,
                                                      vid q) const;

  /// The product graph's inherited labeling.
  [[nodiscard]] const triangle::Labeling& product_labels() const noexcept {
    return product_labels_;
  }

  [[nodiscard]] std::uint32_t num_labels() const noexcept {
    return labels_.num_labels;
  }

 private:
  /// Dense per-(q1,q2,q3) cache index.
  [[nodiscard]] std::size_t key(std::uint32_t q1, std::uint32_t q2,
                                std::uint32_t q3) const;

  const Graph* a_;
  const Graph* b_;
  KronIndex index_;
  triangle::Labeling labels_;
  triangle::Labeling product_labels_;
  // Lazily built per-type expressions (L³ slots, populated on demand).
  mutable std::vector<std::optional<KronVectorExpr>> vertex_cache_;
  mutable std::vector<std::optional<KronMatrixExpr>> edge_cache_;
};

}  // namespace kronotri::kron
