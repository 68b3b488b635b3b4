// Graph: a thin semantic wrapper over a square 0/1 CsrMatrix.
//
// Following §II.A of the paper, a graph IS its adjacency matrix: possibly
// non-symmetric (directed), possibly with self loops. The wrapper caches the
// two structural predicates every theorem's precondition mentions —
// symmetry and the presence of self loops — and provides the edge-level
// accessors the triangle kernels need.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "core/csr.hpp"
#include "core/types.hpp"

namespace kronotri {

class Graph {
 public:
  Graph() : Graph(BoolCsr{}) {}
  explicit Graph(BoolCsr adjacency);

  /// Wraps an adjacency matrix whose two predicates the caller already
  /// knows (a Kronecker product of undirected factors is undirected, and
  /// its self loops number Π_f loops_f), skipping the constructor's
  /// transpose-and-compare and diagonal scan. The caller vouches for both.
  static Graph with_predicates(BoolCsr adjacency, bool undirected,
                               count_t self_loops);

  /// Build from an explicit edge list on n vertices. Duplicate edges
  /// collapse. With `symmetrize`, each (u,v) also inserts (v,u).
  static Graph from_edges(vid n, std::span<const std::pair<vid, vid>> edges,
                          bool symmetrize = false);

  static Graph from_coo(const BoolCoo& coo, bool symmetrize = false);

  [[nodiscard]] vid num_vertices() const noexcept { return adj_.rows(); }

  /// Number of stored adjacency-matrix nonzeros (directed edge slots).
  [[nodiscard]] esz nnz() const noexcept { return adj_.nnz(); }

  /// Number of self loops (diagonal nonzeros).
  [[nodiscard]] count_t num_self_loops() const noexcept { return self_loops_; }
  [[nodiscard]] bool has_self_loops() const noexcept { return self_loops_ > 0; }

  /// A == Aᵗ. Cached at construction.
  [[nodiscard]] bool is_undirected() const noexcept { return undirected_; }

  /// Undirected edge count: off-diagonal nonzeros / 2 + self loops.
  /// Only meaningful for undirected graphs (throws otherwise).
  [[nodiscard]] count_t num_undirected_edges() const;

  /// Out-neighborhood of u, sorted ascending (may include u for self loop).
  [[nodiscard]] std::span<const vid> neighbors(vid u) const {
    return adj_.row_cols(u);
  }

  /// Out-degree including a self loop if present.
  [[nodiscard]] esz out_degree(vid u) const { return adj_.row_degree(u); }

  /// Degree excluding the self loop — the d_A of §III.A, (A − I∘A)·1.
  [[nodiscard]] esz nonloop_degree(vid u) const {
    return adj_.row_degree(u) - (adj_.contains(u, u) ? 1u : 0u);
  }

  [[nodiscard]] bool has_edge(vid u, vid v) const { return adj_.contains(u, v); }

  [[nodiscard]] const BoolCsr& matrix() const noexcept { return adj_; }

  /// A − I∘A (Rem. 3).
  [[nodiscard]] Graph without_self_loops() const;

  /// A + I with adjacency semantics (diagonal forced to 1); the B = A + I
  /// construction of the paper's §VI experiment.
  [[nodiscard]] Graph with_all_self_loops() const;

  /// A ∨ Aᵗ — the undirected version A_u (Def. 9 uses A + Aᵗ_d; for 0/1
  /// adjacency semantics this is the structural symmetrization).
  [[nodiscard]] Graph undirected_closure() const;

  [[nodiscard]] Graph transpose() const;

  friend bool operator==(const Graph& a, const Graph& b) {
    return a.adj_ == b.adj_;
  }

 private:
  BoolCsr adj_;
  count_t self_loops_ = 0;
  bool undirected_ = false;
};

}  // namespace kronotri
