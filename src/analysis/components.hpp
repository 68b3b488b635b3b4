// Connectivity analysis and Weichsel's theorem.
//
// The paper's Def. 1 cites Weichsel [2], "The Kronecker product of graphs"
// (Proc. AMS 1962), whose classical result governs the connectivity of the
// generated benchmark graphs: for connected undirected factors, A ⊗ B is
// connected iff at least one factor contains an odd closed walk
// (non-bipartite; a self loop counts), and splits into exactly two
// components when both factors are bipartite. This module provides BFS
// components / bipartiteness and the factor-side component count of
// C = A ⊗ B — another statistic of the huge graph read off the small
// factors (generalizing Weichsel to disconnected factors and isolated
// vertices).
#pragma once

#include <vector>

#include "core/graph.hpp"

namespace kronotri::analysis {

struct Components {
  std::vector<vid> component;  ///< component id per vertex, in [0, count)
  count_t count = 0;
};

/// Connected components of the undirected closure of g. Parallel
/// Shiloach–Vishkin/Afforest-style union-find: CAS hooking of the larger
/// root onto the smaller endpoint, then pointer-jumping compression. Roots
/// converge to each component's minimum vertex, and labels are the rank of
/// that root — exactly the discovery order of the serial DFS, so the output
/// is bit-identical to connected_components_serial() at every thread count.
Components connected_components(const Graph& g);

/// The reference single-threaded DFS labeling (discovery order of the
/// smallest vertex per component). The determinism oracle of the parallel
/// implementation (tests).
Components connected_components_serial(const Graph& g);

/// True when every vertex is reachable from vertex 0 (empty graphs are
/// connected).
bool is_connected(const Graph& g);

/// 2-colorability of the undirected closure; a self loop is an odd closed
/// walk, so any looped graph is non-bipartite.
bool is_bipartite(const Graph& g);

/// Number of connected components of C = A ⊗ B, computed from the factors
/// (never materializing C):
///   Σ over component pairs (X ⊆ A, Y ⊆ B) of
///     |X|·|Y|  when X or Y is edgeless (every product vertex isolated),
///     2        when both X and Y are bipartite-with-edges,
///     1        otherwise (Weichsel).
/// Requires undirected factors.
count_t kron_component_count(const Graph& a, const Graph& b);

}  // namespace kronotri::analysis
