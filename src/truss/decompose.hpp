// Truss decomposition (Def. 7 of the paper; Cohen [16]).
//
// A κ-truss is a maximal 1-component subgraph in which every edge closes at
// least κ−2 triangles inside the subgraph (we follow the paper and compute
// the edge sets T^{(κ)} without splitting into components). The *truss
// number* of an edge is the largest κ with e ∈ T^{(κ)}; triangle-free edges
// get truss number 2.
//
// decompose() peels level-synchronously in the style of PKT (Kabir &
// Madduri): all edges at the current support level form a frontier whose
// triangles are enumerated in parallel, supports of surviving edges drop via
// bounded CAS (never below the level), and edges crossing the level join the
// next sub-round's frontier. Each frontier edge finds its triangles by
// scanning only its shorter row against marks of its owner's row (the
// higher-degree endpoint, ties to the larger id; one mark pass per run of
// frontier edges sharing an owner), so the peel costs O(Σ_e min(d_u, d_v))
// lookups plus the mark passes, after the initial support computation,
// and 4·n bytes of marks per team thread, allocated once per peel. The
// serial peel merges both rows of every edge: O(Σ_e (d_u + d_v)). The
// κ-truss decomposition is unique, so the result is bit-identical to the
// serial Batagelj–Zaveršnik bucket peel (decompose_serial) at every
// thread count.
//
// peel() is the peel itself, over a census workspace the caller already
// holds and its per-edge supports: a run plan's truss analysis peels from
// the census its plan shares between analyses (api::PlanContext), and
// reads |T^{(κ)}| off truss_sizes() instead of a symmetric matrix.
#pragma once

#include <span>
#include <vector>

#include "core/csr.hpp"
#include "core/graph.hpp"

namespace kronotri::triangle {
class CensusWorkspace;
}

namespace kronotri::truss {

struct TrussDecomposition {
  /// Symmetric matrix over the structure of A − I∘A; entry (i,j) is the
  /// truss number of edge (i,j) (≥ 2).
  CountCsr truss_number;
  /// Largest κ with a nonempty κ-truss (2 for triangle-free graphs).
  count_t max_truss = 2;

  /// Number of (undirected) edges with truss number ≥ κ, i.e. |T^{(κ)}|.
  [[nodiscard]] count_t edges_in_truss(count_t kappa) const;
};

/// Truss number of every undirected edge of ws, indexed by ws.edge_ids(),
/// by the parallel level-synchronous peel. Adds its work to the
/// `truss.peel_lookups` and `truss.peel_sub_rounds` counters. `support` is Δ(e) per edge id
/// (ws.edge_census()); the peel consumes it as its working supports. ws
/// must carry edge ids (CensusWorkspace::Detail::kEdges).
std::vector<count_t> peel(const triangle::CensusWorkspace& ws,
                          std::vector<count_t> support);

/// |T^{(κ)}| for every κ in [0, max truss], from per-edge truss numbers:
/// one histogram pass and a suffix sum. The last index is the max truss
/// (2 when there are no edges); entry κ equals edges_in_truss(κ) of the
/// same graph's decomposition.
std::vector<count_t> truss_sizes(std::span<const count_t> truss_of);

/// Computes the decomposition with the parallel level-synchronous peel
/// (peel() over a fresh census workspace of a). Requires an undirected
/// graph; self loops are ignored.
TrussDecomposition decompose(const Graph& a);

/// The reference single-threaded bucket peel (Batagelj–Zaveršnik order).
/// The determinism oracle of decompose() (tests).
TrussDecomposition decompose_serial(const Graph& a);

/// The κ-truss T^{(κ)} as a subgraph of g (same vertex set, only edges with
/// truss number ≥ κ). Pass the decomposition of g.
Graph truss_subgraph(const TrussDecomposition& t, count_t kappa);

/// Precondition probe for Thm 3: true iff every edge of B participates in at
/// most one triangle (Δ_B ≤ 1).
bool edges_in_at_most_one_triangle(const Graph& b);

}  // namespace kronotri::truss
