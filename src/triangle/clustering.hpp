// Clustering coefficients — the canonical consumers of triangle
// participation (§I of the paper cites local clustering as the motivating
// statistic for t_A and Δ_A).
#pragma once

#include <span>
#include <vector>

#include "core/graph.hpp"
#include "core/types.hpp"

namespace kronotri::triangle {

/// Local clustering coefficient per vertex: c_v = t_v / C(d_v, 2), zero for
/// degree < 2. Undirected; loops ignored.
std::vector<double> local_clustering(const Graph& a);

/// Global clustering coefficient (transitivity): 3·τ / #wedges.
double global_clustering(const Graph& a);

/// Mean of the local coefficients (Watts–Strogatz average clustering).
double average_clustering(const Graph& a);

/// The same coefficients from triangle counts the caller already holds —
/// tau = τ(A), t = t_A (one entry per vertex) — so a census shared between
/// analyses is not recomputed. Bit-identical to the overloads above.
double global_clustering(const Graph& a, count_t tau);
double average_clustering(const Graph& a, std::span<const count_t> t);

}  // namespace kronotri::triangle
