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

/// The global and average coefficients summed one vertex at a time, in
/// vertex order, so the doubles equal the overloads above whether the
/// caller holds d and t per vertex (a census shared between analyses) or
/// evaluates them at each vertex of a Kronecker product and stores none.
class ClusteringSums {
 public:
  /// The next vertex: non-loop degree d, in t triangles.
  void add(count_t d, count_t t);
  /// 3·tau / #wedges, tau = τ of the graph.
  [[nodiscard]] double global(count_t tau) const;
  /// Mean of the local coefficients.
  [[nodiscard]] double average() const;

 private:
  long double wedges_ = 0;
  long double local_ = 0;
  std::size_t vertices_ = 0;
};

/// ClusteringSums over every vertex of a, from t = t_A (one entry per
/// vertex) the caller already holds.
ClusteringSums clustering_sums(const Graph& a, std::span<const count_t> t);

}  // namespace kronotri::triangle
