#include "kron/oracle.hpp"

#include "kron/view.hpp"

namespace kronotri::kron {

TriangleOracle::TriangleOracle(const Graph& a, const Graph& b)
    : a_(&a),
      b_(&b),
      tvec_(kronotri::kron::vertex_triangles(a, b)),
      dmat_(kronotri::kron::edge_triangles(a, b)),
      deg_(kronotri::kron::degrees(a, b)) {
  total_ = tvec_.sum() / 3;
  n_ = a.num_vertices() * b.num_vertices();
  edges_ = KronGraphView(a, b).num_undirected_edges();
}

double TriangleOracle::local_clustering(vid p) const {
  const count_t d = deg_.at(p);
  if (d < 2) return 0.0;
  const double wedges = 0.5 * static_cast<double>(d) *
                        static_cast<double>(d - 1);
  return static_cast<double>(tvec_.at(p)) / wedges;
}

}  // namespace kronotri::kron
