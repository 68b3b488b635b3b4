#include "kron/oracle.hpp"

#include <stdexcept>

#include "kron/product.hpp"

namespace kronotri::kron {

namespace {

std::vector<const Graph*> pointers(const std::vector<Graph>& factors) {
  if (factors.empty()) {
    throw std::invalid_argument("TriangleOracle needs at least one factor");
  }
  std::vector<const Graph*> out;
  for (const Graph& f : factors) out.push_back(&f);
  return out;
}

}  // namespace

TriangleOracle::TriangleOracle(std::vector<Graph> factors)
    : factors_(std::move(factors)),
      tvec_(kronotri::kron::vertex_triangles(pointers(factors_))),
      dmat_(kronotri::kron::edge_triangles(pointers(factors_))),
      deg_(kronotri::kron::degrees(pointers(factors_))),
      total_(tvec_.sum() / 3),
      edges_(kron_num_undirected_edges(factors_)) {}

double TriangleOracle::local_clustering(vid p) const {
  const count_t d = deg_.at(p);
  if (d < 2) return 0.0;
  const double wedges = 0.5 * static_cast<double>(d) *
                        static_cast<double>(d - 1);
  return static_cast<double>(tvec_.at(p)) / wedges;
}

}  // namespace kronotri::kron
