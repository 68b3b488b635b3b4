#include "kron/product.hpp"

#include <stdexcept>

namespace kronotri::kron {

Graph kron_graph(const Graph& a, const Graph& b) {
  return Graph(kron_matrix<std::uint8_t>(a.matrix(), b.matrix()));
}

Graph kron_graph(std::span<const Graph> factors) {
  if (factors.empty()) {
    throw std::invalid_argument("kron_graph needs at least one factor");
  }
  BoolCsr acc = factors.front().matrix();
  for (const Graph& f : factors.subspan(1)) {
    acc = kron_matrix<std::uint8_t>(acc, f.matrix());
  }
  return Graph(std::move(acc));
}

vid kron_num_vertices(std::span<const Graph> factors) {
  vid n = 1;
  for (const Graph& f : factors) n *= f.num_vertices();
  return n;
}

count_t kron_num_undirected_edges(std::span<const Graph> factors) {
  count_t nnz = 1, loops = 1;
  for (const Graph& f : factors) {
    nnz *= f.nnz();
    loops *= f.num_self_loops();
  }
  return (nnz - loops) / 2 + loops;
}

}  // namespace kronotri::kron
