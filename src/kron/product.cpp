#include "kron/product.hpp"

#include <stdexcept>

namespace kronotri::kron {

Graph kron_graph(const Graph& a, const Graph& b) {
  BoolCsr c = kron_matrix<std::uint8_t>(a.matrix(), b.matrix());
  // (A ⊗ B)ᵀ = Aᵀ ⊗ Bᵀ and diag(A ⊗ B) = diag(A) ⊗ diag(B), so C's
  // predicates follow from the factors'. Only a directed factor leaves
  // symmetry to Graph's own check.
  if (!a.is_undirected() || !b.is_undirected()) return Graph(std::move(c));
  return Graph::with_predicates(std::move(c), true,
                                a.num_self_loops() * b.num_self_loops());
}

Graph kron_graph(std::span<const Graph> factors) {
  if (factors.empty()) {
    throw std::invalid_argument("kron_graph needs at least one factor");
  }
  Graph acc = factors.front();
  for (const Graph& f : factors.subspan(1)) acc = kron_graph(acc, f);
  return acc;
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
