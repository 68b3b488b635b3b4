#include "core/graph.hpp"

#include <stdexcept>

#include "core/ops.hpp"

namespace kronotri {

Graph::Graph(BoolCsr adjacency) : adj_(std::move(adjacency)) {
  if (adj_.rows() != adj_.cols()) {
    throw std::invalid_argument("Graph: adjacency matrix must be square");
  }
  for (vid u = 0; u < adj_.rows(); ++u) {
    if (adj_.contains(u, u)) ++self_loops_;
  }
  undirected_ = ops::is_symmetric(adj_);
}

Graph Graph::with_predicates(BoolCsr adjacency, bool undirected,
                             count_t self_loops) {
  if (adjacency.rows() != adjacency.cols()) {
    throw std::invalid_argument("Graph: adjacency matrix must be square");
  }
  Graph g;
  g.adj_ = std::move(adjacency);
  g.undirected_ = undirected;
  g.self_loops_ = self_loops;
  return g;
}

Graph Graph::from_edges(vid n, std::span<const std::pair<vid, vid>> edges,
                        bool symmetrize) {
  BoolCoo coo(n, n);
  coo.reserve(edges.size() * (symmetrize ? 2 : 1));
  for (const auto& [u, v] : edges) {
    coo.add(u, v, 1);
    if (symmetrize && u != v) coo.add(v, u, 1);
  }
  return Graph(BoolCsr::from_coo(coo, DupPolicy::kKeep));
}

Graph Graph::from_coo(const BoolCoo& coo, bool symmetrize) {
  if (!symmetrize) return Graph(BoolCsr::from_coo(coo, DupPolicy::kKeep));
  BoolCoo sym(coo.rows(), coo.cols());
  sym.reserve(coo.size() * 2);
  for (const auto& e : coo.entries()) {
    sym.add(e.row, e.col, 1);
    if (e.row != e.col) sym.add(e.col, e.row, 1);
  }
  return Graph(BoolCsr::from_coo(sym, DupPolicy::kKeep));
}

count_t Graph::num_undirected_edges() const {
  if (!undirected_) {
    throw std::logic_error("num_undirected_edges: graph is directed");
  }
  return (nnz() - self_loops_) / 2 + self_loops_;
}

Graph Graph::without_self_loops() const {
  return Graph(ops::remove_diag(adj_));
}

Graph Graph::with_all_self_loops() const {
  return Graph(ops::with_unit_diag(adj_));
}

Graph Graph::undirected_closure() const {
  if (undirected_) return *this;
  BoolCoo coo(num_vertices(), num_vertices());
  coo.reserve(nnz() * 2);
  for (vid u = 0; u < num_vertices(); ++u) {
    for (const vid v : neighbors(u)) {
      coo.add(u, v, 1);
      if (u != v) coo.add(v, u, 1);
    }
  }
  return Graph(BoolCsr::from_coo(coo, DupPolicy::kKeep));
}

Graph Graph::transpose() const { return Graph(ops::transpose(adj_)); }

}  // namespace kronotri
