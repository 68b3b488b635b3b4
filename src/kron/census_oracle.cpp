#include "kron/census_oracle.hpp"

namespace kronotri::kron {

DirectedTriangleOracle::DirectedTriangleOracle(const Graph& a, const Graph& b)
    : index_(b.num_vertices()),
      parts_(triangle::split_directed(a)),
      vertex_(directed_vertex_triangles(a, b)),
      edge_(directed_edge_triangles(a, b)),
      n_(a.num_vertices() * b.num_vertices()) {}

count_t DirectedTriangleOracle::vertex_triangles(
    triangle::VertexTriType flavor, vid p) const {
  return vertex_[static_cast<std::size_t>(flavor)].at(p);
}

std::optional<count_t> DirectedTriangleOracle::edge_triangles(
    triangle::EdgeTriType flavor, vid p, vid q) const {
  const bool directed_central =
      static_cast<int>(flavor) < static_cast<int>(triangle::EdgeTriType::kRpp);
  const BoolCsr& structure = directed_central ? parts_.ad : parts_.ar;
  // The expression's pattern is A ⊗ B; the flavor's is narrower in A.
  if (!structure.contains(index_.a_of(p), index_.a_of(q))) return std::nullopt;
  return edge_[static_cast<std::size_t>(flavor)].stored(p, q);
}

count_t DirectedTriangleOracle::total(triangle::VertexTriType flavor) const {
  return vertex_[static_cast<std::size_t>(flavor)].sum();
}

LabeledTriangleOracle::LabeledTriangleOracle(const Graph& a,
                                             triangle::Labeling labels,
                                             const Graph& b)
    : a_(&a),
      b_(&b),
      index_(b.num_vertices()),
      labels_(std::move(labels)),
      product_labels_(kron_labeling(labels_, b.num_vertices())) {
  labels_.validate(a.num_vertices());
  const std::size_t slots = static_cast<std::size_t>(labels_.num_labels) *
                            labels_.num_labels * labels_.num_labels;
  vertex_cache_.resize(slots);
  edge_cache_.resize(slots);
  // Validate Thm 6/7 preconditions eagerly by building one expression.
  (void)labeled_vertex_triangles(*a_, labels_, *b_, 0, 0, 0);
}

std::size_t LabeledTriangleOracle::key(std::uint32_t q1, std::uint32_t q2,
                                       std::uint32_t q3) const {
  const std::uint32_t big_l = labels_.num_labels;
  if (q1 >= big_l || q2 >= big_l || q3 >= big_l) {
    throw std::invalid_argument("label out of range");
  }
  return (static_cast<std::size_t>(q1) * big_l + q2) * big_l + q3;
}

count_t LabeledTriangleOracle::vertex_triangles(std::uint32_t q1,
                                                std::uint32_t q2,
                                                std::uint32_t q3, vid p) const {
  if (q2 > q3) std::swap(q2, q3);  // unordered pair of outer labels
  auto& slot = vertex_cache_[key(q1, q2, q3)];
  if (!slot) {
    slot = labeled_vertex_triangles(*a_, labels_, *b_, q1, q2, q3);
  }
  return slot->at(p);
}

std::optional<count_t> LabeledTriangleOracle::edge_triangles(
    std::uint32_t q1, std::uint32_t q2, std::uint32_t q3, vid p, vid q) const {
  // Def. 14 structure: entry (p,q) lives in the (q2,q1) label block.
  if (labels_.label[index_.a_of(p)] != q2 ||
      labels_.label[index_.a_of(q)] != q1) {
    return std::nullopt;
  }
  auto& slot = edge_cache_[key(q1, q2, q3)];
  if (!slot) {
    slot = labeled_edge_triangles(*a_, labels_, *b_, q1, q2, q3);
  }
  return slot->stored(p, q);
}

}  // namespace kronotri::kron
