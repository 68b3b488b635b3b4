#include "kron/labeled.hpp"

#include <stdexcept>

#include "core/ops.hpp"
#include "triangle/count.hpp"

namespace kronotri::kron {

namespace {

void require_thm67(const Graph& a, const Graph& b) {
  if (a.has_self_loops()) {
    throw std::invalid_argument("Thm 6/7 require diag(A) = 0");
  }
  if (!a.is_undirected() || !b.is_undirected()) {
    throw std::invalid_argument("Thm 6/7 require undirected factors");
  }
}

}  // namespace

triangle::Labeling kron_labeling(const triangle::Labeling& la, vid nb) {
  triangle::Labeling lc;
  lc.num_labels = la.num_labels;
  lc.label.reserve(la.label.size() * nb);
  for (const std::uint32_t q : la.label) {
    lc.label.insert(lc.label.end(), nb, q);
  }
  return lc;
}

KronVectorExpr labeled_vertex_triangles(const Graph& a,
                                        const triangle::Labeling& lab,
                                        const Graph& b, std::uint32_t q1,
                                        std::uint32_t q2, std::uint32_t q3) {
  require_thm67(a, b);
  std::vector<KronVectorExpr::Term> terms;
  terms.push_back(
      {1, {triangle::labeled_vertex_participation(a, lab, q1, q2, q3),
           triangle::diag_cube(b)}});
  return KronVectorExpr(1, std::move(terms));
}

KronMatrixExpr labeled_edge_triangles(const Graph& a,
                                      const triangle::Labeling& lab,
                                      const Graph& b, std::uint32_t q1,
                                      std::uint32_t q2, std::uint32_t q3) {
  require_thm67(a, b);
  const BoolCsr& m = b.matrix();
  std::vector<KronMatrixExpr::Term> terms;
  terms.push_back(
      {1, {triangle::labeled_edge_participation(a, lab, q1, q2, q3),
           ops::masked_product(m, m, m)}});
  return KronMatrixExpr({&a, &b}, 1, std::move(terms));
}

}  // namespace kronotri::kron
