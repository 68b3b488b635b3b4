#include "kron/directed.hpp"

#include <stdexcept>

#include "core/ops.hpp"
#include "triangle/count.hpp"

namespace kronotri::kron {

namespace {

void require_thm45(const Graph& a, const Graph& b) {
  if (a.has_self_loops()) {
    throw std::invalid_argument("Thm 4/5 require diag(A) = 0");
  }
  if (!b.is_undirected()) {
    throw std::invalid_argument("Thm 4/5 require B undirected (B_d = O)");
  }
}

/// B ∘ B² with self loops kept (right factor of Thm 5).
CountCsr b_hadamard_b2(const Graph& b) {
  const BoolCsr& m = b.matrix();
  return ops::masked_product(m, m, m);
}

}  // namespace

std::array<KronVectorExpr, triangle::kNumVertexTriTypes>
directed_vertex_triangles(const Graph& a, const Graph& b) {
  require_thm45(a, b);
  const std::vector<count_t> b3 = triangle::diag_cube(b);
  auto census = triangle::directed_vertex_census(a);
  // KronVectorExpr has no default constructor; build through a vector.
  std::vector<KronVectorExpr> exprs;
  exprs.reserve(triangle::kNumVertexTriTypes);
  for (int f = 0; f < triangle::kNumVertexTriTypes; ++f) {
    std::vector<KronVectorExpr::Term> terms;
    terms.push_back({1, {std::move(census[static_cast<std::size_t>(f)]),
                         b3}});
    exprs.emplace_back(1, std::move(terms));
  }
  return {exprs[0],  exprs[1],  exprs[2],  exprs[3],  exprs[4],
          exprs[5],  exprs[6],  exprs[7],  exprs[8],  exprs[9],
          exprs[10], exprs[11], exprs[12], exprs[13], exprs[14]};
}

std::array<KronMatrixExpr, triangle::kNumEdgeTriTypes> directed_edge_triangles(
    const Graph& a, const Graph& b) {
  require_thm45(a, b);
  const CountCsr bb2 = b_hadamard_b2(b);
  auto census = triangle::directed_edge_census(a);
  std::vector<KronMatrixExpr> exprs;
  exprs.reserve(triangle::kNumEdgeTriTypes);
  for (int f = 0; f < triangle::kNumEdgeTriTypes; ++f) {
    std::vector<KronMatrixExpr::Term> terms;
    terms.push_back({1, {std::move(census[static_cast<std::size_t>(f)]),
                         bb2}});
    exprs.emplace_back(std::vector<const Graph*>{&a, &b}, 1,
                       std::move(terms));
  }
  return {exprs[0],  exprs[1],  exprs[2],  exprs[3],  exprs[4],
          exprs[5],  exprs[6],  exprs[7],  exprs[8],  exprs[9],
          exprs[10], exprs[11], exprs[12], exprs[13], exprs[14]};
}

DirectedDegrees directed_degrees(const Graph& a, const Graph& b) {
  require_thm45(a, b);
  const triangle::DirectedParts parts = triangle::split_directed(a);
  const std::vector<count_t> db = ops::row_sums<count_t>(b.matrix());

  auto make = [&](std::vector<count_t> da) {
    std::vector<KronVectorExpr::Term> terms;
    terms.push_back({1, {std::move(da), db}});
    return KronVectorExpr(1, std::move(terms));
  };
  return DirectedDegrees{
      make(ops::row_sums<count_t>(parts.ar)),
      make(ops::row_sums<count_t>(parts.ad)),
      make(ops::row_sums<count_t>(parts.adt)),
  };
}

}  // namespace kronotri::kron
