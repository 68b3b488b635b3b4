// Regression pins for the implicit product views (KronGraphView, and the
// k-factor fold and degrees): neighbor enumeration, degrees and membership
// must agree with the materialized product in every edge case — self loops
// in one or both factors (loops × loops), directed factors, mixed/zero
// degrees. The streaming census and the validating sinks trust these
// queries blindly.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gen/classic.hpp"
#include "helpers.hpp"
#include "kron/oracle.hpp"
#include "kron/product.hpp"
#include "kron/view.hpp"

namespace {

using namespace kronotri;

void expect_view_matches_materialized(const Graph& a, const Graph& b,
                                      const char* what) {
  const kron::KronGraphView view(a, b);
  const Graph c = kron::kron_graph(a, b);
  ASSERT_EQ(view.num_vertices(), c.num_vertices()) << what;
  ASSERT_EQ(view.nnz(), c.nnz()) << what;
  EXPECT_EQ(view.num_self_loops(), c.num_self_loops()) << what;
  EXPECT_EQ(view.is_undirected(), c.is_undirected()) << what;
  if (c.is_undirected()) {
    EXPECT_EQ(view.num_undirected_edges(), c.num_undirected_edges()) << what;
  }
  for (vid p = 0; p < c.num_vertices(); ++p) {
    const std::vector<vid> vn = view.neighbors(p);
    const auto cn = c.neighbors(p);
    ASSERT_EQ(vn.size(), cn.size()) << what << " degree mismatch at " << p;
    EXPECT_TRUE(std::equal(vn.begin(), vn.end(), cn.begin()))
        << what << " neighbor list mismatch at " << p;
    EXPECT_TRUE(std::is_sorted(vn.begin(), vn.end()))
        << what << " unsorted neighbors at " << p;
    EXPECT_EQ(view.out_degree(p), c.out_degree(p)) << what << " @ " << p;
    EXPECT_EQ(view.nonloop_degree(p), c.nonloop_degree(p)) << what << " @ "
                                                           << p;
    for (vid q = 0; q < c.num_vertices(); ++q) {
      ASSERT_EQ(view.has_edge(p, q), c.has_edge(p, q))
          << what << " membership mismatch at (" << p << "," << q << ")";
    }
  }
}

TEST(KronGraphView, LoopsTimesLoopsAgreesWithMaterialized) {
  const Graph a = kt_test::random_undirected(6, 0.4, 1, 0.5);
  const Graph b = kt_test::random_undirected(5, 0.4, 2, 0.6);
  expect_view_matches_materialized(a, b, "loops x loops");
  expect_view_matches_materialized(a.with_all_self_loops(),
                                   b.with_all_self_loops(),
                                   "all-loops x all-loops");
}

TEST(KronGraphView, MixedDegreeFactorsAgreeWithMaterialized) {
  // A star has one hub and many degree-1 leaves; a path has degree-1 ends —
  // the widest degree spread the small classics offer.
  expect_view_matches_materialized(gen::star(6), gen::path(5),
                                   "star x path");
  expect_view_matches_materialized(gen::star(5).with_all_self_loops(),
                                   gen::complete_bipartite(2, 3),
                                   "star+I x bipartite");
}

TEST(KronGraphView, IsolatedVerticesAgreeWithMaterialized) {
  // Vertex 3 of A and vertex 2 of B have degree 0: whole product rows and
  // columns must come out empty on both paths.
  const Graph a = Graph::from_edges(4, {{{0, 1}, {1, 2}, {0, 0}}}, true);
  const Graph b = Graph::from_edges(3, {{{0, 1}}}, true);
  expect_view_matches_materialized(a, b, "isolated vertices");
}

TEST(KronGraphView, DirectedFactorsAgreeWithMaterialized) {
  const Graph a = kt_test::random_directed(5, 0.35, 3);
  const Graph b = kt_test::random_directed(4, 0.4, 4);
  expect_view_matches_materialized(a, b, "directed x directed");
  const Graph u = kt_test::random_undirected(4, 0.5, 5, 0.3);
  expect_view_matches_materialized(a, u, "directed x undirected");
  expect_view_matches_materialized(u, a, "undirected x directed");
}

TEST(KronGraphView, DirectedSelfLoopsAgreeWithMaterialized) {
  // Directed factor with a loop: (0,0),(0,1),(1,2),(2,0) plus loop at 2.
  const Graph a =
      Graph::from_edges(3, {{{0, 0}, {0, 1}, {1, 2}, {2, 0}, {2, 2}}}, false);
  const Graph b = Graph::from_edges(2, {{{0, 1}, {1, 0}, {1, 1}}}, false);
  expect_view_matches_materialized(a, b, "directed loops");
}

TEST(KronChain, FoldAgreesWithPairwiseProductsThreeFactors) {
  const Graph f1 = kt_test::random_undirected(4, 0.5, 6, 0.5);
  const Graph f2 = gen::star(3);
  const Graph f3 = kt_test::random_undirected(3, 0.6, 7, 0.4);
  const std::vector<Graph> factors{f1, f2, f3};
  const Graph c = kron::kron_graph(factors);
  // ⊗ is associative, and the fold is left to right.
  EXPECT_EQ(c, kron::kron_graph(kron::kron_graph(f1, f2), f3));
  EXPECT_EQ(c, kron::kron_graph(f1, kron::kron_graph(f2, f3)));
  EXPECT_EQ(kron::kron_num_vertices(factors), c.num_vertices());
  EXPECT_EQ(kron::kron_num_undirected_edges(factors),
            c.num_undirected_edges());
  const kron::TriangleOracle oracle(factors);
  for (vid p = 0; p < c.num_vertices(); ++p) {
    EXPECT_EQ(oracle.degree(p), c.nonloop_degree(p)) << "p=" << p;
  }
}

TEST(KronChain, IsolatedFactorVerticesGiveIsolatedProductVertices) {
  const Graph a = Graph::from_edges(3, {{{0, 1}}}, true);  // vertex 2 isolated
  const kron::TriangleOracle oracle(a, gen::clique(2));
  const Graph c = kron::kron_graph(oracle.factors());
  for (vid p = 0; p < c.num_vertices(); ++p) {
    EXPECT_EQ(oracle.degree(p), c.nonloop_degree(p));
    EXPECT_EQ(c.out_degree(p) == 0, p / 2 == 2);
  }
}

}  // namespace
