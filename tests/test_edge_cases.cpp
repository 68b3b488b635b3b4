// Edge-case and failure-injection tests across the library: degenerate
// graphs, boundary partitions, expression API misuse, and formula
// preconditions.
#include <gtest/gtest.h>

#include "analysis/degree.hpp"
#include "analysis/egonet.hpp"
#include "gen/classic.hpp"
#include "helpers.hpp"
#include "kron/formulas.hpp"
#include "kron/oracle.hpp"
#include "kron/product.hpp"
#include "kron/stream.hpp"
#include "kron/view.hpp"
#include "triangle/count.hpp"
#include "triangle/directed.hpp"
#include "triangle/support.hpp"
#include "truss/decompose.hpp"

namespace {

using namespace kronotri;

TEST(EdgeCases, SingleVertexGraph) {
  const Graph g = Graph::from_edges(1, {}, false);
  EXPECT_EQ(triangle::count_total(g), 0u);
  EXPECT_EQ(truss::decompose(g).max_truss, 2u);
  const auto ego = analysis::extract_egonet(g, 0);
  EXPECT_EQ(ego.vertices.size(), 1u);
  EXPECT_EQ(analysis::center_triangles(ego), 0u);
}

TEST(EdgeCases, SingleVertexWithLoop) {
  const Graph g = Graph::from_edges(1, {{{0, 0}}}, false);
  EXPECT_EQ(g.num_self_loops(), 1u);
  EXPECT_EQ(triangle::count_total(g), 0u);
  // Loop ⊗ loop: product has one loop, zero triangles.
  const auto t = kron::vertex_triangles({&g, &g});
  EXPECT_EQ(t.at(0), 0u);
  EXPECT_EQ(kron::TriangleOracle(g, g).total_triangles(), 0u);
}

TEST(EdgeCases, EmptyFactorProducesEmptyProduct) {
  const Graph e = Graph::from_edges(3, {}, false);
  const Graph k = gen::clique(4);
  const kron::KronGraphView view(e, k);
  EXPECT_EQ(view.nnz(), 0u);
  EXPECT_EQ(view.num_undirected_edges(), 0u);
  EXPECT_EQ(kron::TriangleOracle(e, k).total_triangles(), 0u);
  kron::EdgeStream stream(e, k);
  EXPECT_EQ(stream.partition_size(), 0u);
  EXPECT_FALSE(stream.next().has_value());
}

TEST(EdgeCases, StreamMorePartitionsThanEdges) {
  const Graph k2 = gen::clique(2);  // nnz = 2
  const Graph c = kron::kron_graph(k2, k2);
  esz total = 0;
  for (std::uint64_t part = 0; part < 10; ++part) {
    kron::EdgeStream stream(k2, k2, part, 10);
    while (stream.next()) ++total;
  }
  EXPECT_EQ(total, c.nnz());
}

TEST(EdgeCases, TriangleFreeFactorKillsAllProductTriangles) {
  const Graph tree = gen::star(6);
  const Graph rich = gen::clique(5);
  EXPECT_EQ(kron::TriangleOracle(tree, rich).total_triangles(), 0u);
  const auto tv = kron::vertex_triangles({&tree, &rich});
  for (vid p = 0; p < tv.size(); ++p) EXPECT_EQ(tv.at(p), 0u);
}

TEST(EdgeCases, OracleOnTinyFactors) {
  const Graph k2 = gen::clique(2);
  const kron::TriangleOracle oracle(k2, k2);
  EXPECT_EQ(oracle.total_triangles(), 0u);
  EXPECT_EQ(oracle.num_vertices(), 4u);
  EXPECT_EQ(oracle.num_undirected_edges(), 2u);
  EXPECT_FALSE(oracle.edge_triangles(0, 1).has_value());  // not an edge of C
  ASSERT_TRUE(oracle.edge_triangles(0, 3).has_value());
  EXPECT_EQ(*oracle.edge_triangles(0, 3), 0u);
}

/// Point values vs expand() vs sum() over every (p, q); returns how many
/// of the pairs are off the expression's product pattern (at() must be 0
/// there).
std::size_t expect_point_vs_expand(const kron::KronMatrixExpr& expr) {
  const CountCsr expanded = expr.expand();
  std::size_t off_pattern = 0;
  for (vid p = 0; p < expr.rows(); ++p) {
    for (vid q = 0; q < expr.rows(); ++q) {
      EXPECT_EQ(expr.at(p, q), expanded.at(p, q));
      if (!expr.stored(p, q)) {
        ++off_pattern;
        EXPECT_EQ(expr.at(p, q), 0u);
      }
    }
  }
  count_t total = 0;
  for (const count_t v : expanded.values()) total += v;
  EXPECT_EQ(expr.sum(), total);
  return off_pattern;
}

TEST(EdgeCases, KronMatrixExprPointVsExpand) {
  const Graph a = kt_test::random_undirected(5, 0.5, 1, 0.5);
  const Graph b = kt_test::random_undirected(4, 0.5, 2, 0.5);
  expect_point_vs_expand(kron::edge_triangles({&a, &b}));
  // 3-factor chains, one with a looped factor and one with loops in every
  // factor: their k-factor expressions.
  for (const double loops : {0.0, 1.0}) {
    const kron::TriangleOracle chain(
        {kt_test::random_undirected(4, 0.6, 3, loops),
         kt_test::random_undirected(3, 0.6, 4, 1.0),
         kt_test::random_undirected(3, 0.7, 5, 0.5)});
    ASSERT_EQ(chain.edge_expr().num_factors(), 3u);
    EXPECT_GT(expect_point_vs_expand(chain.edge_expr()), 0u);
    const Graph c = kron::kron_graph(chain.factors());
    for (vid p = 0; p < c.num_vertices(); ++p) {
      for (vid q = 0; q < c.num_vertices(); ++q) {
        EXPECT_EQ(chain.edge_expr().stored(p, q).has_value(),
                  c.has_edge(p, q));
      }
    }
    const kron::KronVectorExpr& vertex = chain.vertex_expr();
    const std::vector<count_t> values = vertex.expand();
    count_t total = 0;
    for (vid p = 0; p < vertex.size(); ++p) {
      EXPECT_EQ(vertex.at(p), values[p]);
      total += values[p];
    }
    EXPECT_EQ(vertex.sum(), total);
  }
}

TEST(EdgeCases, DirectedCensusOnEmptyGraph) {
  const Graph e = Graph::from_edges(4, {}, false);
  const auto census = triangle::directed_vertex_census(e);
  for (const auto& flavor : census) {
    for (const count_t v : flavor) EXPECT_EQ(v, 0u);
  }
}

TEST(EdgeCases, SupportOnGraphWithIsolatedVertices) {
  Graph g = Graph::from_edges(10, {{{0, 1}, {1, 2}, {0, 2}}}, true);
  const auto st = triangle::analyze(g);
  EXPECT_EQ(st.total, 1u);
  for (vid v = 3; v < 10; ++v) EXPECT_EQ(st.per_vertex[v], 0u);
}

TEST(EdgeCases, DegreeSummaryOfEmptyGraph) {
  const Graph e = Graph::from_edges(5, {}, false);
  const auto s = analysis::summarize_degrees(e);
  EXPECT_EQ(s.max_degree, 0u);
  const auto sk = analysis::summarize_kron_degrees(e, e);
  EXPECT_EQ(sk.max_degree, 0u);
}

TEST(EdgeCases, ViewOnMismatchedLifetimesIsCallerProblemButQueriesWork) {
  const Graph a = gen::clique(3);
  const Graph b = gen::cycle(4);
  const kron::KronGraphView view(a, b);
  // 12 vertices, every vertex degree 2·2 = 4.
  for (vid p = 0; p < view.num_vertices(); ++p) {
    EXPECT_EQ(view.out_degree(p), 4u);
  }
}

TEST(EdgeCases, TrussOfDisconnectedGraph) {
  // Two disjoint triangles: all edges truss 3.
  const Graph g = Graph::from_edges(
      6, {{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}}}, true);
  const auto t = truss::decompose(g);
  EXPECT_EQ(t.max_truss, 3u);
  EXPECT_EQ(t.edges_in_truss(3), 6u);
}

TEST(EdgeCases, HistogramOfEmptyProduct) {
  const Graph e = Graph::from_edges(2, {}, false);
  const kron::TriangleOracle oracle(e, e);
  const auto hist = oracle.triangle_histogram();
  ASSERT_EQ(hist.size(), 1u);
  EXPECT_EQ(hist.at(0), 4u);  // all four vertices have zero triangles
}

}  // namespace
