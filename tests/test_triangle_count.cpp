// Tests for undirected triangle analytics: the forward kernel, the masked
// linear-algebra kernel, diag(A³), and closed-form families.
#include <gtest/gtest.h>

#include "core/ops.hpp"
#include "gen/classic.hpp"
#include "helpers.hpp"
#include "triangle/bruteforce.hpp"
#include "triangle/count.hpp"
#include "triangle/support.hpp"

namespace {

using namespace kronotri;

TEST(TriangleCount, TriangleGraph) {
  const Graph k3 = gen::clique(3);
  const auto st = triangle::analyze(k3);
  EXPECT_EQ(st.total, 1u);
  for (vid v = 0; v < 3; ++v) EXPECT_EQ(st.per_vertex[v], 1u);
  for (const count_t c : st.per_edge.values()) EXPECT_EQ(c, 1u);
}

TEST(TriangleCount, CliqueClosedForm) {
  // K_n: each vertex in C(n−1,2) triangles, each edge in n−2 (Ex. 1 preamble).
  for (vid n : {4u, 5u, 7u, 10u}) {
    const Graph k = gen::clique(n);
    const auto st = triangle::analyze(k);
    const count_t per_vertex = (n - 1) * (n - 2) / 2;
    EXPECT_EQ(st.total, n * (n - 1) * (n - 2) / 6) << "n=" << n;
    for (vid v = 0; v < n; ++v) {
      EXPECT_EQ(st.per_vertex[v], per_vertex) << "n=" << n;
    }
    for (const count_t c : st.per_edge.values()) {
      EXPECT_EQ(c, n - 2) << "n=" << n;
    }
  }
}

TEST(TriangleCount, TriangleFreeFamilies) {
  EXPECT_EQ(triangle::count_total(gen::cycle(8)), 0u);
  EXPECT_EQ(triangle::count_total(gen::path(10)), 0u);
  EXPECT_EQ(triangle::count_total(gen::star(9)), 0u);
  EXPECT_EQ(triangle::count_total(gen::complete_bipartite(4, 5)), 0u);
}

TEST(TriangleCount, HubCycleFromPaper) {
  // Ex. 2: 5 vertices, 8 edges, 4 triangles; hub edges close 2, cycle edges 1.
  const Graph a = gen::hub_cycle();
  const auto st = triangle::analyze(a);
  EXPECT_EQ(a.num_undirected_edges(), 8u);
  EXPECT_EQ(st.total, 4u);
  // Hub participates in all 4 triangles; cycle vertices in 2 each.
  EXPECT_EQ(st.per_vertex[0], 4u);
  for (vid v = 1; v < 5; ++v) EXPECT_EQ(st.per_vertex[v], 2u);
  int ones = 0, twos = 0;
  for (vid u = 0; u < 5; ++u) {
    for (const vid v : a.neighbors(u)) {
      if (u < v) {
        const count_t c = st.per_edge.at(u, v);
        if (c == 1) ++ones;
        if (c == 2) ++twos;
      }
    }
  }
  EXPECT_EQ(ones, 4);  // cycle edges
  EXPECT_EQ(twos, 4);  // hub edges
}

TEST(TriangleCount, SelfLoopsAreIgnored) {
  const Graph k4 = gen::clique(4);
  const Graph j4 = k4.with_all_self_loops();
  EXPECT_EQ(triangle::count_total(j4), triangle::count_total(k4));
  const auto tk = triangle::participation_vertices(k4);
  const auto tj = triangle::participation_vertices(j4);
  EXPECT_EQ(tk, tj);
}

TEST(TriangleCount, DirectedInputThrows) {
  const Graph d = Graph::from_edges(3, {{{0, 1}, {1, 2}}}, false);
  EXPECT_THROW(triangle::analyze(d), std::invalid_argument);
  EXPECT_THROW(triangle::count_total(d), std::invalid_argument);
  EXPECT_THROW(triangle::edge_support_masked(d), std::invalid_argument);
  EXPECT_THROW(triangle::diag_cube(d), std::invalid_argument);
}

TEST(TriangleCount, WedgeChecksArePositiveOnDenseGraphs) {
  const auto st = triangle::analyze(gen::clique(10));
  EXPECT_GT(st.wedge_checks, 0u);
}

TEST(TriangleCount, VertexFromEdgeSupportIdentity) {
  // t_A = ½·Δ_A·1 (Def. 6 remark).
  const Graph g = kt_test::random_undirected(30, 0.2, 5);
  const auto delta = triangle::edge_support_masked(g);
  const auto t1 = triangle::vertex_from_edge_support(delta);
  const auto t2 = triangle::participation_vertices(g);
  EXPECT_EQ(t1, t2);
}

TEST(TriangleCount, DiagCubeEqualsTwiceTrianglesWhenLoopFree) {
  const Graph g = kt_test::random_undirected(25, 0.25, 6);
  const auto d3 = triangle::diag_cube(g);
  const auto t = triangle::participation_vertices(g);
  for (vid v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(d3[v], 2 * t[v]);
  }
}

class TriangleProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TriangleProperty, AnalyzeMatchesBruteForce) {
  const Graph g = kt_test::random_undirected(24, 0.25, GetParam());
  const auto st = triangle::analyze(g);
  EXPECT_EQ(st.per_vertex, triangle::brute::vertex_participation(g));
  EXPECT_EQ(st.total, triangle::brute::total(g));
  kt_test::expect_matrix_eq(st.per_edge, triangle::brute::edge_participation(g),
                            "per-edge");
}

TEST_P(TriangleProperty, MaskedKernelMatchesForwardKernel) {
  const Graph g = kt_test::random_undirected(30, 0.2, GetParam() + 100);
  const auto st = triangle::analyze(g);
  EXPECT_TRUE(st.per_edge == triangle::edge_support_masked(g));
}

TEST_P(TriangleProperty, LoopsNeverChangeTriangleStats) {
  const Graph g = kt_test::random_undirected(20, 0.3, GetParam(), 0.4);
  const Graph s = g.without_self_loops();
  EXPECT_EQ(triangle::participation_vertices(g),
            triangle::participation_vertices(s));
  EXPECT_TRUE(triangle::edge_support_masked(g) ==
              triangle::edge_support_masked(s));
}

TEST_P(TriangleProperty, TotalIsOneThirdOfVertexSum) {
  const Graph g = kt_test::random_undirected(28, 0.22, GetParam() + 200);
  const auto t = triangle::participation_vertices(g);
  count_t sum = 0;
  for (const count_t v : t) sum += v;
  EXPECT_EQ(sum % 3, 0u);
  EXPECT_EQ(triangle::count_total(g), sum / 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TriangleProperty,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
