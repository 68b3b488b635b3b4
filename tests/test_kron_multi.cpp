// Multi-factor Kronecker products: the k-factor §III expansion held by
// kron::TriangleOracle, validated against materialized products for every
// self-loop configuration.
#include <gtest/gtest.h>

#include "gen/classic.hpp"
#include "helpers.hpp"
#include "kron/formulas.hpp"
#include "kron/oracle.hpp"
#include "kron/product.hpp"
#include "triangle/count.hpp"
#include "triangle/support.hpp"

namespace {

using namespace kronotri;
using kron::TriangleOracle;

/// Every t, Δ, degree and total of `oracle` against brute force on its
/// materialized product; edge_triangles() must be nullopt exactly off the
/// product's pattern.
void expect_matches_materialized(const TriangleOracle& oracle) {
  const Graph m = kron::kron_graph(oracle.factors());
  ASSERT_EQ(oracle.num_vertices(), m.num_vertices());
  EXPECT_EQ(oracle.num_undirected_edges(), m.num_undirected_edges());
  const auto t = triangle::participation_vertices(m);
  for (vid p = 0; p < m.num_vertices(); ++p) {
    EXPECT_EQ(oracle.vertex_triangles(p), t[p]) << "p=" << p;
    EXPECT_EQ(oracle.degree(p), m.nonloop_degree(p)) << "p=" << p;
  }
  const auto delta = triangle::edge_support_masked(m);
  for (vid p = 0; p < m.num_vertices(); ++p) {
    for (vid q = 0; q < m.num_vertices(); ++q) {
      const std::optional<count_t> d = oracle.edge_triangles(p, q);
      ASSERT_EQ(d.has_value(), m.has_edge(p, q)) << p << "," << q;
      if (d && p != q) {
        EXPECT_EQ(*d, delta.at(p, q)) << p << "," << q;
      }
    }
  }
  EXPECT_EQ(oracle.total_triangles(), triangle::count_total(m));
}

TEST(KronChain, RejectsEmptyAndDirected) {
  EXPECT_THROW(TriangleOracle(std::vector<Graph>{}), std::invalid_argument);
  const Graph d = Graph::from_edges(3, {{{0, 1}, {1, 2}}}, false);
  EXPECT_THROW(TriangleOracle(gen::clique(3), d), std::invalid_argument);
}

TEST(KronChain, SingleFactorIsIdentityOperation) {
  for (const double loops : {0.0, 0.5}) {
    const Graph g = kt_test::random_undirected(10, 0.3, 1, loops);
    const TriangleOracle oracle({g});
    EXPECT_TRUE(kron::kron_graph(oracle.factors()) == g);
    const auto t = triangle::participation_vertices(g);
    for (vid p = 0; p < g.num_vertices(); ++p) {
      EXPECT_EQ(oracle.vertex_triangles(p), t[p]);
    }
    EXPECT_EQ(oracle.total_triangles(), triangle::count_total(g));
    expect_matches_materialized(oracle);
  }
}

TEST(KronChain, TwoFactorsMatchTheMaterializedProduct) {
  const Graph a = kt_test::random_undirected(6, 0.45, 2);
  const Graph b = kt_test::random_undirected(5, 0.5, 3, 0.4);  // loops in B
  expect_matches_materialized(TriangleOracle(a, b));
  expect_matches_materialized(TriangleOracle(b, a));
  expect_matches_materialized(TriangleOracle(b, b));
}

class KronChainSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KronChainSweep, ThreeFactorsMatchMaterialized) {
  const std::uint64_t seed = GetParam();
  const Graph a = kt_test::random_undirected(4, 0.5, seed);
  const Graph b = kt_test::random_undirected(3, 0.6, seed + 1, 0.5);
  const Graph c = kt_test::random_undirected(4, 0.5, seed + 2);
  expect_matches_materialized(TriangleOracle({a, b, c}));
}

TEST_P(KronChainSweep, LoopsInEveryFactorMatchMaterialized) {
  // The four-term §III.B / five-term §III.C expansions at k = 2, 3, 4.
  const std::uint64_t seed = GetParam();
  std::vector<Graph> factors;
  for (std::size_t k = 0; k < 4; ++k) {
    factors.push_back(
        kt_test::random_undirected(k == 0 ? 4 : 3, 0.6, seed + 10 * k, 0.6)
            .with_all_self_loops());
    if (k == 0) continue;
    const TriangleOracle oracle(factors);
    EXPECT_EQ(oracle.vertex_expr().num_terms(), 4u);
    expect_matches_materialized(oracle);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KronChainSweep,
                         ::testing::Range<std::uint64_t>(0, 10));

TEST(KronChain, PowerProductOfCliques) {
  // K₃^{⊗3}: τ = 6²·τ(K₃)³ = 36, every vertex in ½·2³ = 4 triangles.
  const TriangleOracle oracle(
      {gen::clique(3), gen::clique(3), gen::clique(3)});
  EXPECT_EQ(oracle.num_vertices(), 27u);
  EXPECT_EQ(oracle.total_triangles(), 36u);
  for (vid p = 0; p < 27; ++p) {
    EXPECT_EQ(oracle.vertex_triangles(p), 4u);
  }
  EXPECT_EQ(oracle.triangle_histogram(),
            (std::map<count_t, count_t>{{4, 27}}));
  const Graph m = kron::kron_graph(oracle.factors());
  EXPECT_EQ(triangle::count_total(m), 36u);
}

TEST(KronChain, SelfLoopBoostingAcrossChain) {
  // τ grows with each J factor, up to loops in every factor.
  const Graph k = gen::clique(3);
  const Graph j = gen::clique_with_loops(3);
  const count_t plain = TriangleOracle({k, k, k}).total_triangles();
  const count_t one_j = TriangleOracle({k, k, j}).total_triangles();
  const count_t two_j = TriangleOracle({k, j, j}).total_triangles();
  const count_t all_j = TriangleOracle({j, j, j}).total_triangles();
  EXPECT_LT(plain, one_j);
  EXPECT_LT(one_j, two_j);
  EXPECT_LT(two_j, all_j);
  expect_matches_materialized(TriangleOracle({k, j, j}));
}

TEST(KronChain, AllLoopedFactorsGiveTheCompleteGraphsCounts) {
  // J₃ ⊗ J₃ is K₉ plus a loop at every vertex: C(9, 3) = 84 triangles,
  // each vertex in C(8, 2) = 28 and each edge in 7. Four terms, so no
  // closed-form histogram.
  const Graph j = gen::clique_with_loops(3);
  const TriangleOracle oracle(j, j);
  EXPECT_EQ(oracle.num_vertices(), 9u);
  EXPECT_EQ(oracle.total_triangles(), 84u);
  for (vid p = 0; p < 9; ++p) {
    EXPECT_EQ(oracle.vertex_triangles(p), 28u);
    EXPECT_EQ(oracle.degree(p), 8u);
    EXPECT_EQ(oracle.edge_triangles(p, (p + 1) % 9), 7u);
  }
  EXPECT_EQ(oracle.vertex_expr().num_terms(), 4u);
  EXPECT_THROW((void)oracle.triangle_histogram(), std::logic_error);
  expect_matches_materialized(oracle);
}

TEST(KronChain, NonEdgeQueryIsNullopt) {
  const TriangleOracle oracle(gen::clique(3), gen::clique(3));
  EXPECT_FALSE(oracle.edge_triangles(0, 0).has_value());
  EXPECT_FALSE(oracle.edge_triangles(0, 1).has_value());  // same A-row
  EXPECT_EQ(oracle.edge_triangles(0, 4), 1u);
}

TEST(KronChain, FourFactorChainTotals) {
  const Graph k3 = gen::clique(3);
  const TriangleOracle oracle({k3, k3, k3, k3});
  // τ(K₃^{⊗4}) = 6³·1 = 216; n = 81; every vertex: ½·2⁴ = 8.
  EXPECT_EQ(oracle.num_vertices(), 81u);
  EXPECT_EQ(oracle.total_triangles(), 216u);
  EXPECT_EQ(oracle.vertex_triangles(80), 8u);
  // Loop-free factors keep divisor 1 and one term.
  EXPECT_EQ(oracle.vertex_expr().num_terms(), 1u);
}

TEST(KronChain, CopiesAndMovesKeepTheirOwnFactors) {
  TriangleOracle moved(
      std::vector<Graph>{gen::clique(4), gen::clique_with_loops(3)});
  const TriangleOracle copy = moved;
  const TriangleOracle taken = std::move(moved);
  EXPECT_NE(&copy.factors()[0], &taken.factors()[0]);
  EXPECT_EQ(&copy.edge_expr().factor(0), &copy.factors()[0]);
  EXPECT_EQ(&taken.edge_expr().factor(1), &taken.factors()[1]);
  expect_matches_materialized(copy);
  expect_matches_materialized(taken);
}

}  // namespace
