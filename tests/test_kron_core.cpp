// Tests for the Kronecker index maps, explicit products, implicit view and
// edge stream — §II of the paper plus the compressed representation claims.
#include <gtest/gtest.h>

#include <set>

#include "core/ops.hpp"
#include "gen/classic.hpp"
#include "gen/random.hpp"
#include "helpers.hpp"
#include "kron/index.hpp"
#include "kron/product.hpp"
#include "kron/stream.hpp"
#include "kron/view.hpp"

namespace {

using namespace kronotri;
using kron::KronIndex;

TEST(KronIndex, RoundTrip) {
  const KronIndex idx(7);
  for (vid i = 0; i < 5; ++i) {
    for (vid k = 0; k < 7; ++k) {
      const vid p = idx.compose(i, k);
      EXPECT_EQ(idx.a_of(p), i);
      EXPECT_EQ(idx.b_of(p), k);
    }
  }
}

TEST(KronIndex, CoversRangeExactlyOnce) {
  const KronIndex idx(4);
  std::set<vid> seen;
  for (vid i = 0; i < 6; ++i) {
    for (vid k = 0; k < 4; ++k) seen.insert(idx.compose(i, k));
  }
  EXPECT_EQ(seen.size(), 24u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 23u);
}

TEST(KronProduct, MatchesDefinitionEntrywise) {
  // (A⊗B)[γ(i,k), γ(j,l)] = A[i,j]·B[k,l] (Def. 1).
  const Graph a = kt_test::random_undirected(5, 0.5, 1, 0.3);
  const Graph b = kt_test::random_directed(4, 0.4, 2);
  const auto c = kron::kron_matrix<count_t>(a.matrix(), b.matrix());
  const KronIndex idx(4);
  for (vid i = 0; i < 5; ++i) {
    for (vid j = 0; j < 5; ++j) {
      for (vid k = 0; k < 4; ++k) {
        for (vid l = 0; l < 4; ++l) {
          const count_t expected =
              static_cast<count_t>(a.matrix().at(i, j)) *
              static_cast<count_t>(b.matrix().at(k, l));
          ASSERT_EQ(c.at(idx.compose(i, k), idx.compose(j, l)), expected);
        }
      }
    }
  }
}

TEST(KronProduct, VectorProduct) {
  const std::vector<count_t> a = {1, 2, 3};
  const std::vector<count_t> b = {4, 5};
  const auto c = kron::kron_vector(a, b);
  const std::vector<count_t> expected = {4, 5, 8, 10, 12, 15};
  EXPECT_EQ(c, expected);
}

TEST(KronProduct, MixedProductProperty) {
  // Prop. 1(d): (A1⊗A2)(A3⊗A4) = (A1·A3)⊗(A2·A4).
  const Graph a1 = kt_test::random_directed(4, 0.5, 10);
  const Graph a2 = kt_test::random_directed(3, 0.5, 11);
  const Graph a3 = kt_test::random_directed(4, 0.5, 12);
  const Graph a4 = kt_test::random_directed(3, 0.5, 13);
  const auto lhs = ops::spgemm(kron::kron_matrix<count_t>(a1.matrix(), a2.matrix()),
                               kron::kron_matrix<count_t>(a3.matrix(), a4.matrix()));
  const auto rhs = kron::kron_matrix<count_t>(
      ops::spgemm(a1.matrix(), a3.matrix()),
      ops::spgemm(a2.matrix(), a4.matrix()));
  EXPECT_TRUE(lhs == rhs);
}

TEST(KronProduct, HadamardKroneckerDistributivity) {
  // Prop. 2(e): (A1⊗A2) ∘ (A3⊗A4) = (A1∘A3)⊗(A2∘A4).
  const Graph a1 = kt_test::random_directed(4, 0.6, 20);
  const Graph a2 = kt_test::random_directed(3, 0.6, 21);
  const Graph a3 = kt_test::random_directed(4, 0.6, 22);
  const Graph a4 = kt_test::random_directed(3, 0.6, 23);
  const auto lhs =
      ops::hadamard(kron::kron_matrix<count_t>(a1.matrix(), a2.matrix()),
                    kron::kron_matrix<count_t>(a3.matrix(), a4.matrix()));
  const auto rhs = kron::kron_matrix<count_t>(
      ops::hadamard(a1.matrix(), a3.matrix()),
      ops::hadamard(a2.matrix(), a4.matrix()));
  EXPECT_TRUE(lhs == rhs);
}

TEST(KronProduct, DiagKroneckerDistributivity) {
  // Prop. 2(f): diag(A1⊗A2) = diag(A1)⊗diag(A2).
  const Graph a1 = kt_test::random_undirected(5, 0.5, 30, 0.5);
  const Graph a2 = kt_test::random_undirected(4, 0.5, 31, 0.5);
  const auto lhs = ops::diag_vec(kron::kron_matrix<count_t>(a1.matrix(), a2.matrix()));
  std::vector<count_t> d1(5), d2(4);
  for (vid i = 0; i < 5; ++i) d1[i] = a1.matrix().at(i, i);
  for (vid k = 0; k < 4; ++k) d2[k] = a2.matrix().at(k, k);
  EXPECT_EQ(lhs, kron::kron_vector(d1, d2));
}

TEST(KronGraph, CliqueProductStats) {
  // Ex. 1(a): C = K4 ⊗ K5 — every vertex has degree (n_A·n_B+1−n_A−n_B).
  const Graph c = kron::kron_graph(gen::clique(4), gen::clique(5));
  EXPECT_EQ(c.num_vertices(), 20u);
  EXPECT_TRUE(c.is_undirected());
  EXPECT_FALSE(c.has_self_loops());
  for (vid p = 0; p < 20; ++p) {
    EXPECT_EQ(c.nonloop_degree(p), 20u + 1 - 4 - 5);
  }
}

TEST(KronGraph, PredicatesFollowFromTheFactors) {
  // kron_graph takes C's symmetry and loop count from its factors; a
  // Graph built from the same matrix checks both itself.
  const Graph looped = kt_test::random_undirected(6, 0.5, 3, 0.5);
  const Graph directed = gen::randomly_orient(gen::clique(4), 0.3, 9);
  ASSERT_FALSE(directed.is_undirected());
  const std::vector<std::vector<Graph>> cases = {
      {gen::clique(4), gen::clique(5)},
      {looped, gen::clique_with_loops(3)},
      {looped, gen::clique(3)},
      {looped, gen::clique_with_loops(2), looped},
      {directed, gen::clique_with_loops(3)},
      {gen::clique(1), directed},
      {looped},
  };
  for (const auto& factors : cases) {
    const Graph c = kron::kron_graph(factors);
    const Graph checked(c.matrix());
    EXPECT_EQ(c.is_undirected(), checked.is_undirected());
    EXPECT_EQ(c.num_self_loops(), checked.num_self_loops());
    if (factors.size() == 2) {
      const Graph pair = kron::kron_graph(factors[0], factors[1]);
      EXPECT_EQ(pair, c);
      EXPECT_EQ(pair.is_undirected(), checked.is_undirected());
      EXPECT_EQ(pair.num_self_loops(), checked.num_self_loops());
    }
  }
}

class KronViewProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KronViewProperty, ViewAgreesWithMaterialized) {
  const Graph a = kt_test::random_undirected(6, 0.4, GetParam(), 0.3);
  const Graph b = kt_test::random_undirected(5, 0.5, GetParam() + 1, 0.3);
  const kron::KronGraphView view(a, b);
  const Graph c = view.materialize();

  EXPECT_EQ(view.num_vertices(), c.num_vertices());
  EXPECT_EQ(view.nnz(), c.nnz());
  EXPECT_EQ(view.num_self_loops(), c.num_self_loops());
  EXPECT_EQ(view.is_undirected(), c.is_undirected());
  EXPECT_EQ(view.num_undirected_edges(), c.num_undirected_edges());

  for (vid p = 0; p < c.num_vertices(); ++p) {
    EXPECT_EQ(view.out_degree(p), c.out_degree(p));
    EXPECT_EQ(view.nonloop_degree(p), c.nonloop_degree(p));
    const auto nb = view.neighbors(p);
    const auto expect = c.neighbors(p);
    ASSERT_EQ(nb.size(), expect.size());
    EXPECT_TRUE(std::equal(nb.begin(), nb.end(), expect.begin()));
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
  }
  for (vid p = 0; p < c.num_vertices(); ++p) {
    for (vid q = 0; q < c.num_vertices(); ++q) {
      ASSERT_EQ(view.has_edge(p, q), c.has_edge(p, q));
    }
  }
}

TEST_P(KronViewProperty, DirectedFactorsSupported) {
  const Graph a = kt_test::random_directed(5, 0.4, GetParam() + 500);
  const Graph b = kt_test::random_undirected(4, 0.5, GetParam() + 501);
  const kron::KronGraphView view(a, b);
  const Graph c = view.materialize();
  EXPECT_EQ(view.nnz(), c.nnz());
  EXPECT_FALSE(view.is_undirected() && !c.is_undirected());
  for (vid p = 0; p < c.num_vertices(); ++p) {
    EXPECT_EQ(view.out_degree(p), c.out_degree(p));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KronViewProperty,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(KronStream, SinglePartitionEmitsAllEdges) {
  const Graph a = kt_test::random_undirected(5, 0.5, 3);
  const Graph b = kt_test::random_undirected(4, 0.5, 4);
  const Graph c = kron::kron_graph(a, b);
  kron::EdgeStream stream(a, b);
  EXPECT_EQ(stream.partition_size(), c.nnz());
  std::set<std::pair<vid, vid>> seen;
  while (auto e = stream.next()) {
    EXPECT_TRUE(c.has_edge(e->u, e->v));
    EXPECT_TRUE(seen.emplace(e->u, e->v).second) << "duplicate edge";
  }
  EXPECT_EQ(seen.size(), c.nnz());
  EXPECT_EQ(stream.emitted(), c.nnz());
}

TEST(KronStream, PartitionsAreDisjointAndComplete) {
  const Graph a = kt_test::random_undirected(6, 0.4, 5);
  const Graph b = kt_test::random_undirected(5, 0.4, 6);
  const Graph c = kron::kron_graph(a, b);
  std::set<std::pair<vid, vid>> seen;
  esz total = 0;
  const std::uint64_t nparts = 7;
  for (std::uint64_t part = 0; part < nparts; ++part) {
    kron::EdgeStream stream(a, b, part, nparts);
    total += stream.partition_size();
    while (auto e = stream.next()) {
      EXPECT_TRUE(seen.emplace(e->u, e->v).second)
          << "edge in two partitions";
    }
  }
  EXPECT_EQ(total, c.nnz());
  EXPECT_EQ(seen.size(), c.nnz());
}

TEST(KronStream, ResetRestarts) {
  const Graph a = gen::clique(3);
  const Graph b = gen::clique(3);
  kron::EdgeStream stream(a, b);
  const auto first = stream.next();
  ASSERT_TRUE(first.has_value());
  while (stream.next()) {
  }
  stream.reset();
  const auto again = stream.next();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->u, first->u);
  EXPECT_EQ(again->v, first->v);
}

TEST(KronStream, InvalidPartitionThrows) {
  const Graph a = gen::clique(3);
  EXPECT_THROW(kron::EdgeStream(a, a, 3, 3), std::invalid_argument);
  EXPECT_THROW(kron::EdgeStream(a, a, 0, 0), std::invalid_argument);
}

}  // namespace
