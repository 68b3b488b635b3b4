// Tests for §III.D strategy (a): pruning a graph to Δ ≤ 1 while keeping a
// spanning tree (connectivity) intact.
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "analysis/components.hpp"
#include "gen/classic.hpp"
#include "gen/prune.hpp"
#include "gen/random.hpp"
#include "helpers.hpp"
#include "kron/product.hpp"
#include "truss/decompose.hpp"
#include "truss/kron_truss.hpp"

namespace {

using namespace kronotri;

TEST(Prune, AlreadyCompliantGraphsUnchanged) {
  for (const Graph& g : {gen::cycle(7), gen::path(5), gen::clique(3),
                         gen::star(6)}) {
    const Graph pruned = gen::prune_to_one_triangle(g);
    EXPECT_TRUE(pruned == g);
  }
}

TEST(Prune, CliqueBecomesCompliant) {
  const Graph pruned = gen::prune_to_one_triangle(gen::clique(8));
  EXPECT_TRUE(truss::edges_in_at_most_one_triangle(pruned));
  EXPECT_TRUE(analysis::is_connected(pruned));
  EXPECT_EQ(pruned.num_vertices(), 8u);
}

TEST(Prune, HubCycle) {
  const Graph pruned = gen::prune_to_one_triangle(gen::hub_cycle());
  EXPECT_TRUE(truss::edges_in_at_most_one_triangle(pruned));
  EXPECT_TRUE(analysis::is_connected(pruned));
}

TEST(Prune, DirectedInputThrows) {
  const Graph d = Graph::from_edges(3, {{{0, 1}, {1, 2}}}, false);
  EXPECT_THROW(gen::prune_to_one_triangle(d), std::invalid_argument);
}

TEST(Prune, SelfLoopsDropped) {
  const Graph g = gen::clique(4).with_all_self_loops();
  const Graph pruned = gen::prune_to_one_triangle(g);
  EXPECT_FALSE(pruned.has_self_loops());
  EXPECT_TRUE(truss::edges_in_at_most_one_triangle(pruned));
}

class PruneSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PruneSweep, InvariantsOnRandomGraphs) {
  const Graph g = kt_test::random_undirected(40, 0.2, GetParam());
  const Graph pruned = gen::prune_to_one_triangle(g, GetParam());

  // Δ ≤ 1 achieved.
  EXPECT_TRUE(truss::edges_in_at_most_one_triangle(pruned));
  // Subgraph of the input.
  for (vid u = 0; u < pruned.num_vertices(); ++u) {
    for (const vid v : pruned.neighbors(u)) {
      EXPECT_TRUE(g.has_edge(u, v));
    }
  }
  // Component structure preserved (spanning forest protected).
  EXPECT_EQ(analysis::connected_components(pruned).count,
            analysis::connected_components(g).count);
}

TEST_P(PruneSweep, ScaleFreeInputStaysHeavyTailedEnoughForThm3) {
  // The paper's workflow: take a "real-world" graph, prune, use as B.
  const Graph real = gen::holme_kim(300, 3, 0.7, GetParam() + 10);
  const Graph b = gen::prune_to_one_triangle(real, GetParam());
  EXPECT_TRUE(truss::edges_in_at_most_one_triangle(b));
  EXPECT_TRUE(analysis::is_connected(b));
  // And it actually works as a Thm 3 right factor.
  const Graph a = kt_test::random_undirected(6, 0.5, GetParam() + 20);
  const truss::KronTrussOracle oracle(a, b);
  EXPECT_GE(oracle.max_truss(), 2u);
}

TEST_P(PruneSweep, DeterministicInSeed) {
  const Graph g = kt_test::random_undirected(30, 0.25, GetParam() + 30);
  EXPECT_TRUE(gen::prune_to_one_triangle(g, 5) ==
              gen::prune_to_one_triangle(g, 5));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PruneSweep,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(Prune, Thm3EndToEndWithPrunedB) {
  const Graph a = kt_test::random_undirected(5, 0.6, 3);
  const Graph b = gen::prune_to_one_triangle(gen::holme_kim(12, 2, 0.8, 4), 5);
  const truss::KronTrussOracle oracle(a, b);
  const Graph c = kron::kron_graph(a, b);
  const auto direct = truss::decompose(c);
  for (vid p = 0; p < c.num_vertices(); ++p) {
    for (const vid q : c.neighbors(p)) {
      EXPECT_EQ(oracle.truss_number(p, q), direct.truss_number.at(p, q));
    }
  }
}

/// FNV-1a over the (u < v) edge list in row order.
std::uint64_t edge_fingerprint(const Graph& g) {
  std::uint64_t h = 1469598103934665603ull;
  for (vid u = 0; u < g.num_vertices(); ++u) {
    for (const vid v : g.neighbors(u)) {
      if (v < u) continue;
      h = (h ^ (static_cast<std::uint64_t>(u) << 32 | v)) * 1099511628211ull;
    }
  }
  return h;
}

TEST(Prune, SameGraphAtEveryTeamSize) {
  // 3000 vertices span ~47 dynamic,64 enumeration chunks, so teams of 2+
  // interleave them; tie-breaks consume the RNG in triangle order, so any
  // team-dependent order changes the pruned graph.
  const Graph g = gen::holme_kim(3000, 4, 0.8, 7);
  std::vector<Graph> pruned;
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  for (const int t : {1, 2, 4, 8}) {
    omp_set_num_threads(t);
    pruned.push_back(gen::prune_to_one_triangle(g, 5));
  }
  omp_set_num_threads(saved);
#else
  pruned.push_back(gen::prune_to_one_triangle(g, 5));
#endif
  for (std::size_t i = 1; i < pruned.size(); ++i) {
    EXPECT_TRUE(pruned[i] == pruned[0]) << "team index " << i;
  }
  // The serial enumeration order: the graph the single-threaded prune has
  // always produced for this input.
  EXPECT_EQ(pruned[0].num_undirected_edges(), 9834u);
  EXPECT_EQ(edge_fingerprint(pruned[0]), 0x9a6a2354b1299fb2ull);
  EXPECT_TRUE(truss::edges_in_at_most_one_triangle(pruned[0]));
}

}  // namespace
