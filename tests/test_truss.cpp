// Truss decomposition tests: closed-form families, the paper's Ex. 2
// numbers, and a property sweep against a naive reference implementation of
// the paper's own "simple (yet inefficient) algorithm".
#include <gtest/gtest.h>

#include "core/ops.hpp"
#include "gen/classic.hpp"
#include "gen/one_triangle_pa.hpp"
#include "gen/random.hpp"
#include "helpers.hpp"
#include "kron/oracle.hpp"
#include "kron/product.hpp"
#include "obs/counters.hpp"
#include "triangle/census.hpp"
#include "triangle/support.hpp"
#include "truss/decompose.hpp"

namespace {

using namespace kronotri;

/// The paper's §III.D algorithm, literally: for κ = 3, 4, …, repeatedly
/// recompute Δ and remove edges with fewer than κ−2 triangles; what remains
/// before each increment is T^{(κ)}. Returns per-edge truss numbers.
CountCsr naive_truss(const Graph& g) {
  BoolCsr current =
      g.has_self_loops() ? ops::remove_diag(g.matrix()) : g.matrix();
  // truss number defaults to 2 (edges dropped before T^{(3)} stabilizes).
  CountCsr result = CountCsr::from_parts(
      current.rows(), current.cols(), current.row_ptr(), current.col_idx(),
      std::vector<count_t>(current.nnz(), 2));

  for (count_t kappa = 3;; ++kappa) {
    // Peel to the κ-truss.
    bool removed = true;
    while (removed) {
      removed = false;
      const Graph cg{Graph(current)};
      if (current.nnz() == 0) break;
      const CountCsr delta = triangle::edge_support_masked(cg);
      Coo<std::uint8_t> keep(current.rows(), current.cols());
      for (vid u = 0; u < current.rows(); ++u) {
        const auto row = current.row_cols(u);
        for (std::size_t k = 0; k < row.size(); ++k) {
          if (delta.values()[current.row_ptr()[u] + k] >= kappa - 2) {
            keep.add(u, row[k], 1);
          } else {
            removed = true;
          }
        }
      }
      current = BoolCsr::from_coo(keep, DupPolicy::kKeep);
    }
    if (current.nnz() == 0) break;
    // Everything remaining is in the κ-truss.
    for (vid u = 0; u < current.rows(); ++u) {
      for (const vid v : current.row_cols(u)) {
        result.values_mut()[result.find(u, v)] = kappa;
      }
    }
  }
  return result;
}

TEST(Truss, CliqueIsMaximalTruss) {
  for (vid n : {3u, 4u, 6u}) {
    const auto t = truss::decompose(gen::clique(n));
    EXPECT_EQ(t.max_truss, n) << "K_" << n;
    for (const count_t v : t.truss_number.values()) EXPECT_EQ(v, n);
    EXPECT_EQ(t.edges_in_truss(n), n * (n - 1) / 2);
    EXPECT_EQ(t.edges_in_truss(n + 1), 0u);
  }
}

TEST(Truss, TriangleFreeGraphsAreTwoTruss) {
  for (const Graph& g : {gen::cycle(6), gen::star(7), gen::path(5),
                         gen::complete_bipartite(3, 4)}) {
    const auto t = truss::decompose(g);
    EXPECT_EQ(t.max_truss, 2u);
    for (const count_t v : t.truss_number.values()) EXPECT_EQ(v, 2u);
  }
}

TEST(Truss, HubCycleIsThreeTruss) {
  // Ex. 2 preamble: all edges of A are in the 3-truss, none in the 4-truss.
  const auto t = truss::decompose(gen::hub_cycle());
  EXPECT_EQ(t.max_truss, 3u);
  EXPECT_EQ(t.edges_in_truss(3), 8u);
  EXPECT_EQ(t.edges_in_truss(4), 0u);
}

TEST(Truss, Ex2ProductNumbersFromPaper) {
  // Ex. 2: C = A ⊗ A has 25 vertices, 128 edges, 96 triangles; Δ histogram
  // 32/64/32 at 1/2/4; |T^{(3)}| = 128, |T^{(4)}| = 80, |T^{(5)}| = 0.
  const Graph a = gen::hub_cycle();
  const Graph c = kron::kron_graph(a, a);
  EXPECT_EQ(c.num_vertices(), 25u);
  EXPECT_EQ(c.num_undirected_edges(), 128u);

  const auto delta = triangle::edge_support_masked(c);
  std::map<count_t, count_t> hist;
  for (const count_t v : delta.values()) ++hist[v];
  EXPECT_EQ(hist[1] / 2, 32u);
  EXPECT_EQ(hist[2] / 2, 64u);
  EXPECT_EQ(hist[4] / 2, 32u);

  const auto t = truss::decompose(c);
  EXPECT_EQ(t.edges_in_truss(3), 128u);
  EXPECT_EQ(t.edges_in_truss(4), 80u);
  EXPECT_EQ(t.edges_in_truss(5), 0u);
  EXPECT_EQ(t.max_truss, 4u);
}

TEST(Truss, DirectedInputThrows) {
  const Graph d = Graph::from_edges(3, {{{0, 1}, {1, 2}}}, false);
  EXPECT_THROW(truss::decompose(d), std::invalid_argument);
}

TEST(Truss, SelfLoopsIgnored) {
  const Graph k4 = gen::clique(4);
  const auto plain = truss::decompose(k4);
  const auto looped = truss::decompose(k4.with_all_self_loops());
  EXPECT_TRUE(plain.truss_number == looped.truss_number);
}

TEST(Truss, EmptyGraph) {
  const Graph g = Graph::from_edges(4, {}, false);
  const auto t = truss::decompose(g);
  EXPECT_EQ(t.max_truss, 2u);
  EXPECT_EQ(t.edges_in_truss(3), 0u);
}

TEST(Truss, AtMostOneTrianglePredicate) {
  EXPECT_TRUE(truss::edges_in_at_most_one_triangle(gen::cycle(5)));
  EXPECT_TRUE(truss::edges_in_at_most_one_triangle(gen::clique(3)));
  EXPECT_FALSE(truss::edges_in_at_most_one_triangle(gen::clique(4)));
  EXPECT_FALSE(truss::edges_in_at_most_one_triangle(gen::hub_cycle()));
}

class TrussProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrussProperty, MatchesNaiveAlgorithm) {
  const Graph g = kt_test::random_undirected(18, 0.3, GetParam());
  const auto fast = truss::decompose(g);
  const auto slow = naive_truss(g);
  kt_test::expect_matrix_eq(fast.truss_number, slow, "truss numbers");
}

TEST_P(TrussProperty, DenserGraphsMatchToo) {
  const Graph g = kt_test::random_undirected(14, 0.5, GetParam() + 500);
  const auto fast = truss::decompose(g);
  const auto slow = naive_truss(g);
  kt_test::expect_matrix_eq(fast.truss_number, slow, "truss numbers");
}

TEST_P(TrussProperty, TrussNumberIsSymmetric) {
  const Graph g = kt_test::random_undirected(16, 0.35, GetParam() + 900);
  const auto t = truss::decompose(g);
  EXPECT_TRUE(ops::is_symmetric(t.truss_number));
}

TEST_P(TrussProperty, PeelFromWorkspaceMatchesDecomposeAndSerial) {
  for (const double loop_p : {0.0, 0.3}) {
    const Graph g =
        kt_test::random_undirected(40, 0.3, GetParam() + 1300, loop_p);
    const triangle::CensusWorkspace ws(g);
    const std::vector<count_t> truss_of =
        truss::peel(ws.edge_index(), ws.edge_census());
    const auto par = truss::decompose(g);
    const auto ser = truss::decompose_serial(g);
    const std::vector<esz>& slot_id = ws.edge_ids().slot_id;
    ASSERT_EQ(truss_of.size(), ws.num_edges());
    ASSERT_EQ(par.truss_number.nnz(), slot_id.size());
    ASSERT_EQ(ser.truss_number.nnz(), slot_id.size());
    for (esz k = 0; k < slot_id.size(); ++k) {
      EXPECT_EQ(truss_of[slot_id[k]], par.truss_number.values()[k]) << k;
      EXPECT_EQ(truss_of[slot_id[k]], ser.truss_number.values()[k]) << k;
    }

    // The analysis's |T^κ| rows: one histogram pass over the numbers.
    const std::vector<count_t> sizes = truss::truss_sizes(truss_of);
    ASSERT_EQ(sizes.size(), par.max_truss + 1);
    for (count_t k = 0; k <= par.max_truss + 1; ++k) {
      EXPECT_EQ(k < sizes.size() ? sizes[k] : 0, par.edges_in_truss(k))
          << "kappa " << k;
    }
  }
}

TEST(Truss, PeelOfAnEdgelessGraph) {
  const triangle::CensusWorkspace ws(gen::clique(1));
  const std::vector<count_t> truss_of =
      truss::peel(ws.edge_index(), ws.edge_census());
  EXPECT_TRUE(truss_of.empty());
  EXPECT_EQ(truss::truss_sizes(truss_of), std::vector<count_t>(3, 0));
}

TEST(Truss, PeelRejectsAVertexOnlyWorkspace) {
  const triangle::CensusWorkspace ws(
      gen::clique(4), triangle::CensusWorkspace::Detail::kVertexOnly);
  EXPECT_THROW((void)truss::peel(ws.edge_index(), {}),
               std::invalid_argument);
}

/// `g` with a self loop added at vertex 0.
Graph looped_at_zero(const Graph& g) {
  std::vector<std::pair<vid, vid>> edges = {{0, 0}};
  for (vid u = 0; u < g.num_vertices(); ++u) {
    for (const vid v : g.neighbors(u)) edges.emplace_back(u, v);
  }
  return Graph::from_edges(g.num_vertices(), edges, /*symmetrize=*/true);
}

TEST(Truss, ProductPeelMatchesTheMaterializedPeel) {
  // Loops at random vertices, and at vertex 0 of every looped factor, so
  // the product has vertices looped in every factor (rows with a hole)
  // beside vertices looped in some.
  const Graph a = kt_test::random_undirected(14, 0.35, 71);
  const Graph la = looped_at_zero(kt_test::random_undirected(14, 0.35, 72, 0.4));
  const Graph b = gen::clique(4);
  const Graph lb = looped_at_zero(kt_test::random_undirected(6, 0.6, 73, 0.5));
  const Graph lc = gen::cycle(4).with_all_self_loops();
  const std::vector<std::pair<const char*, std::vector<Graph>>> products = {
      {"A x B", {a, b}},
      {"A(loops) x B", {la, b}},
      {"A x B(loops)", {a, lb}},
      {"A(loops) x B(loops)", {la, lb}},
      {"A x K3 x C4(loops)", {a, gen::clique(3), lc}},
      {"A(loops) x B(loops) x C4(loops)", {la, lb, lc}},
      {"hubcycle x hubcycle", {gen::hub_cycle(), gen::hub_cycle()}},
      {"er x onetri", {gen::erdos_renyi(24, 0.35, 17),
                       gen::one_triangle_pa(40, 18)}},
  };
  obs::Counter& lookups = obs::counter("truss.peel_lookups");
  obs::Counter& sub_rounds = obs::counter("truss.peel_sub_rounds");
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  for (const int omp_threads : {1, 2, 8}) {
    omp_set_num_threads(omp_threads);
#else
  {
    const int omp_threads = 1;
#endif
    for (const auto& [name, factors] : products) {
      SCOPED_TRACE(std::string(name) + " at OMP " +
                   std::to_string(omp_threads));
      const kron::TriangleOracle oracle(factors);
      const count_t l0 = lookups.value(), r0 = sub_rounds.value();
      const std::vector<count_t> truss_of = truss::peel(oracle);
      const count_t product_lookups = lookups.value() - l0;
      const count_t product_rounds = sub_rounds.value() - r0;

      const Graph c = kron::kron_graph(factors);
      const count_t r1 = sub_rounds.value();
      (void)truss::decompose(c);
      const count_t explicit_rounds = sub_rounds.value() - r1;
      const auto ser = truss::decompose_serial(c);
      const triangle::CensusWorkspace ws(c);
      const std::vector<esz>& slot_id = ws.edge_ids().slot_id;
      ASSERT_EQ(truss_of.size(), ws.num_edges());
      ASSERT_EQ(ser.truss_number.nnz(), slot_id.size());
      for (esz k = 0; k < slot_id.size(); ++k) {
        ASSERT_EQ(truss_of[slot_id[k]], ser.truss_number.values()[k])
            << "slot " << k << " edge " << ws.edge_ids().ends[slot_id[k]].first
            << "-" << ws.edge_ids().ends[slot_id[k]].second;
      }
      EXPECT_EQ(product_rounds, explicit_rounds);
      EXPECT_EQ(product_lookups, 3 * oracle.total_triangles());
      EXPECT_GT(oracle.total_triangles(), 0u);
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrussProperty,
                         ::testing::Range<std::uint64_t>(0, 10));

}  // namespace
