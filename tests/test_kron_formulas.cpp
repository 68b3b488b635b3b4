// The paper's central results, validated end-to-end: for small random and
// structured factors, materialize C = A ⊗ B, count triangles directly on C,
// and compare against the closed Kronecker formulas (Thm 1, Cor 1, both-loop
// general case; Thm 2, Cor 2, general case; §III.A degrees; Ex. 1(a)–(c)).
#include <gtest/gtest.h>

#include <optional>
#include <tuple>

#include "core/coo.hpp"
#include "gen/classic.hpp"
#include "helpers.hpp"
#include "kron/formulas.hpp"
#include "kron/oracle.hpp"
#include "kron/product.hpp"
#include "triangle/count.hpp"
#include "triangle/support.hpp"

namespace {

using namespace kronotri;

// ---------------------------------------------------------------------------
// Ex. 1 closed forms
// ---------------------------------------------------------------------------

TEST(Ex1, CliqueTimesCliqueNoLoops) {
  // Ex. 1(a): C = K_nA ⊗ K_nB.
  const vid na = 4, nb = 5;
  const Graph a = gen::clique(na), b = gen::clique(nb);
  const Graph c = kron::kron_graph(a, b);
  const count_t deg = na * nb + 1 - na - nb;
  const count_t tri_v = deg * (na * nb + 4 - 2 * na - 2 * nb) / 2;
  const count_t tri_e = na * nb + 4 - 2 * na - 2 * nb;

  const auto tc = kron::vertex_triangles({&a, &b});
  const auto dc = kron::edge_triangles({&a, &b});
  const auto direct = triangle::analyze(c);
  for (vid p = 0; p < c.num_vertices(); ++p) {
    EXPECT_EQ(c.nonloop_degree(p), deg);
    EXPECT_EQ(tc.at(p), tri_v);
    EXPECT_EQ(direct.per_vertex[p], tri_v);
  }
  const CountCsr dc_exp = dc.expand();
  for (const count_t v : dc_exp.values()) EXPECT_EQ(v, tri_e);
  for (const count_t v : direct.per_edge.values()) EXPECT_EQ(v, tri_e);
}

TEST(Ex1, CliqueTimesLoopedClique) {
  // Ex. 1(b): C = K_nA ⊗ J_nB — t = ½(n_A·n_B − n_B)(n_A·n_B − 2n_B);
  // Δ = n_A·n_B − 2n_B. Every vertex has degree (n_A−1)·n_B = n − n_B.
  // (The paper's prose says "n_A·n_B − n_A", but its own triangle formula
  // ½(n−n_B)(n−2n_B) = ½·d·(d−n_B) is consistent only with d = n − n_B;
  // the A/B subscripts are swapped there — a typo we verify against the
  // materialized product below.)
  const vid na = 4, nb = 3;
  const Graph a = gen::clique(na);
  const Graph b = gen::clique_with_loops(nb);
  const Graph c = kron::kron_graph(a, b);
  const count_t n = na * nb;
  const count_t tri_v = (n - nb) * (n - 2 * nb) / 2;
  const count_t tri_e = n - 2 * nb;

  const auto tc = kron::vertex_triangles({&a, &b});
  const auto dc = kron::edge_triangles({&a, &b});
  const auto direct = triangle::analyze(c);
  EXPECT_FALSE(c.has_self_loops());  // A loop-free kills all product loops
  for (vid p = 0; p < c.num_vertices(); ++p) {
    EXPECT_EQ(c.nonloop_degree(p), n - nb);
    EXPECT_EQ(tc.at(p), tri_v);
    EXPECT_EQ(direct.per_vertex[p], tri_v);
  }
  const CountCsr dc_exp = dc.expand();
  for (const count_t v : dc_exp.values()) EXPECT_EQ(v, tri_e);
}

TEST(Ex1, LoopedTimesLoopedIsClique) {
  // Ex. 1(c): J_nA ⊗ J_nB − I = K_{nA·nB}: degree n−1, t = C(n−1,2),
  // Δ = n−2 — maximum possible triangles.
  const vid na = 3, nb = 4;
  const Graph a = gen::clique_with_loops(na);
  const Graph b = gen::clique_with_loops(nb);
  const Graph c = kron::kron_graph(a, b);
  const count_t n = na * nb;
  EXPECT_TRUE(c.without_self_loops() == gen::clique(n));

  const auto tc = kron::vertex_triangles({&a, &b});
  const auto dc = kron::edge_triangles({&a, &b});
  for (vid p = 0; p < n; ++p) {
    EXPECT_EQ(tc.at(p), (n - 1) * (n - 2) / 2);
  }
  const auto expanded = dc.expand();
  for (vid p = 0; p < n; ++p) {
    for (vid q = 0; q < n; ++q) {
      if (p == q) {
        EXPECT_EQ(expanded.at(p, q), 0u) << "diagonal must carry no triangles";
      } else {
        EXPECT_EQ(expanded.at(p, q), n - 2);
      }
    }
  }
  EXPECT_EQ(kron::TriangleOracle(a, b).total_triangles(),
            n * (n - 1) * (n - 2) / 6);
}

// ---------------------------------------------------------------------------
// Theorem sweeps over random factors in all four loop regimes
// ---------------------------------------------------------------------------

struct LoopConfig {
  double loop_a;
  double loop_b;
};

class KronFormulaSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {
 protected:
  static LoopConfig config(int regime) {
    switch (regime) {
      case 0: return {0.0, 0.0};   // Thm 1 / Thm 2
      case 1: return {0.0, 0.5};   // Cor 1 / Cor 2
      case 2: return {0.5, 0.0};   // mirrored corollaries
      default: return {0.5, 0.5};  // general formulas
    }
  }
};

TEST_P(KronFormulaSweep, VertexTrianglesMatchDirectCount) {
  const auto [seed, regime] = GetParam();
  const LoopConfig cfg = config(regime);
  const Graph a = kt_test::random_undirected(7, 0.45, seed, cfg.loop_a);
  const Graph b = kt_test::random_undirected(6, 0.5, seed + 77, cfg.loop_b);
  const Graph c = kron::kron_graph(a, b);

  const auto formula = kron::vertex_triangles({&a, &b}).expand();
  const auto direct = triangle::participation_vertices(c);
  EXPECT_EQ(formula, direct) << "regime " << regime << " seed " << seed;
}

TEST_P(KronFormulaSweep, EdgeTrianglesMatchDirectCount) {
  const auto [seed, regime] = GetParam();
  const LoopConfig cfg = config(regime);
  const Graph a = kt_test::random_undirected(6, 0.5, seed + 1000, cfg.loop_a);
  const Graph b = kt_test::random_undirected(6, 0.45, seed + 2000, cfg.loop_b);
  const Graph c = kron::kron_graph(a, b);

  const auto formula = kron::edge_triangles({&a, &b}).expand();
  const auto direct = triangle::edge_support_masked(c);
  // The formula expansion drops zero entries; compare entrywise.
  kt_test::expect_matrix_eq(direct, formula, "Δ_C");
}

TEST_P(KronFormulaSweep, PointQueriesMatchExpansion) {
  const auto [seed, regime] = GetParam();
  const LoopConfig cfg = config(regime);
  const Graph a = kt_test::random_undirected(6, 0.5, seed + 3000, cfg.loop_a);
  const Graph b = kt_test::random_undirected(5, 0.5, seed + 4000, cfg.loop_b);

  const auto tvec = kron::vertex_triangles({&a, &b});
  const auto expanded = tvec.expand();
  for (vid p = 0; p < tvec.size(); ++p) {
    EXPECT_EQ(tvec.at(p), expanded[p]);
  }
  count_t sum = 0;
  for (const count_t v : expanded) sum += v;
  EXPECT_EQ(tvec.sum(), sum);
}

TEST_P(KronFormulaSweep, DegreesMatchMaterialized) {
  const auto [seed, regime] = GetParam();
  const LoopConfig cfg = config(regime);
  const Graph a = kt_test::random_undirected(7, 0.4, seed + 5000, cfg.loop_a);
  const Graph b = kt_test::random_undirected(6, 0.4, seed + 6000, cfg.loop_b);
  const Graph c = kron::kron_graph(a, b);

  const auto formula = kron::degrees({&a, &b}).expand();
  for (vid p = 0; p < c.num_vertices(); ++p) {
    EXPECT_EQ(formula[p], c.nonloop_degree(p)) << "p=" << p;
  }
}

TEST_P(KronFormulaSweep, TotalTrianglesMatchesDirect) {
  const auto [seed, regime] = GetParam();
  const LoopConfig cfg = config(regime);
  const Graph a = kt_test::random_undirected(7, 0.45, seed + 7000, cfg.loop_a);
  const Graph b = kt_test::random_undirected(5, 0.55, seed + 8000, cfg.loop_b);
  const Graph c = kron::kron_graph(a, b);
  EXPECT_EQ(kron::TriangleOracle(a, b).total_triangles(),
            triangle::count_total(c));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndRegimes, KronFormulaSweep,
    ::testing::Combine(::testing::Range<std::uint64_t>(0, 10),
                       ::testing::Values(0, 1, 2, 3)));

// ---------------------------------------------------------------------------
// The headline identity and misc properties
// ---------------------------------------------------------------------------

TEST(KronFormulas, TotalIsSixTauATauBWithoutLoops) {
  const Graph a = kt_test::random_undirected(12, 0.35, 42);
  const Graph b = kt_test::random_undirected(10, 0.4, 43);
  const count_t ta = triangle::count_total(a);
  const count_t tb = triangle::count_total(b);
  EXPECT_EQ(kron::TriangleOracle(a, b).total_triangles(), 6 * ta * tb);
}

TEST(KronFormulas, VertexCountsAreEvenWithoutLoops) {
  // Thm 1 remark: without self loops every vertex of C has an even triangle
  // count (t_C = 2·t_A ⊗ t_B).
  const Graph a = kt_test::random_undirected(9, 0.4, 50);
  const Graph b = kt_test::random_undirected(8, 0.45, 51);
  for (const count_t v : kron::vertex_triangles({&a, &b}).expand()) {
    EXPECT_EQ(v % 2, 0u);
  }
}

TEST(KronFormulas, DirectedFactorRejected) {
  const Graph a = kt_test::random_directed(5, 0.4, 60);
  const Graph b = kt_test::random_undirected(5, 0.4, 61);
  EXPECT_THROW(kron::vertex_triangles({&a, &b}), std::invalid_argument);
  EXPECT_THROW(kron::edge_triangles({&b, &a}), std::invalid_argument);
}

TEST(KronFormulas, ExprValidation) {
  EXPECT_THROW(kron::KronVectorExpr(0, {}), std::invalid_argument);
  EXPECT_THROW(kron::KronVectorExpr(1, {}), std::invalid_argument);
  std::vector<kron::KronVectorExpr::Term> bad;
  bad.push_back({1, {{1, 2}, {3}}});
  bad.push_back({1, {{1}, {3}}});
  EXPECT_THROW(kron::KronVectorExpr(1, std::move(bad)), std::invalid_argument);
}

TEST(KronFormulas, NegativeEvaluationDetected) {
  // A malformed expression (−1 · ones ⊗ ones) must throw on evaluation
  // rather than wrap around.
  std::vector<kron::KronVectorExpr::Term> terms;
  terms.push_back({-1, {{1, 1}, {1, 1}}});
  const kron::KronVectorExpr expr(1, std::move(terms));
  EXPECT_THROW((void)expr.at(0), std::logic_error);
  EXPECT_THROW((void)expr.sum(), std::logic_error);
}

TEST(KronFormulas, MatrixTermOutsideItsFactorsPatternRejected) {
  // Path 0-1-2 with a loop at 1: (0, 2) is off the pattern, (1, 1) on it.
  const Graph g = Graph::from_edges(3, {{{0, 1}, {1, 2}, {1, 1}}}, true);
  const auto single = [](vid x, vid y) {
    Coo<count_t> coo(3, 3);
    coo.add(x, y, 5);
    std::vector<kron::KronMatrixExpr::Term> terms;
    terms.push_back({1, {CountCsr::from_coo(coo)}});
    return terms;
  };
  EXPECT_THROW(kron::KronMatrixExpr({&g}, 1, single(0, 2)),
               std::invalid_argument);
  // A term on a narrower pattern is aligned onto the factor's slots.
  const kron::KronMatrixExpr loop({&g}, 1, single(1, 1));
  EXPECT_EQ(loop.at(1, 1), 5u);
  EXPECT_EQ(loop.at(0, 1), 0u);
  EXPECT_EQ(loop.stored(0, 1), std::optional<count_t>(0));
  EXPECT_EQ(loop.stored(0, 2), std::nullopt);
  EXPECT_EQ(loop.sum(), 5u);
  // Two factors: the second term's factor count must be the graphs'.
  std::vector<kron::KronMatrixExpr::Term> short_term = single(1, 1);
  EXPECT_THROW(kron::KronMatrixExpr({&g, &g}, 1, std::move(short_term)),
               std::invalid_argument);
}

TEST(KronFormulas, SelfLoopBoostObservedOnNotreDameShape) {
  // §VI's qualitative claim: B = A + I boosts triangles. Verify the ordering
  // τ(A⊗A) < τ(A⊗(A+I)) on a small scale-free-ish factor.
  const Graph a = kt_test::random_undirected(30, 0.15, 70);
  const Graph b = a.with_all_self_loops();
  EXPECT_GT(kron::TriangleOracle(a, b).total_triangles(),
            kron::TriangleOracle(a, a).total_triangles());
}

}  // namespace
