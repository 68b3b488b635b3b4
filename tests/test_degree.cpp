// Degree-distribution tests (§III.A, §IV.B): formulas, the max-ratio
// squaring law, and the factor-side histogram convolution.
#include <gtest/gtest.h>

#include "analysis/degree.hpp"
#include "gen/classic.hpp"
#include "gen/random.hpp"
#include "helpers.hpp"
#include "kron/formulas.hpp"
#include "kron/product.hpp"

namespace {

using namespace kronotri;

TEST(DegreeSummary, BasicStats) {
  const auto s = analysis::summarize_degrees({1, 2, 2, 5});
  EXPECT_EQ(s.max_degree, 5u);
  EXPECT_DOUBLE_EQ(s.mean_degree, 2.5);
  EXPECT_DOUBLE_EQ(s.max_ratio, 5.0 / 4.0);
  EXPECT_EQ(s.histogram.at(2), 2u);
}

TEST(DegreeSummary, EmptyVector) {
  const auto s = analysis::summarize_degrees(std::vector<count_t>{});
  EXPECT_EQ(s.max_degree, 0u);
}

class DegreeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DegreeSweep, InDegreesMatchMaterializedDirected) {
  const Graph a = kt_test::random_directed(6, 0.35, GetParam());
  const Graph b = kt_test::random_directed(5, 0.4, GetParam() + 1);
  const Graph c = kron::kron_graph(a, b);
  // In-degrees of C are the out-degrees of Cᵀ = Aᵀ ⊗ Bᵀ.
  const Graph at = a.transpose(), bt = b.transpose();
  const auto din = kron::degrees({&at, &bt}).expand();
  const auto dout = kron::degrees({&a, &b}).expand();
  const Graph ct = c.transpose();
  for (vid p = 0; p < c.num_vertices(); ++p) {
    EXPECT_EQ(dout[p], c.nonloop_degree(p));
    EXPECT_EQ(din[p], ct.nonloop_degree(p));
  }
}

TEST_P(DegreeSweep, KronSummaryMatchesMaterialized) {
  const Graph a = kt_test::random_undirected(8, 0.4, GetParam() + 10, 0.3);
  const Graph b = kt_test::random_undirected(7, 0.4, GetParam() + 11, 0.3);
  const Graph c = kron::kron_graph(a, b);
  const auto from_factors = analysis::summarize_kron_degrees(a, b);
  const auto direct = analysis::summarize_degrees(c);
  EXPECT_EQ(from_factors.max_degree, direct.max_degree);
  EXPECT_EQ(from_factors.histogram, direct.histogram);
  EXPECT_NEAR(from_factors.mean_degree, direct.mean_degree, 1e-9);
}

TEST_P(DegreeSweep, ConvolutionPathMatchesMaterializedWithoutLoops) {
  const Graph a = kt_test::random_undirected(9, 0.35, GetParam() + 20);
  const Graph b = kt_test::random_undirected(8, 0.35, GetParam() + 21, 0.5);
  const Graph c = kron::kron_graph(a, b);
  const auto from_factors = analysis::summarize_kron_degrees(a, b);
  const auto direct = analysis::summarize_degrees(c);
  EXPECT_EQ(from_factors.histogram, direct.histogram);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DegreeSweep,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(Degree, MaxRatioSquaresUnderProduct) {
  // §III.A: ‖d_C‖∞/n_C = (‖d_A‖∞/n_A)·(‖d_B‖∞/n_B) for loop-free factors.
  const Graph a = gen::barabasi_albert(200, 3, 5);
  const Graph b = gen::barabasi_albert(150, 2, 6);
  const auto sa = analysis::summarize_degrees(a);
  const auto sb = analysis::summarize_degrees(b);
  const auto sc = analysis::summarize_kron_degrees(a, b);
  EXPECT_NEAR(sc.max_ratio, sa.max_ratio * sb.max_ratio, 1e-12);
}

TEST(Degree, SelfLoopDegreeFormulas) {
  // §III.A: with loops in B only, d_C(p) = d_A(i)·(d_B(k)+1) at looped k.
  const Graph a = gen::clique(4);
  const Graph b = gen::clique(3).with_all_self_loops();
  const auto d = kron::degrees({&a, &b}).expand();
  const kron::KronIndex idx(3);
  for (vid p = 0; p < 12; ++p) {
    const vid i = idx.a_of(p);
    EXPECT_EQ(d[p], a.nonloop_degree(i) * 3);  // (d_B + 1) = 3 everywhere
  }
  // Both factors looped: d_C(p) = (d_A+1)(d_B+1) − 1 (the loop of C).
  const Graph al = gen::clique(4).with_all_self_loops();
  const auto d2 = kron::degrees({&al, &b}).expand();
  for (vid p = 0; p < 12; ++p) {
    EXPECT_EQ(d2[p], 4u * 3u - 1u);
  }
}

TEST(Degree, HeavyTailSurvivesProduct) {
  const Graph a = gen::barabasi_albert(300, 3, 8);
  const auto sc = analysis::summarize_kron_degrees(a, a);
  EXPECT_LT(sc.loglog_slope, -0.8);
  EXPECT_GT(static_cast<double>(sc.max_degree),
            20.0 * sc.mean_degree);
}

}  // namespace
