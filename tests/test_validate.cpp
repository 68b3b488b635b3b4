// Tests for src/validate/: the sharded streaming census must be
// bit-identical to the materialized triangle::CensusWorkspace result at
// every OMP thread count and shard count, respect its memory budget, and
// the report/sink layers must validate clean products against the closed
// forms.
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <map>
#include <vector>

#include "gen/classic.hpp"
#include "gen/random.hpp"
#include "helpers.hpp"
#include "kron/multi.hpp"
#include "kron/oracle.hpp"
#include "kron/product.hpp"
#include "kron/view.hpp"
#include "triangle/census.hpp"
#include "validate/report.hpp"
#include "validate/streaming_census.hpp"

namespace {

using namespace kronotri;
using validate::StreamingCensus;
using validate::StreamingOptions;

/// Full census assembled from the streaming shards: per-vertex counts in
/// vertex order plus an (u,v) → Δ map over all undirected non-loop edges.
struct FullCensus {
  std::vector<count_t> vertex;
  std::map<std::pair<vid, vid>, count_t> edge;
  validate::StreamingStats stats;
};

FullCensus collect(const StreamingCensus& census) {
  FullCensus full;
  full.vertex.reserve(census.num_vertices());
  full.stats = census.run([&](const StreamingCensus::Shard& shard) {
    EXPECT_EQ(shard.lo(), full.vertex.size());
    const auto vc = shard.vertex_counts();
    full.vertex.insert(full.vertex.end(), vc.begin(), vc.end());
    shard.for_each_owned_edge([&](vid u, vid v, count_t d) {
      EXPECT_LT(u, v);
      EXPECT_TRUE(full.edge.emplace(std::make_pair(u, v), d).second)
          << "edge (" << u << "," << v << ") owned twice";
    });
  });
  EXPECT_EQ(full.vertex.size(), census.num_vertices());
  return full;
}

/// Reference census of the materialized product via the PR-2 engine.
FullCensus materialized_reference(const Graph& c) {
  const triangle::CensusWorkspace ws(c);
  FullCensus full;
  full.vertex.assign(c.num_vertices(), 0);
  std::vector<std::vector<count_t>> tls(triangle::census_workers());
  for (auto& t : tls) t.assign(c.num_vertices(), 0);
  ws.for_each_triangle_vertices(
      tls, [](std::vector<count_t>& t, vid u, vid v, vid w) {
        ++t[u];
        ++t[v];
        ++t[w];
      });
  for (const auto& t : tls) {
    for (vid p = 0; p < c.num_vertices(); ++p) full.vertex[p] += t[p];
  }
  const auto per_edge = ws.edge_census();
  for (esz e = 0; e < ws.num_edges(); ++e) {
    full.edge.emplace(ws.edge_ids().ends[e], per_edge[e]);
  }
  return full;
}

/// Runs fn at OMP 1/2/8 and returns the collected results.
template <typename Fn>
auto with_thread_counts(Fn&& fn) {
  std::vector<decltype(fn())> results;
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  for (const int t : {1, 2, 8}) {
    omp_set_num_threads(t);
    results.push_back(fn());
  }
  omp_set_num_threads(saved);
#else
  results.push_back(fn());
#endif
  return results;
}

class StreamingParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamingParity, BitIdenticalToWorkspaceAcrossThreadsAndShards) {
  // Loop regimes: none, B only, both factors.
  const Graph a = kt_test::random_undirected(14, 0.3, GetParam(),
                                             GetParam() % 3 == 2 ? 0.3 : 0.0);
  const Graph b = kt_test::random_undirected(11, 0.35, GetParam() + 7,
                                             GetParam() % 3 != 0 ? 0.4 : 0.0);
  const Graph c = kron::kron_graph(a, b);
  const FullCensus ref = materialized_reference(c);
  for (const std::uint64_t shards : {1u, 4u, 16u}) {
    StreamingOptions opt;
    opt.force_shards = shards;
    const auto runs = with_thread_counts(
        [&] { return collect(StreamingCensus(a, b, opt)); });
    for (const auto& run : runs) {
      EXPECT_EQ(run.vertex, ref.vertex) << "shards=" << shards;
      EXPECT_EQ(run.edge, ref.edge) << "shards=" << shards;
      EXPECT_EQ(run.stats.total_triangles,
                runs.front().stats.total_triangles);
      EXPECT_EQ(run.stats.wedge_checks, runs.front().stats.wedge_checks);
    }
  }
}

TEST_P(StreamingParity, ThreeFactorChainMatchesWorkspaceAndClosedForm) {
  const Graph f1 = kt_test::random_undirected(5, 0.5, GetParam(), 0.3);
  const Graph f2 = kt_test::random_undirected(4, 0.5, GetParam() + 1);
  const Graph f3 = kt_test::random_undirected(3, 0.6, GetParam() + 2, 0.5);
  const kron::KronChain chain({f1, f2, f3});
  const Graph c = chain.materialize();
  const FullCensus ref = materialized_reference(c);
  StreamingOptions opt;
  opt.force_shards = 4;
  const FullCensus run = collect(StreamingCensus(chain, opt));
  EXPECT_EQ(run.vertex, ref.vertex);
  EXPECT_EQ(run.edge, ref.edge);
  // Oracle-vs-measured parity on the 3-factor composition (closed forms).
  EXPECT_EQ(run.stats.total_triangles, chain.total_triangles());
  for (vid p = 0; p < chain.num_vertices(); ++p) {
    EXPECT_EQ(run.vertex[p], chain.vertex_triangles(p)) << "vertex " << p;
  }
  for (const auto& [uv, d] : run.edge) {
    EXPECT_EQ(d, chain.edge_triangles(uv.first, uv.second))
        << "edge (" << uv.first << "," << uv.second << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingParity,
                         ::testing::Range<std::uint64_t>(0, 6));

TEST(StreamingCensus, BudgetDrivesShardCountAndBoundsAccumulators) {
  const Graph a = gen::holme_kim(60, 3, 0.6, 11);
  const Graph b = gen::clique(4);
  StreamingOptions tight;
  tight.mem_budget_bytes = 2048;
  const StreamingCensus census(a, b, tight);
  ASSERT_GT(census.shards().size(), 4u);
  // Shards tile [0, n) contiguously.
  vid expect_lo = 0;
  for (const auto& s : census.shards()) {
    EXPECT_EQ(s.lo, expect_lo);
    EXPECT_LT(s.lo, s.hi);
    expect_lo = s.hi;
  }
  EXPECT_EQ(expect_lo, census.num_vertices());
  const auto stats = census.run();
  // Every per-shard accumulator stayed within the budget (no product vertex
  // here needs more than the budget alone, so the bound is exact).
  EXPECT_LE(stats.peak_accumulator_bytes, tight.mem_budget_bytes);
  // Identical to the one-shard run.
  StreamingOptions one;
  one.force_shards = 1;
  const auto wide = StreamingCensus(a, b, one).run();
  EXPECT_EQ(stats.total_triangles, wide.total_triangles);
  EXPECT_EQ(stats.vertex_count_sum, wide.vertex_count_sum);
  EXPECT_EQ(stats.edge_count_sum, wide.edge_count_sum);
  EXPECT_EQ(stats.num_edges, wide.num_edges);
  EXPECT_GT(wide.peak_accumulator_bytes, stats.peak_accumulator_bytes);
}

TEST(StreamingCensus, UpperDegreeMatchesEnumeration) {
  const Graph a = kt_test::random_undirected(9, 0.4, 3, 0.5);
  const Graph b = kt_test::random_undirected(7, 0.4, 4, 0.5);
  const StreamingCensus census(a, b);
  const kron::KronGraphView view(a, b);
  for (vid p = 0; p < view.num_vertices(); ++p) {
    esz expected = 0;
    for (const vid q : view.neighbors(p)) expected += q > p ? 1 : 0;
    EXPECT_EQ(census.upper_degree(p), expected) << "vertex " << p;
  }
}

TEST(StreamingCensus, SumsAreConsistent) {
  const Graph a = gen::holme_kim(40, 2, 0.5, 19);
  const Graph b = gen::cycle(5);
  const auto stats = StreamingCensus(a, b).run();
  EXPECT_EQ(stats.vertex_count_sum, 3 * stats.total_triangles);
  EXPECT_EQ(stats.edge_count_sum, 3 * stats.total_triangles);
  EXPECT_EQ(stats.num_edges,
            kron::KronGraphView(a, b).num_undirected_edges());
}

TEST(StreamingCensus, RejectsDirectedFactors) {
  const Graph d = Graph::from_edges(3, {{{0, 1}, {1, 2}}}, false);
  const Graph u = gen::clique(3);
  EXPECT_THROW(StreamingCensus(d, u), std::invalid_argument);
  EXPECT_THROW(StreamingCensus(u, d), std::invalid_argument);
}

TEST(ValidationReport, PassesOnCleanProductsEveryLoopRegime) {
  const Graph a = gen::holme_kim(50, 3, 0.6, 23);
  for (const bool loops_a : {false, true}) {
    for (const bool loops_b : {false, true}) {
      const Graph fa = loops_a ? a.with_all_self_loops() : a;
      const Graph fb = loops_b ? gen::clique(3).with_all_self_loops()
                               : gen::clique(3);
      validate::StreamingOptions opt;
      opt.mem_budget_bytes = 8192;
      const auto report = validate::validate_product(fa, fb, opt);
      EXPECT_TRUE(report.pass()) << "loops_a=" << loops_a
                                 << " loops_b=" << loops_b;
      EXPECT_EQ(report.vertex_mismatches, 0u);
      EXPECT_EQ(report.edge_mismatches, 0u);
      EXPECT_EQ(report.measured_total, report.predicted_total);
      EXPECT_GT(report.stats.num_shards, 1u);
      // Histogram totals cover every vertex / edge exactly once.
      count_t vhist = 0, ehist = 0;
      for (const auto& [k, v] : report.vertex_histogram) vhist += v;
      for (const auto& [k, v] : report.edge_histogram) ehist += v;
      EXPECT_EQ(vhist, report.num_vertices);
      EXPECT_EQ(ehist, report.num_edges);
    }
  }
}

TEST(ValidationReport, ChainReportPassesAndCountsEdges) {
  const kron::KronChain chain(
      {gen::holme_kim(30, 2, 0.5, 31), gen::clique(3),
       gen::path(3).with_all_self_loops()});
  const auto report = validate::validate_chain(chain);
  EXPECT_TRUE(report.pass());
  EXPECT_EQ(report.num_vertices, chain.num_vertices());
  EXPECT_EQ(report.num_edges,
            chain.num_undirected_edges() -
                static_cast<count_t>(chain.materialize().num_self_loops()));
}

}  // namespace
