// Census-determinism suite: the atomic-free engine must produce
// bit-identical totals, per-vertex and per-edge counts at every thread
// count (counts are exact integer sums of thread-local buffers), and match
// the dense brute-force reference on random ER graphs with and without
// self loops.
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "helpers.hpp"
#include "obs/counters.hpp"
#include "triangle/bruteforce.hpp"
#include "triangle/census.hpp"
#include "triangle/count.hpp"
#include "triangle/labeled.hpp"
#include "triangle/support.hpp"
#include "truss/decompose.hpp"

namespace {

using namespace kronotri;

/// Runs `fn` under each thread count and returns the collected results.
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

triangle::Labeling three_labels(vid n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  triangle::Labeling lab;
  lab.num_labels = 3;
  lab.label.resize(n);
  for (auto& q : lab.label) {
    q = static_cast<std::uint32_t>(rng() % 3);
  }
  return lab;
}

class CensusDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CensusDeterminism, AnalyzeIdenticalAcrossThreadCounts) {
  for (const double loop_p : {0.0, 0.3}) {
    const Graph g = kt_test::random_undirected(60, 0.15, GetParam(), loop_p);
    const auto runs = with_thread_counts([&] { return triangle::analyze(g); });
    const auto& ref = runs.front();
    EXPECT_EQ(ref.total, triangle::brute::total(g));
    EXPECT_EQ(ref.per_vertex, triangle::brute::vertex_participation(g));
    kt_test::expect_matrix_eq(ref.per_edge,
                              triangle::brute::edge_participation(g),
                              "per-edge vs brute force");
    for (const auto& run : runs) {
      EXPECT_EQ(run.total, ref.total);
      EXPECT_EQ(run.per_vertex, ref.per_vertex);
      EXPECT_TRUE(run.per_edge == ref.per_edge);
      EXPECT_EQ(run.wedge_checks, ref.wedge_checks);
    }
  }
}

TEST_P(CensusDeterminism, EdgeSupportIdenticalAcrossThreadCounts) {
  const Graph g = kt_test::random_undirected(50, 0.2, GetParam() + 40, 0.2);
  const auto runs =
      with_thread_counts([&] { return triangle::edge_support_masked(g); });
  for (const auto& run : runs) EXPECT_TRUE(run == runs.front());
  EXPECT_TRUE(runs.front() == triangle::analyze(g).per_edge);
}

TEST_P(CensusDeterminism, LabeledCensusIdenticalAcrossThreadCounts) {
  const Graph g = kt_test::random_undirected(40, 0.2, GetParam() + 80);
  const triangle::Labeling lab = three_labels(g.num_vertices(), GetParam() + 81);
  const auto runs =
      with_thread_counts([&] { return triangle::labeled_census(g, lab); });
  const auto& ref = runs.front();
  for (const auto& run : runs) {
    ASSERT_EQ(run.at_vertices.size(), ref.at_vertices.size());
    for (std::size_t i = 0; i < ref.at_vertices.size(); ++i) {
      EXPECT_EQ(run.at_vertices[i], ref.at_vertices[i]);
    }
    ASSERT_EQ(run.at_edges.size(), ref.at_edges.size());
    for (std::size_t i = 0; i < ref.at_edges.size(); ++i) {
      EXPECT_TRUE(run.at_edges[i] == ref.at_edges[i]);
    }
  }
}

TEST_P(CensusDeterminism, TrussIdenticalAcrossThreadCounts) {
  const Graph g = kt_test::random_undirected(45, 0.25, GetParam() + 120);
  const auto ref = truss::decompose_serial(g);
  const auto runs = with_thread_counts([&] { return truss::decompose(g); });
  for (const auto& run : runs) {
    EXPECT_TRUE(run.truss_number == ref.truss_number);
    EXPECT_EQ(run.max_truss, ref.max_truss);
  }
}

TEST_P(CensusDeterminism, ScalarsIdenticalAcrossThreadCounts) {
  const Graph g = kt_test::random_undirected(55, 0.18, GetParam() + 160, 0.1);
  const auto totals =
      with_thread_counts([&] { return triangle::count_total(g); });
  const auto parts =
      with_thread_counts([&] { return triangle::participation_vertices(g); });
  for (const auto& t : totals) EXPECT_EQ(t, triangle::brute::total(g));
  for (const auto& p : parts) EXPECT_EQ(p, parts.front());
}

TEST_P(CensusDeterminism, VertexCountsFromEdgeCountsMatchTheVertexPass) {
  for (const double loop_p : {0.0, 0.3}) {
    const Graph g =
        kt_test::random_undirected(50, 0.2, GetParam() + 210, loop_p);
    const triangle::CensusWorkspace ws(g);
    const auto from_edges = with_thread_counts(
        [&] { return ws.vertex_census(ws.edge_census()); });
    const auto from_pass =
        with_thread_counts([&] { return ws.vertex_census(); });
    const auto truth = triangle::brute::vertex_participation(g);
    for (const auto& t : from_edges) EXPECT_EQ(t, truth);
    for (const auto& t : from_pass) EXPECT_EQ(t, truth);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CensusDeterminism,
                         ::testing::Range<std::uint64_t>(0, 6));

TEST(EdgeIdMap, CoversEverySlotSymmetrically) {
  const Graph g = kt_test::random_undirected(30, 0.25, 7, 0.2);
  const triangle::CensusWorkspace ws(g);
  const BoolCsr& s = ws.structure();
  const auto& ids = ws.edge_ids();
  ASSERT_EQ(ids.slot_id.size(), s.nnz());
  EXPECT_EQ(ids.num_edges() * 2, s.nnz());  // loop-free symmetric structure
  for (vid u = 0; u < s.rows(); ++u) {
    const auto row = s.row_cols(u);
    for (std::size_t k = 0; k < row.size(); ++k) {
      const vid v = row[k];
      const esz id = ids.slot_id[s.row_ptr()[u] + k];
      ASSERT_LT(id, ids.num_edges());
      EXPECT_EQ(id, ids.slot_id[s.find(v, u)]) << "mirror id mismatch";
      const auto [x, y] = ids.ends[id];
      EXPECT_EQ(std::min(u, v), x);
      EXPECT_EQ(std::max(u, v), y);
    }
  }
}

TEST(EdgeIdMap, MirrorScattersBothDirections) {
  const Graph g = kt_test::random_undirected(25, 0.3, 11);
  const triangle::CensusWorkspace ws(g);
  std::vector<count_t> per_edge(ws.num_edges());
  for (esz e = 0; e < ws.num_edges(); ++e) per_edge[e] = e + 1;
  const CountCsr m = ws.mirror_edge_counts(per_edge);
  for (esz e = 0; e < ws.num_edges(); ++e) {
    const auto [u, v] = ws.edge_ids().ends[e];
    EXPECT_EQ(m.at(u, v), e + 1);
    EXPECT_EQ(m.at(v, u), e + 1);
  }
}

TEST(CensusWorkspace, EveryEnumerationCountsOnePass) {
  obs::Counter& passes = obs::counter("triangle.census_passes");
  const triangle::CensusWorkspace ws(kt_test::random_undirected(30, 0.3, 5));
  const std::uint64_t start = passes.value();
  const std::vector<count_t> per_edge = ws.edge_census();
  EXPECT_EQ(passes.value(), start + 1);
  (void)ws.vertex_census();
  EXPECT_EQ(passes.value(), start + 2);
  (void)ws.vertex_census(per_edge);  // a sweep over Δ, not an enumeration
  EXPECT_EQ(passes.value(), start + 2);
}

TEST(CensusWorkspace, DirectedInputThrows) {
  const Graph d = Graph::from_edges(3, {{{0, 1}, {1, 2}}}, false);
  EXPECT_THROW(triangle::CensusWorkspace ws(d), std::invalid_argument);
}

}  // namespace
