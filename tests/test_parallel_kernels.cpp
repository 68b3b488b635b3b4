// Determinism suite for the parallel kernels that replaced the serial seed
// implementations: PKT-style truss peeling, Afforest-style connected
// components, the counting-sort COO→CSR build, and the blocked parallel
// SpGEMM. Every kernel must be bit-identical to its serial reference
// (decompose_serial / connected_components_serial / from_coo_serial / a
// dense brute-force product) at OMP_NUM_THREADS 1, 2 and 8. The peel's work
// counters (truss.peel_lookups, truss.peel_sub_rounds) must not depend on
// the team size either.
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "analysis/components.hpp"
#include "core/ops.hpp"
#include "gen/classic.hpp"
#include "gen/random.hpp"
#include "helpers.hpp"
#include "kron/product.hpp"
#include "obs/counters.hpp"
#include "truss/decompose.hpp"
#include "util/prng.hpp"

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

class ParallelKernels : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelKernels, TrussMatchesSerialAcrossThreadCounts) {
  for (const double loop_p : {0.0, 0.25}) {
    const Graph g = kt_test::random_undirected(50, 0.22, GetParam(), loop_p);
    const truss::TrussDecomposition ref = truss::decompose_serial(g);
    const auto runs = with_thread_counts([&] { return truss::decompose(g); });
    for (const auto& run : runs) {
      EXPECT_TRUE(run.truss_number == ref.truss_number);
      EXPECT_EQ(run.max_truss, ref.max_truss);
    }
  }
}

TEST_P(ParallelKernels, ComponentsMatchSerialAcrossThreadCounts) {
  // Sparse → frequently disconnected; exercises singleton and multi-vertex
  // components plus self loops.
  const Graph g =
      kt_test::random_undirected(80, 0.02, GetParam(), GetParam() % 2 ? 0.1 : 0.0);
  const analysis::Components ref = analysis::connected_components_serial(g);
  const auto runs =
      with_thread_counts([&] { return analysis::connected_components(g); });
  for (const auto& run : runs) {
    EXPECT_EQ(run.count, ref.count);
    EXPECT_EQ(run.component, ref.component);
  }
}

TEST_P(ParallelKernels, FromCooMatchesSerialAcrossThreadCounts) {
  // Above CsrMatrix::kParallelCooCutoff so the counting-sort path runs, with
  // plenty of duplicates to exercise the combine step under both policies.
  util::Xoshiro256 rng(GetParam() + 7);
  const vid n = 160;
  Coo<count_t> coo(n, n);
  const std::size_t nz = BoolCsr::kParallelCooCutoff * 2 + 123;
  for (std::size_t i = 0; i < nz; ++i) {
    coo.add(static_cast<vid>(rng() % n), static_cast<vid>(rng() % n),
            static_cast<count_t>(1 + rng() % 5));
  }
  for (const DupPolicy policy : {DupPolicy::kSum, DupPolicy::kKeep}) {
    const CountCsr ref = CountCsr::from_coo_serial(coo, policy);
    const auto runs =
        with_thread_counts([&] { return CountCsr::from_coo(coo, policy); });
    for (const auto& run : runs) EXPECT_TRUE(run == ref);
  }
}

TEST_P(ParallelKernels, SpgemmIdenticalAcrossThreadCountsAndDense) {
  const Graph a = kt_test::random_undirected(60, 0.15, GetParam() + 31);
  const Graph b = kt_test::random_undirected(60, 0.15, GetParam() + 32);
  const auto runs = with_thread_counts(
      [&] { return ops::spgemm(a.matrix(), b.matrix()); });
  for (const auto& run : runs) EXPECT_TRUE(run == runs.front());
  const auto dense = kt_test::dense_matmul(kt_test::to_dense(a.matrix()),
                                           kt_test::to_dense(b.matrix()));
  const auto& c = runs.front();
  for (vid i = 0; i < c.rows(); ++i) {
    for (vid j = 0; j < c.cols(); ++j) {
      ASSERT_EQ(static_cast<long long>(c.at(i, j)), dense[i][j])
          << "(" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelKernels,
                         ::testing::Range<std::uint64_t>(0, 6));

TEST(ParallelTruss, KroneckerProductMatchesSerial) {
  // Paper-style validation input: a dense-ish Kronecker product where the
  // frontier actually holds many edges per level.
  const Graph g =
      kron::kron_graph(gen::clique(5), gen::holme_kim(60, 3, 0.6, 17));
  const auto ref = truss::decompose_serial(g);
  const auto par = truss::decompose(g);
  EXPECT_TRUE(par.truss_number == ref.truss_number);
  EXPECT_EQ(par.max_truss, ref.max_truss);
  EXPECT_EQ(par.edges_in_truss(3), ref.edges_in_truss(3));
}

TEST(ParallelTruss, StructuredFamilies) {
  for (const Graph& g : {gen::clique(8), gen::cycle(9), gen::star(7),
                         gen::complete_bipartite(4, 5)}) {
    const auto ref = truss::decompose_serial(g);
    const auto par = truss::decompose(g);
    EXPECT_TRUE(par.truss_number == ref.truss_number);
    EXPECT_EQ(par.max_truss, ref.max_truss);
  }
}

TEST(ParallelComponents, EdgeCases) {
  // Empty graph, all-isolated vertices, and a directed graph (closure path).
  const Graph empty = Graph::from_edges(0, {}, false);
  EXPECT_EQ(analysis::connected_components(empty).count, 0u);
  const Graph isolated = Graph::from_edges(5, {}, false);
  const auto iso = analysis::connected_components(isolated);
  EXPECT_EQ(iso.count, 5u);
  for (vid v = 0; v < 5; ++v) EXPECT_EQ(iso.component[v], v);
  const Graph directed = Graph::from_edges(4, {{{0, 1}, {3, 2}}}, false);
  const auto ref = analysis::connected_components_serial(directed);
  const auto par = analysis::connected_components(directed);
  EXPECT_EQ(par.count, ref.count);
  EXPECT_EQ(par.component, ref.component);
}

TEST(ParallelComponents, WeichselCountUnchanged) {
  // kron_component_count consumes the component labels; the parallel
  // relabeling must keep it exact against the materialized product.
  const Graph a = kt_test::random_undirected(9, 0.15, 3);
  const Graph b = kt_test::random_undirected(8, 0.2, 4);
  EXPECT_EQ(analysis::kron_component_count(a, b),
            analysis::connected_components(kron::kron_graph(a, b)).count);
}

TEST(ParallelFromCoo, OutOfRangeThrowsOnParallelPath) {
  Coo<count_t> coo(10, 10);
  const std::size_t nz = BoolCsr::kParallelCooCutoff + 50;
  for (std::size_t i = 0; i < nz; ++i) {
    coo.add(static_cast<vid>(i % 10), static_cast<vid>((i * 7) % 10), 1);
  }
  coo.add(10, 0, 1);  // row out of range
  EXPECT_THROW(CountCsr::from_coo(coo), std::out_of_range);
}

TEST(ParallelFromCoo, KeepPolicyRetainsFirstTriplet) {
  // kKeep must keep the value that appears first in the triplet list — on
  // both paths, at every thread count.
  Coo<count_t> coo(40, 40);
  util::Xoshiro256 rng(99);
  const std::size_t nz = BoolCsr::kParallelCooCutoff + 1000;
  for (std::size_t i = 0; i < nz; ++i) {
    coo.add(static_cast<vid>(rng() % 40), static_cast<vid>(rng() % 40),
            static_cast<count_t>(i + 1));
  }
  const auto runs = with_thread_counts(
      [&] { return CountCsr::from_coo(coo, DupPolicy::kKeep); });
  for (const auto& run : runs) EXPECT_TRUE(run == runs.front());
  // First triplet wins: find the first entry for a spot-check cell.
  const auto& e0 = coo.entries().front();
  EXPECT_EQ(runs.front().at(e0.row, e0.col), e0.value);
  EXPECT_TRUE(runs.front() == CountCsr::from_coo_serial(coo, DupPolicy::kKeep));
}

TEST(ParallelSpgemm, EmptyAndRectangular) {
  const CountCsr empty(0, 0);
  EXPECT_EQ(ops::spgemm(empty, empty).nnz(), 0u);
  // Rectangular chain with known structure: (3x5)·(5x2).
  Coo<count_t> ca(3, 5), cb(5, 2);
  ca.add(0, 1, 2);
  ca.add(0, 4, 1);
  ca.add(2, 4, 3);
  cb.add(1, 0, 5);
  cb.add(4, 1, 7);
  const auto c =
      ops::spgemm(CountCsr::from_coo(ca), CountCsr::from_coo(cb));
  EXPECT_EQ(c.rows(), 3u);
  EXPECT_EQ(c.cols(), 2u);
  EXPECT_EQ(c.at(0, 0), 10u);
  EXPECT_EQ(c.at(0, 1), 7u);
  EXPECT_EQ(c.at(2, 1), 21u);
  EXPECT_EQ(c.nnz(), 3u);
}

/// A hub adjacent to every vertex, a clique through the hub, and a sparse
/// random graph among the remaining leaves: thousands of frontier edges
/// share the hub as owner, so one owner's run spans several slices.
Graph star_fused_with_clique(vid leaves, vid clique, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const vid n = 1 + clique + leaves;
  std::vector<std::pair<vid, vid>> edges;
  for (vid v = 1; v < n; ++v) edges.emplace_back(0, v);
  for (vid u = 1; u <= clique; ++u) {
    for (vid v = u + 1; v <= clique; ++v) edges.emplace_back(u, v);
  }
  for (vid u = clique + 1; u < n; ++u) {
    for (int k = 0; k < 3; ++k) {
      const vid v = clique + 1 + static_cast<vid>(rng() % leaves);
      if (v != u) edges.emplace_back(u, v);
    }
  }
  return Graph::from_edges(n, edges, /*symmetrize=*/true);
}

struct PeelRun {
  truss::TrussDecomposition decomposition;
  std::uint64_t lookups = 0;
  std::uint64_t sub_rounds = 0;
};

PeelRun peel_with_counters(const Graph& g) {
  obs::Counter& lookups = obs::counter("truss.peel_lookups");
  obs::Counter& sub_rounds = obs::counter("truss.peel_sub_rounds");
  const std::uint64_t l0 = lookups.value(), s0 = sub_rounds.value();
  PeelRun run{truss::decompose(g)};
  run.lookups = lookups.value() - l0;
  run.sub_rounds = sub_rounds.value() - s0;
  return run;
}

TEST(ParallelTruss, OwnerMarkedPeelMatchesSerialWithTeamFreeCounters) {
  const struct {
    const char* name;
    Graph g;
  } cases[] = {
      {"star fused with clique", star_fused_with_clique(3000, 24, 41)},
      {"clique", gen::clique(40)},
      {"triangle-free", gen::complete_bipartite(60, 70)},
      {"skewed hk m=8", gen::holme_kim(3000, 8, 0.6, 43)},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const auto ref = truss::decompose_serial(c.g);
    const auto runs = with_thread_counts([&] { return peel_with_counters(c.g); });
    for (const auto& run : runs) {
      EXPECT_TRUE(run.decomposition.truss_number == ref.truss_number);
      EXPECT_EQ(run.decomposition.max_truss, ref.max_truss);
      EXPECT_EQ(run.lookups, runs.front().lookups);
      EXPECT_EQ(run.sub_rounds, runs.front().sub_rounds);
    }
    EXPECT_GT(runs.front().sub_rounds, 0u);
  }
}

TEST(ParallelTruss, LookupsAreTheShorterRowOfEveryEdge) {
  // Every edge is peeled exactly once and scans the row of its non-owner
  // endpoint: the lower degree, or on a tie the smaller id.
  const Graph g = star_fused_with_clique(500, 12, 7);
  std::uint64_t expected = 0;
  for (vid u = 0; u < g.num_vertices(); ++u) {
    for (const vid v : g.matrix().row_cols(u)) {
      if (v > u) {
        expected += std::min(g.matrix().row_cols(u).size(),
                             g.matrix().row_cols(v).size());
      }
    }
  }
  const auto runs = with_thread_counts([&] { return peel_with_counters(g); });
  for (const auto& run : runs) EXPECT_EQ(run.lookups, expected);
}

}  // namespace
