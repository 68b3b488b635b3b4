// Tests for src/validate/: the sharded streaming census must be
// bit-identical to the materialized triangle::CensusWorkspace result at
// every OMP thread count and shard count, respect its memory budget, and
// the report/sink layers must validate clean products against the closed
// forms.
#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "gen/classic.hpp"
#include "gen/random.hpp"
#include "helpers.hpp"
#include "kron/oracle.hpp"
#include "kron/product.hpp"
#include "kron/stream.hpp"
#include "kron/view.hpp"
#include "runner/runner.hpp"
#include "triangle/census.hpp"
#include "util/journal.hpp"
#include "util/json.hpp"
#include "validate/report.hpp"
#include "validate/streaming_census.hpp"

namespace {

using namespace kronotri;
using validate::StreamingCensus;
using validate::StreamingOptions;

/// Full census assembled from the streaming shards: per-vertex counts in
/// vertex order plus an (u,v) → Δ map over all undirected non-loop edges,
/// each shard's owned-edge counters paired in order with the rows of the
/// materialized product `c`.
struct FullCensus {
  std::vector<count_t> vertex;
  std::map<std::pair<vid, vid>, count_t> edge;
  validate::StreamingStats stats;
};

FullCensus collect(const StreamingCensus& census, const Graph& c) {
  FullCensus full;
  full.vertex.reserve(census.num_vertices());
  full.stats = census.run([&](const StreamingCensus::Shard& shard) {
    EXPECT_EQ(shard.range.lo, full.vertex.size());
    full.vertex.insert(full.vertex.end(), shard.vertex.begin(),
                       shard.vertex.end());
    std::size_t e = 0;
    for (vid u = shard.range.lo; u < shard.range.hi; ++u) {
      for (const vid v : c.neighbors(u)) {
        if (v <= u) continue;
        ASSERT_LT(e, shard.edge.size()) << "shard owns too few edges";
        full.edge.emplace(std::make_pair(u, v), shard.edge[e++]);
      }
    }
    EXPECT_EQ(e, shard.edge.size()) << "shard owns too many edges";
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
        [&] { return collect(StreamingCensus(a, b, opt), c); });
    for (const auto& run : runs) {
      EXPECT_EQ(run.vertex, ref.vertex) << "shards=" << shards;
      EXPECT_EQ(run.edge, ref.edge) << "shards=" << shards;
      EXPECT_EQ(run.stats.total_triangles,
                runs.front().stats.total_triangles);
      EXPECT_EQ(run.stats.wedge_checks, runs.front().stats.wedge_checks);
    }
  }
}

/// Streams `chain`'s factors at OMP 1/2/8 × shards 1/4/16 and checks every
/// run against the materialized product, and the chain's closed forms
/// against it, in any self-loop configuration; validate_product must pass
/// with the same report at every team and shard count. The
/// factor-membership test count depends on neither teams nor shards.
void expect_chain_parity(const kron::TriangleOracle& chain) {
  const Graph c = kron::kron_graph(chain.factors());
  const FullCensus ref = materialized_reference(c);
  std::optional<count_t> checks;
  for (const std::uint64_t shards : {1u, 4u, 16u}) {
    StreamingOptions opt;
    opt.force_shards = shards;
    const auto runs = with_thread_counts(
        [&] { return collect(StreamingCensus(chain.factors(), opt), c); });
    for (const auto& run : runs) {
      EXPECT_EQ(run.vertex, ref.vertex) << "shards=" << shards;
      EXPECT_EQ(run.edge, ref.edge) << "shards=" << shards;
      EXPECT_EQ(run.stats.total_triangles, runs.front().stats.total_triangles);
      if (!checks) checks = run.stats.wedge_checks;
      EXPECT_EQ(run.stats.wedge_checks, *checks) << "shards=" << shards;
    }
    const auto reports = with_thread_counts(
        [&] { return validate::validate_product(chain, opt); });
    for (const auto& r : reports) {
      EXPECT_TRUE(r.pass()) << "shards=" << shards;
      EXPECT_EQ(r.fingerprint(), reports.front().fingerprint());
    }
  }
  count_t vsum = 0;
  for (vid p = 0; p < chain.num_vertices(); ++p) {
    EXPECT_EQ(ref.vertex[p], chain.vertex_triangles(p)) << "vertex " << p;
    vsum += ref.vertex[p];
  }
  EXPECT_EQ(vsum, 3 * chain.total_triangles());
  for (const auto& [uv, d] : ref.edge) {
    EXPECT_EQ(d, chain.edge_triangles(uv.first, uv.second))
        << "edge (" << uv.first << "," << uv.second << ")";
  }
}

TEST_P(StreamingParity, ThreeFactorChainMatchesWorkspaceAndClosedForm) {
  expect_chain_parity(kron::TriangleOracle(
      {kt_test::random_undirected(5, 0.5, GetParam(), 0.3),
       kt_test::random_undirected(4, 0.5, GetParam() + 1),
       kt_test::random_undirected(3, 0.6, GetParam() + 2, 0.5)}));
}

TEST_P(StreamingParity, FourFactorChainMatchesWorkspaceAndClosedForm) {
  expect_chain_parity(kron::TriangleOracle(
      {kt_test::random_undirected(4, 0.6, GetParam() + 3, 0.4),
       kt_test::random_undirected(3, 0.7, GetParam() + 4, 0.5),
       kt_test::random_undirected(3, 0.7, GetParam() + 5),
       kt_test::random_undirected(3, 0.7, GetParam() + 6, 0.5)}));
}

TEST_P(StreamingParity, ThreeFactorChainWithLoopsInEveryFactor) {
  // Every factor looped: the four-term t_C and five-term Δ_C expansions.
  const kron::TriangleOracle chain(
      {kt_test::random_undirected(5, 0.5, GetParam() + 7, 0.5)
           .with_all_self_loops(),
       kt_test::random_undirected(4, 0.5, GetParam() + 8, 0.3)
           .with_all_self_loops(),
       kt_test::random_undirected(3, 0.6, GetParam() + 9, 1.0)});
  ASSERT_EQ(chain.vertex_expr().num_terms(), 4u);
  expect_chain_parity(chain);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingParity,
                         ::testing::Range<std::uint64_t>(0, 6));

// Factor sets that reach each branch of the block recursion.
TEST(StreamingBlocks, LoopsOnlyOnAnInnerFactor) {
  // Outer factors loop-free: no same-block test at level 0 passes, so the
  // inner loops only matter inside closed outer pairs.
  expect_chain_parity(kron::TriangleOracle(
      {gen::clique(4), gen::clique(3).with_all_self_loops(), gen::cycle(4)}));
  expect_chain_parity(kron::TriangleOracle(kt_test::random_undirected(6, 0.6, 41), kt_test::random_undirected(5, 0.6, 42, 0.6)));
}

TEST(StreamingBlocks, LoopedK1Factor) {
  // A looped K1 is one coordinate every vertex shares. Outermost, every
  // neighbor is in one level-0 block that pairs with itself. Innermost,
  // each level-0 block is a single neighbor, and the block at u's own
  // coordinate is u itself, dropped: an empty block.
  const Graph k1 = gen::clique(1).with_all_self_loops();
  const Graph x = kt_test::random_undirected(7, 0.5, 43, 0.5);
  expect_chain_parity(kron::TriangleOracle(k1, x));
  expect_chain_parity(kron::TriangleOracle(x, k1));
  expect_chain_parity(kron::TriangleOracle({x, k1, gen::clique(3)}));
  expect_chain_parity(kron::TriangleOracle({k1, k1, x}));
}

TEST(StreamingBlocks, FactorsWithIsolatedVertices) {
  // Empty rows give neighbor-free product vertices and empty blocks.
  const Graph sparse =
      Graph::from_edges(6, {{{0, 1}, {1, 2}, {0, 2}, {2, 2}, {3, 3}}}, true);
  expect_chain_parity(kron::TriangleOracle(sparse, gen::clique(3)));
  expect_chain_parity(
      kron::TriangleOracle(gen::clique(3).with_all_self_loops(), sparse));
  expect_chain_parity(kron::TriangleOracle(
      {sparse, kt_test::random_undirected(4, 0.6, 44, 0.5), sparse}));
}

// The walk names each neighbor by its row positions; these put u's own
// tuple (the hole) where the index arithmetic has edges.
TEST(StreamingBlocks, HoleAtTheFirstOrLastPositionOfABlock) {
  // In a looped star the center is first in its own row and each leaf is
  // last in its row {center, leaf}; in a looped path the two ends do the
  // same. u's hole then opens or closes a block at every level.
  const Graph star = gen::star(5).with_all_self_loops();
  const Graph path = gen::path(4).with_all_self_loops();
  expect_chain_parity(kron::TriangleOracle(star, path));
  expect_chain_parity(kron::TriangleOracle(path, star));
  expect_chain_parity(kron::TriangleOracle({star, path, star}));
}

TEST(StreamingBlocks, BlockLeftEmptyByTheHole) {
  // Behind a looped K1 prefix, a last-factor row {x} that loops at x makes
  // u's own innermost block u alone: it is empty once u is dropped, first,
  // inside or last among its sibling blocks of a looped K4 row.
  const Graph k1 = gen::clique(1).with_all_self_loops();
  const Graph lone = Graph::from_edges(
      4, {{{1, 1}, {0, 2}, {2, 3}, {0, 0}, {3, 3}}}, true);
  expect_chain_parity(kron::TriangleOracle(
      {k1, gen::clique(4).with_all_self_loops(), lone}));
  expect_chain_parity(kron::TriangleOracle(
      {gen::clique(3).with_all_self_loops(), k1, lone}));
}

TEST(StreamingBlocks, LoopsInEveryFactorAtEachChainLength) {
  for (const std::size_t k : {2u, 3u, 4u}) {
    SCOPED_TRACE(k);
    std::vector<Graph> factors;
    for (std::size_t f = 0; f < k; ++f) {
      factors.push_back(kt_test::random_undirected(k == 4 ? 3 : 5, 0.6,
                                                   50 + 10 * k + f)
                            .with_all_self_loops());
    }
    expect_chain_parity(kron::TriangleOracle(std::move(factors)));
  }
}

/// Σ_u of the block recursion's factor tests on a clique-like 2-factor
/// product: every vertex sees A-blocks holding `blocks` neighbors, every
/// pair of distinct A-coordinates is an A-edge, and B is a clique (plus
/// loops) on each block's coordinates. Level 0 tests each block against
/// itself (when it holds a pair) and every pair of non-empty blocks; each
/// passed pair (I, J) costs |I|·|J| B-tests, and each self-looped A-block
/// (`a_loops`) C(|I|, 2).
count_t block_checks(vid n, const std::vector<count_t>& blocks,
                     bool a_loops) {
  count_t per_u = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (blocks[i] >= 2) per_u += 1 + (a_loops ? blocks[i] * (blocks[i] - 1) / 2 : 0);
    for (std::size_t j = i + 1; j < blocks.size(); ++j) {
      if (blocks[i] > 0 && blocks[j] > 0) per_u += 1 + blocks[i] * blocks[j];
    }
  }
  return per_u * n;
}

TEST(StreamingBlocks, WedgeChecksFollowTheBlockClosedForm) {
  // Pinned so that a kernel that keeps counts right but stops pruning
  // fails: the unpruned loop tested each of the C(d, 2) pairs per vertex.
  for (const auto& [a, b] : {std::pair<vid, vid>{5, 4}, {6, 3}, {4, 7}}) {
    const count_t n = static_cast<count_t>(a) * b;
    // K_a ⊗ K_b: a−1 A-blocks of the B-row, b−1.
    const auto plain =
        StreamingCensus(gen::clique(a), gen::clique(b)).run();
    EXPECT_EQ(plain.wedge_checks,
              block_checks(n, std::vector<count_t>(a - 1, b - 1), false))
        << "K" << a << " x K" << b;
    // K_a ⊗ looped K_b: the B-row holds b entries (its own coordinate
    // too), and u is never its own neighbor since K_a has no loop.
    const auto looped_b = StreamingCensus(
        gen::clique(a), gen::clique(b).with_all_self_loops()).run();
    EXPECT_EQ(looped_b.wedge_checks,
              block_checks(n, std::vector<count_t>(a - 1, b), false))
        << "K" << a << " x J" << b;
    // Looped K_a ⊗ K_b: every A-block passes its self-loop test and pairs
    // its own B-coordinates.
    const auto looped_a = StreamingCensus(
        gen::clique(a).with_all_self_loops(), gen::clique(b)).run();
    EXPECT_EQ(looped_a.wedge_checks,
              block_checks(n, std::vector<count_t>(a, b - 1), true))
        << "J" << a << " x K" << b;
  }
  // Looped K_a ⊗ looped K_b: u is its own tuple, so the A-block at u's
  // coordinate holds b − 1 neighbors: one (no self-loop test) when b = 2,
  // none (no test at all) when b = 1.
  for (const auto& [a, b] : {std::pair<vid, vid>{5, 4}, {4, 2}, {5, 1}}) {
    const count_t n = static_cast<count_t>(a) * b;
    std::vector<count_t> blocks(a - 1, b);
    blocks.push_back(b - 1);
    const auto looped = StreamingCensus(gen::clique(a).with_all_self_loops(),
                                        gen::clique(b).with_all_self_loops())
                            .run();
    EXPECT_EQ(looped.wedge_checks, block_checks(n, blocks, true))
        << "J" << a << " x J" << b;
  }
}

/// Random graph on n vertices (a third of the pairs, half the loops) whose
/// hubs 0, 63 and 64 (those below n) are looped and adjacent to every
/// vertex: each hub row has degree exactly n, and hub h sits at position h
/// of its own row.
Graph hubbed(vid n, std::uint64_t seed) {
  const Graph g = kt_test::random_undirected(n, 0.33, seed, 0.5);
  std::vector<std::pair<vid, vid>> edges;
  for (vid u = 0; u < n; ++u) {
    for (const vid v : g.neighbors(u)) edges.emplace_back(u, v);
  }
  for (const vid h : {vid{0}, vid{63}, vid{64}}) {
    for (vid v = 0; h < n && v < n; ++v) edges.emplace_back(h, v);
  }
  return Graph::from_edges(n, edges, /*symmetrize=*/true);
}

// The last factor is closed by word-wide row masks; these put its rows on
// both sides of each word boundary.
TEST(StreamingMasks, LastFactorRowsAcrossWordBoundaries) {
  const Graph looped_k2 = gen::clique(2).with_all_self_loops();
  for (const vid n : {63u, 64u, 65u, 128u, 129u}) {
    SCOPED_TRACE(n);
    // Hub rows of degree n; u's own position reaches bits 63 and 64 once
    // n > 64. Behind a looped K2 every innermost block but u's own is a
    // whole row.
    expect_chain_parity(kron::TriangleOracle(looped_k2, hubbed(n, n)));
    // A loop-free clique row: d = n − 1, no gap, every mask bit set but
    // the diagonal's.
    expect_chain_parity(kron::TriangleOracle(gen::clique(3), gen::clique(n)));
  }
  // A looped K66: rows of 66, u at every position, masks all ones.
  expect_chain_parity(kron::TriangleOracle(gen::clique(3), gen::clique(66).with_all_self_loops()));
  // A star's center row spans 2 words while its leaves' masks hold only
  // the center (plus a leaf's own loop): sparse rows read bit by bit.
  expect_chain_parity(
      kron::TriangleOracle(looped_k2, gen::star(100).with_all_self_loops()));
  expect_chain_parity(kron::TriangleOracle(gen::clique(3), gen::star(70)));
}

TEST(StreamingMasks, EmptyAndSingletonLastFactorRows) {
  // Vertex 0: empty row; 1: only its loop (the whole row is u's gap);
  // 2–3: one neighbor each; 4–6: a looped triangle.
  const Graph b = Graph::from_edges(
      7, {{{1, 1}, {2, 3}, {4, 5}, {5, 6}, {4, 6}, {4, 4}, {5, 5}, {6, 6}}},
      true);
  expect_chain_parity(kron::TriangleOracle(gen::clique(3), b));
  expect_chain_parity(
      kron::TriangleOracle(gen::clique(3).with_all_self_loops(), b));
  expect_chain_parity(kron::TriangleOracle(b, b));
}

TEST(StreamingMasks, SingleFactorEngine) {
  // k = 1: the level-0 block is the whole neighbor list, closed by the
  // masks alone, and a looped vertex's block is its row less itself.
  expect_chain_parity(kron::TriangleOracle({hubbed(129, 7)}));
  expect_chain_parity(kron::TriangleOracle({gen::clique(65)}));
  expect_chain_parity(
      kron::TriangleOracle({kt_test::random_undirected(30, 0.4, 45, 0.5)}));
}

TEST(StreamingMasks, ThreeFactorChainWithAWideLoopedLastFactor) {
  expect_chain_parity(kron::TriangleOracle(
      {kt_test::random_undirected(3, 0.7, 46, 0.5),
       kt_test::random_undirected(3, 0.7, 47, 0.5), hubbed(70, 48)}));
  expect_chain_parity(kron::TriangleOracle(
      {gen::clique(3), kt_test::random_undirected(3, 0.7, 49),
       hubbed(66, 50)}));
}


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
  // here needs more than the budget alone, so the bound is exact) ...
  EXPECT_LE(stats.peak_accumulator_bytes, tight.mem_budget_bytes);
  // ... while the product's edge list alone would not fit in it.
  const esz nnz = kron::KronGraphView(a, b).nnz();
  EXPECT_GT(nnz * sizeof(kron::EdgeRecord), tight.mem_budget_bytes);
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

/// The report of `plan` run by a child `kronotri run` at an OpenMP team of
/// `threads`: the child's peak RSS is the run's alone.
util::json::Value run_child(const std::string& plan, int threads) {
  const std::string exe = runner::default_worker_exe();
  EXPECT_FALSE(exe.empty()) << "no kronotri binary beside the test";
  const std::string out = "/tmp/kronotri_validate_rss" +
                          std::to_string(::getpid()) + ".json";
  const std::string cmd = "OMP_NUM_THREADS=" + std::to_string(threads) +
                          " '" + exe + "' run --plan '" + plan +
                          "' --json " + out + " > /dev/null";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  const std::optional<std::string> text = util::journal::read_file(out);
  ::unlink(out.c_str());
  return text ? util::json::Value::parse(*text) : util::json::Value{};
}

TEST(StreamingMemory, ThreadsHoldNoProductRow) {
  // Each hub of star(101) ⊗ star(10001) has 10⁶ neighbors. The validator
  // walks a row by factor positions, so past the last factor's row masks
  // and the shard accumulators a run holds only the process's own state
  // (about 7 MiB); rows written out per thread took about 52 MiB.
  const std::string plan =
      "kron:(star:n=101)x(star:n=10001) validate:mem_budget=1M";
  std::vector<std::string> reports;
  for (const int threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    const util::json::Value r = run_child(plan, threads);
    ASSERT_TRUE(r.get_bool("pass", false));
    reports.push_back(runner::comparable(r).dump_canonical_string());
    const util::json::Value* data = nullptr;
    for (const util::json::Value& a : r.find("analyses")->items()) {
      if (a.get_string("name", "") == "validate") data = a.find("data");
    }
    ASSERT_NE(data, nullptr);
    ASSERT_EQ(data->get_uint("vertex_mismatches", 1), 0u);
    // Sanitizer shadow memory and quarantine are RSS too: only the plain
    // build's figure measures the validator.
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
    if (threads != 2) continue;
    const auto outside =
        static_cast<std::int64_t>(r.get_uint("peak_rss_bytes", 0)) -
        static_cast<std::int64_t>(
            r.find("counters")->get_uint("validate.mask_bytes", 0)) -
        static_cast<std::int64_t>(data->get_uint("peak_accumulator_bytes", 0));
    EXPECT_LE(outside, std::int64_t{16} << 20);
#endif
  }
  EXPECT_EQ(reports[1], reports[0]);
  EXPECT_EQ(reports[2], reports[0]);
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
      EXPECT_EQ(report.vertex.mismatches, 0u);
      EXPECT_EQ(report.edge.mismatches, 0u);
      EXPECT_EQ(report.measured_total, report.predicted_total);
      EXPECT_GT(report.stats.num_shards, 1u);
      // Histogram totals cover every vertex / edge exactly once.
      count_t vhist = 0, ehist = 0;
      for (const auto& [k, v] : report.vertex.histogram) vhist += v;
      for (const auto& [k, v] : report.edge.histogram) ehist += v;
      EXPECT_EQ(vhist, report.num_vertices);
      EXPECT_EQ(ehist, report.num_edges);
    }
  }
}

TEST(ValidationReport, ChainReportPassesAndCountsEdges) {
  const kron::TriangleOracle chain(
      {gen::holme_kim(30, 2, 0.5, 31), gen::clique(3),
       gen::path(3).with_all_self_loops()});
  const auto report = validate::validate_product(chain);
  EXPECT_TRUE(report.pass());
  EXPECT_TRUE(report.histogram_checked);
  EXPECT_EQ(report.predicted_vertex_histogram, chain.triangle_histogram());
  EXPECT_EQ(report.num_vertices, chain.num_vertices());
  EXPECT_EQ(report.num_edges,
            chain.num_undirected_edges() -
                static_cast<count_t>(
                    kron::kron_graph(chain.factors()).num_self_loops()));
}

/// g with the undirected edge {x, y} toggled: removed when present, added
/// when absent.
Graph toggle_edge(const Graph& g, vid x, vid y) {
  std::vector<std::pair<vid, vid>> edges;
  const std::pair<vid, vid> xy{std::min(x, y), std::max(x, y)};
  bool found = false;
  for (vid u = 0; u < g.num_vertices(); ++u) {
    for (const vid v : g.neighbors(u)) {
      if (v < u) continue;
      if (std::make_pair(u, v) == xy) {
        found = true;
      } else {
        edges.emplace_back(u, v);
      }
    }
  }
  if (!found) edges.push_back(xy);
  return Graph::from_edges(g.num_vertices(), edges, true);
}

/// A report's pointwise fields, computed the slow way: each measured count
/// of `ref` against the product-id point predictors of some closed forms.
struct PointwiseFold {
  count_t vertex_mismatches = 0;
  count_t vertex_max_abs_err = 0;
  count_t edge_mismatches = 0;
  count_t edge_max_abs_err = 0;
  count_t refused = 0;  ///< edges of C the forms' product lacks
};

PointwiseFold fold_by_brute_force(
    const FullCensus& ref, const std::function<count_t(vid)>& vertex,
    const std::function<std::optional<count_t>(vid, vid)>& edge) {
  const auto diff = [](count_t x, count_t y) { return x > y ? x - y : y - x; };
  PointwiseFold out;
  for (vid p = 0; p < ref.vertex.size(); ++p) {
    const count_t err = diff(ref.vertex[p], vertex(p));
    if (err == 0) continue;
    ++out.vertex_mismatches;
    out.vertex_max_abs_err = std::max(out.vertex_max_abs_err, err);
  }
  for (const auto& [uv, measured] : ref.edge) {
    const std::optional<count_t> predicted = edge(uv.first, uv.second);
    if (predicted == measured) continue;
    ++out.edge_mismatches;
    if (!predicted) ++out.refused;
    out.edge_max_abs_err = std::max(
        out.edge_max_abs_err, predicted ? diff(measured, *predicted) : measured);
  }
  return out;
}

/// Folds `census` against the closed forms t_C = `vertex`, Δ_C = `edge`
/// at OMP 1/2/8 and checks every run's pointwise fields against the
/// brute-force fold.
void expect_fold(const StreamingCensus& census,
                 const kron::KronVectorExpr& vertex,
                 const kron::KronMatrixExpr& edge, const FullCensus& ref,
                 const PointwiseFold& want) {
  const auto runs = with_thread_counts(
      [&] { return validate::validate_census(census, vertex, edge); });
  for (const auto& r : runs) {
    EXPECT_FALSE(r.pass());
    EXPECT_EQ(r.vertex.checked, ref.vertex.size());
    EXPECT_EQ(r.vertex.mismatches, want.vertex_mismatches);
    EXPECT_EQ(r.vertex.max_abs_err, want.vertex_max_abs_err);
    EXPECT_EQ(r.edge.checked, ref.edge.size());
    EXPECT_EQ(r.edge.mismatches, want.edge_mismatches);
    EXPECT_EQ(r.edge.max_abs_err, want.edge_max_abs_err);
    EXPECT_EQ(r.fingerprint(), runs.front().fingerprint());
  }
}

TEST(ValidationReport, CountsMismatchesAgainstWrongClosedForms) {
  // Census of A ⊗ B checked against the forms of A' ⊗ B, A' = A with one
  // edge removed or added. Removing a triangle edge makes the forms refuse
  // the product edges over it and mispredict the counts around it; adding
  // an edge only mispredicts.
  const Graph a = gen::holme_kim(24, 3, 0.6, 51);
  const Graph b = gen::clique(3).with_all_self_loops();
  const FullCensus ref = materialized_reference(kron::kron_graph(a, b));
  StreamingOptions opt;
  opt.force_shards = 4;
  const StreamingCensus census(a, b, opt);
  vid far = 1;
  while (a.has_edge(0, far)) ++far;
  for (const auto& [x, y] : {std::pair<vid, vid>{0, a.neighbors(0)[0]},
                             std::pair<vid, vid>{0, far}}) {
    const Graph wrong = toggle_edge(a, x, y);
    const kron::TriangleOracle oracle(wrong, b);
    const PointwiseFold want = fold_by_brute_force(
        ref, [&](vid p) { return oracle.vertex_triangles(p); },
        [&](vid p, vid q) { return oracle.edge_triangles(p, q); });
    EXPECT_GT(want.vertex_mismatches, 0u);
    EXPECT_GT(want.edge_mismatches, want.refused) << "no wrong value";
    EXPECT_EQ(want.refused > 0, a.has_edge(x, y)) << "refusals";
    expect_fold(census, oracle.vertex_expr(), oracle.edge_expr(), ref, want);
  }
}

TEST(ValidationReport, ChainCountsMismatchesAgainstWrongClosedForms) {
  const Graph f = gen::holme_kim(12, 2, 0.5, 53);
  const Graph looped = gen::path(3).with_all_self_loops();
  const kron::TriangleOracle chain({f, gen::clique(3), looped});
  const kron::TriangleOracle wrong(
      {toggle_edge(f, 0, f.neighbors(0)[0]), gen::clique(3), looped});
  const FullCensus ref =
      materialized_reference(kron::kron_graph(chain.factors()));
  const PointwiseFold want = fold_by_brute_force(
      ref, [&](vid p) { return wrong.vertex_triangles(p); },
      [&](vid p, vid q) { return wrong.edge_triangles(p, q); });
  EXPECT_GT(want.vertex_mismatches, 0u);
  EXPECT_GT(want.refused, 0u);
  EXPECT_GT(want.edge_mismatches, want.refused);
  StreamingOptions opt;
  opt.force_shards = 4;
  expect_fold(StreamingCensus(chain.factors(), opt), wrong.vertex_expr(),
              wrong.edge_expr(), ref, want);
}

TEST(ValidationReport, FingerprintIsTheSameAtEveryTeamSize) {
  const Graph a = gen::holme_kim(40, 3, 0.6, 5);
  const Graph b = gen::holme_kim(12, 2, 0.5, 6);
  const kron::TriangleOracle chain({gen::holme_kim(10, 2, 0.5, 7),
                                    gen::clique(3).with_all_self_loops(),
                                    gen::cycle(4)});
  for (const std::uint64_t shards : {1u, 4u, 16u}) {
    StreamingOptions opt;
    opt.force_shards = shards;
    std::vector<std::function<validate::ValidationReport()>> plans;
    for (const bool loops_a : {false, true}) {
      for (const bool loops_b : {false, true}) {
        plans.emplace_back([&, loops_a, loops_b] {
          return validate::validate_product(
              loops_a ? a.with_all_self_loops() : a,
              loops_b ? b.with_all_self_loops() : b, opt);
        });
      }
    }
    plans.emplace_back([&] { return validate::validate_product(chain, opt); });
    for (std::size_t i = 0; i < plans.size(); ++i) {
      const auto runs = with_thread_counts([&] { return plans[i](); });
      for (const auto& r : runs) {
        EXPECT_TRUE(r.pass()) << "plan " << i << " shards=" << shards;
        EXPECT_EQ(r.fingerprint(), runs.front().fingerprint())
            << "plan " << i << " shards=" << shards;
      }
    }
  }
  // Pinned digest: the report must not move when the fold's implementation
  // does.
  StreamingOptions four;
  four.force_shards = 4;
  EXPECT_EQ(validate::validate_product(a, b.with_all_self_loops(), four)
                .fingerprint(),
            0xf26a45034e6bc03aULL);
}

TEST(ValidationReport, FormsOfFactorCopiesGiveTheSameReport) {
  // Copies share no CSR with the census, so every factor slot is searched
  // instead of read off the neighbor odometer.
  const Graph a = gen::holme_kim(30, 3, 0.6, 61);
  const Graph b = kt_test::random_undirected(6, 0.5, 62, 0.5);
  for (const bool loops_a : {false, true}) {
    const Graph fa = loops_a ? a.with_all_self_loops() : a;
    // The census streams `own`'s factors; `copied` holds copies of them.
    const kron::TriangleOracle own_forms(fa, b), copied_forms(fa, b);
    const StreamingCensus census(own_forms.factors());
    const auto against = [&](const kron::TriangleOracle& oracle) {
      return validate::validate_census(census, oracle.vertex_expr(),
                                       oracle.edge_expr());
    };
    const auto own = against(own_forms);
    const auto copied = against(copied_forms);
    EXPECT_TRUE(own.pass());
    EXPECT_EQ(own.fingerprint(), copied.fingerprint());
  }
  // Forms of another product shape are refused up front.
  const kron::TriangleOracle other(b, a);
  EXPECT_THROW((void)validate::validate_census(StreamingCensus(a, b),
                                               other.vertex_expr(),
                                               other.edge_expr()),
               std::invalid_argument);
}

}  // namespace
