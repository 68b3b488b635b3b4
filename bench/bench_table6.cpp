// E1 — the paper's §VI table (its only table): exact vertex/edge/triangle
// counts of A, B = A+I, A⊗A and A⊗B computed from factor statistics, with
// the wall time and wedge-check work counter the paper quotes ("about 10.5
// seconds on a commodity laptop ... 7,734,429 wedge checks").
//
// The factor is our web-NotreDame stand-in (same vertex count, scale-free,
// triangle-rich; see DESIGN.md "Substitutions"). Shape to compare with the
// paper: |E(A⊗A)| = nnz(A)²/2 lands in the trillions, τ(A⊗A) = 6·τ(A)²,
// and the A⊗B column is strictly larger in both edges and triangles.
#include "common.hpp"
#include "kronotri.hpp"

namespace {

using namespace kronotri;

constexpr vid kNotreDameVertices = 325729;

Graph make_factor(vid n) { return gen::holme_kim(n, 3, 0.6, 1803); }

void print_artifact() {
  kt_bench::banner("E1 (Table, §VI)",
                   "trillion-edge census from factor statistics");
  obs::Stopwatch gen_timer;
  const Graph a = make_factor(kNotreDameVertices);
  const Graph b = a.with_all_self_loops();
  std::cout << "factor: Holme-Kim n=" << kNotreDameVertices
            << " (web-NotreDame stand-in), generated in "
            << gen_timer.wall_s() << " s\n\n";

  obs::Stopwatch census;
  const auto stats_a = triangle::analyze(a);
  const count_t tau_aa = kron::total_triangles(a, a);
  const count_t tau_ab = kron::total_triangles(a, b);
  const double census_s = census.wall_s();

  const kron::KronGraphView caa(a, a), cab(a, b);
  util::Table t({"Matrix", "Vertices", "Edges", "Triangles"});
  auto h = [](count_t v) { return util::human(static_cast<double>(v)); };
  t.row({"A", h(a.num_vertices()), h(a.num_undirected_edges()),
         h(stats_a.total)});
  t.row({"B = A+I", h(b.num_vertices()), h(b.num_undirected_edges()),
         h(stats_a.total)});
  t.row({"A (x) A", h(caa.num_vertices()), h(caa.num_undirected_edges()),
         h(tau_aa)});
  t.row({"A (x) B", h(cab.num_vertices()), h(cab.num_undirected_edges()),
         h(tau_ab)});
  t.print(std::cout);
  std::cout << "\nboth product censuses: " << census_s << " s, "
            << util::commas(stats_a.wedge_checks)
            << " wedge checks on the factor\n"
            << "paper (web-NotreDame): 10.5 s, 7,734,429 wedge checks; "
               "106.1B vertices, 2.38T/2.73T edges, 111.4T/141.0T triangles\n"
            << "identities held: tau(A (x) A) == 6 tau(A)^2: "
            << (tau_aa == 6 * stats_a.total * stats_a.total ? "yes" : "NO")
            << ", |E| multiplicative: "
            << (caa.nnz() == a.nnz() * a.nnz() ? "yes" : "NO") << "\n";
}

void bm_factor_census(benchmark::State& state) {
  const Graph a = make_factor(static_cast<vid>(state.range(0)));
  for (auto _ : state) {
    const auto stats = triangle::analyze(a);
    benchmark::DoNotOptimize(stats.total);
  }
  state.counters["edges"] = static_cast<double>(a.num_undirected_edges());
}
BENCHMARK(bm_factor_census)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);

void bm_product_total_triangles(benchmark::State& state) {
  const Graph a = make_factor(static_cast<vid>(state.range(0)));
  const Graph b = a.with_all_self_loops();
  for (auto _ : state) {
    benchmark::DoNotOptimize(kron::total_triangles(a, b));
  }
  state.counters["product_edges"] = static_cast<double>(
      static_cast<double>(a.nnz()) * static_cast<double>(b.nnz()) / 2);
}
BENCHMARK(bm_product_total_triangles)
    ->Arg(10000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void bm_oracle_construction(benchmark::State& state) {
  const Graph a = make_factor(static_cast<vid>(state.range(0)));
  const Graph b = a.with_all_self_loops();
  for (auto _ : state) {
    const kron::TriangleOracle oracle(a, b);
    benchmark::DoNotOptimize(oracle.total_triangles());
  }
}
BENCHMARK(bm_oracle_construction)->Arg(10000)->Unit(benchmark::kMillisecond);

void bm_oracle_vertex_query(benchmark::State& state) {
  const Graph a = make_factor(10000);
  const Graph b = a.with_all_self_loops();
  const kron::TriangleOracle oracle(a, b);
  vid p = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(oracle.vertex_triangles(p));
    p = (p * 2654435761u + 1) % oracle.num_vertices();
  }
}
BENCHMARK(bm_oracle_vertex_query);

}  // namespace

KT_BENCH_MAIN(print_artifact)
