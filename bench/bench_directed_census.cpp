// E6/E7 — Fig. 4 + Thm 4 (vertices) and Fig. 5 + Thm 5 (edges): the
// 15-flavor directed triangle census of a factor, lifted exactly to the
// product. The table lists, per flavor, the factor totals and the product
// totals t^{(τ)}(C) = t^{(τ)}(A)·Σdiag(B³) — verified against brute-force
// classification on a small materialized product.
#include "common.hpp"
#include "kronotri.hpp"

namespace {

using namespace kronotri;

Graph make_directed_factor(vid n, std::uint64_t seed) {
  return gen::randomly_orient(gen::holme_kim(n, 3, 0.5, seed), 0.35,
                              seed + 1);
}

void print_artifact() {
  kt_bench::banner("E6/E7 (Figs. 4-5, Thms 4-5)",
                   "directed triangle census at vertices and edges");
  const Graph a = make_directed_factor(3000, 29);
  const Graph b = gen::clique(3);
  const auto parts = triangle::split_directed(a);
  std::cout << "A: 3000 vertices, " << parts.ar.nnz()
            << " reciprocal slots + " << parts.ad.nnz()
            << " directed edges; B = K3\n\n";

  obs::Stopwatch timer;
  const auto vertex_exprs = kron::directed_vertex_triangles(a, b);
  const auto edge_exprs = kron::directed_edge_triangles(a, b);
  const double lift_s = timer.wall_s();

  util::Table t({"flavor", "t total (A)", "t total (C)", "Δ total (C)"});
  for (int f = 0; f < triangle::kNumVertexTriTypes; ++f) {
    const auto& expr = vertex_exprs[static_cast<std::size_t>(f)];
    count_t factor_total = 0;
    for (const count_t v : expr.terms()[0].a) factor_total += v;
    t.row({std::string(triangle::to_string(
               static_cast<triangle::VertexTriType>(f))),
           util::commas(factor_total), util::commas(expr.sum()),
           util::commas(edge_exprs[static_cast<std::size_t>(f)].sum())});
  }
  t.print(std::cout);
  std::cout << "\nfull 15+15 census and lift: " << lift_s << " s\n";

  // Cross-check on a small materialized product.
  const Graph small_a = make_directed_factor(48, 31);
  const Graph small_c = kron::kron_graph(small_a, b);
  const auto lifted = kron::directed_vertex_triangles(small_a, b);
  const auto direct = triangle::brute::directed_vertex_census(small_c);
  bool ok = true;
  for (int f = 0; f < triangle::kNumVertexTriTypes; ++f) {
    ok &= lifted[static_cast<std::size_t>(f)].expand() ==
          direct[static_cast<std::size_t>(f)];
  }
  std::cout << "brute-force verification on a materialized 144-vertex "
               "product: "
            << (ok ? "all 15 flavors agree" : "MISMATCH") << "\n";
}

void bm_directed_vertex_census(benchmark::State& state) {
  const Graph a =
      make_directed_factor(static_cast<vid>(state.range(0)), 37);
  for (auto _ : state) {
    const auto census = triangle::directed_vertex_census(a);
    benchmark::DoNotOptimize(census[0].size());
  }
}
BENCHMARK(bm_directed_vertex_census)
    ->Arg(1000)
    ->Arg(5000)
    ->Unit(benchmark::kMillisecond);

void bm_directed_edge_census(benchmark::State& state) {
  const Graph a =
      make_directed_factor(static_cast<vid>(state.range(0)), 37);
  for (auto _ : state) {
    const auto census = triangle::directed_edge_census(a);
    benchmark::DoNotOptimize(census[0].nnz());
  }
}
BENCHMARK(bm_directed_edge_census)
    ->Arg(1000)
    ->Arg(5000)
    ->Unit(benchmark::kMillisecond);

void bm_split_directed(benchmark::State& state) {
  const Graph a = make_directed_factor(5000, 41);
  for (auto _ : state) {
    const auto parts = triangle::split_directed(a);
    benchmark::DoNotOptimize(parts.ad.nnz());
  }
}
BENCHMARK(bm_split_directed)->Unit(benchmark::kMillisecond);

}  // namespace

KT_BENCH_MAIN(print_artifact)
