// E5 — Thm 3 + §III.D(b): products with a KNOWN truss decomposition.
// B comes from the paper's preferential-attachment generator (every edge in
// ≤ 1 triangle); the truss decomposition of C = A ⊗ B is then read off the
// decomposition of A alone. The table compares the oracle's per-κ edge
// counts against direct peeling of the materialized product, and the
// microbenchmarks quantify the speedup of knowing over peeling.
#include "common.hpp"
#include "kronotri.hpp"

namespace {

using namespace kronotri;

void print_artifact() {
  kt_bench::banner("E5 (Thm 3 / §III.D(b))", "known truss decomposition");
  const Graph a = gen::erdos_renyi(24, 0.35, 17);
  const Graph b = gen::one_triangle_pa(40, 18);
  std::cout << "A: ER(24, 0.35), " << a.num_undirected_edges() << " edges; "
            << "B: one-triangle PA, 40 vertices, " << b.num_undirected_edges()
            << " edges (Δ_B ≤ 1: "
            << (truss::edges_in_at_most_one_triangle(b) ? "yes" : "NO")
            << ")\n\n";

  obs::Stopwatch oracle_timer;
  const truss::KronTrussOracle oracle(a, b);
  const double oracle_s = oracle_timer.wall_s();

  obs::Stopwatch direct_timer;
  const Graph c = kron::kron_graph(a, b);
  const auto direct = truss::decompose(c);
  const double direct_s = direct_timer.wall_s();

  util::Table t({"kappa", "|T^kappa| via Thm 3", "|T^kappa| direct peel",
                 "agree"});
  const count_t top = std::max(oracle.max_truss(), direct.max_truss);
  for (count_t kappa = 3; kappa <= top; ++kappa) {
    const count_t o = oracle.edges_in_truss(kappa);
    const count_t d = direct.edges_in_truss(kappa);
    t.row({std::to_string(kappa), util::commas(o), util::commas(d),
           o == d ? "yes" : "NO"});
  }
  t.print(std::cout);
  std::cout << "\nC has " << util::commas(c.num_undirected_edges())
            << " edges; oracle " << oracle_s << " s vs direct peel "
            << direct_s << " s ("
            << (oracle_s > 0 ? direct_s / oracle_s : 0.0) << "x)\n";

  // Per-edge agreement.
  count_t checked = 0, agree = 0;
  for (vid p = 0; p < c.num_vertices(); ++p) {
    for (const vid q : c.neighbors(p)) {
      ++checked;
      agree += oracle.truss_number(p, q) == direct.truss_number.at(p, q);
    }
  }
  std::cout << "per-edge truss numbers: " << agree << "/" << checked
            << " agree\n";
}

void bm_thm3_oracle(benchmark::State& state) {
  const Graph a = gen::erdos_renyi(static_cast<vid>(state.range(0)), 0.3, 21);
  const Graph b = gen::one_triangle_pa(4000, 22);
  for (auto _ : state) {
    const truss::KronTrussOracle oracle(a, b);
    benchmark::DoNotOptimize(oracle.edges_in_truss(3));
  }
  state.counters["product_edges"] = static_cast<double>(
      kron::KronGraphView(a, b).num_undirected_edges());
}
BENCHMARK(bm_thm3_oracle)->Arg(24)->Arg(48)->Unit(benchmark::kMicrosecond);

void bm_direct_truss_of_product(benchmark::State& state) {
  const Graph a = gen::erdos_renyi(static_cast<vid>(state.range(0)), 0.3, 21);
  const Graph b = gen::one_triangle_pa(40, 22);
  const Graph c = kron::kron_graph(a, b);
  for (auto _ : state) {
    const auto t = truss::decompose(c);
    benchmark::DoNotOptimize(t.max_truss);
  }
  state.counters["product_edges"] =
      static_cast<double>(c.num_undirected_edges());
}
BENCHMARK(bm_direct_truss_of_product)
    ->Arg(24)
    ->Arg(48)
    ->Unit(benchmark::kMillisecond);

void bm_one_triangle_pa_generation(benchmark::State& state) {
  const vid n = static_cast<vid>(state.range(0));
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const Graph b = gen::one_triangle_pa(n, seed++);
    benchmark::DoNotOptimize(b.nnz());
  }
}
BENCHMARK(bm_one_triangle_pa_generation)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

KT_BENCH_MAIN(print_artifact)
