// E10 — the §I complexity claim: counting τ(C) through the Kronecker
// formula costs O(|E_C|^{3/4}) worst case (triangle-count the two factors),
// versus O(|E_C|^{3/2}) for a direct count that ignores the product
// structure. The table sweeps factor sizes, materializes C while that is
// still feasible, and reports both times — the gap widens superlinearly and
// direct counting falls off a cliff long before the paper's trillion-edge
// regime.
#include "common.hpp"
#include "kronotri.hpp"

namespace {

using namespace kronotri;

void print_artifact() {
  kt_bench::banner("E10 (§I complexity claim)",
                   "Kronecker-formula census vs direct count on C");
  util::Table t({"factor n", "|E(C)|", "tau(C)", "formula (s)", "direct (s)",
                 "speedup"});
  for (const vid n : {40u, 80u, 160u, 320u}) {
    const Graph f = api::GeneratorRegistry::builtin().build(
        "hk:n=" + std::to_string(n) + ",m=3,p=0.7,seed=59");

    obs::Stopwatch formula_timer;
    const count_t tau_formula = kron::total_triangles(f, f);
    const double formula_s = formula_timer.wall_s();

    const Graph c = kron::kron_graph(f, f);
    obs::Stopwatch direct_timer;
    const count_t tau_direct = triangle::count_total(c);
    const double direct_s = direct_timer.wall_s();

    char speed[32];
    std::snprintf(speed, sizeof speed, "%.1fx",
                  formula_s > 0 ? direct_s / formula_s : 0.0);
    t.row({std::to_string(n),
           util::commas(c.num_undirected_edges()),
           util::commas(tau_formula), std::to_string(formula_s),
           std::to_string(direct_s),
           tau_formula == tau_direct ? speed : "COUNT MISMATCH"});
  }
  t.print(std::cout);
  std::cout << "\nformula cost grows with the FACTOR edge count "
               "(O(|E_C|^1/2) objects); direct cost with the PRODUCT — at "
               "paper scale (|E_C| ~ 10^12) only the formula path is "
               "feasible at all.\n";
}

void bm_formula_census(benchmark::State& state) {
  const Graph f = gen::holme_kim(static_cast<vid>(state.range(0)), 3, 0.7, 61);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kron::total_triangles(f, f));
  }
  state.counters["E_C"] = static_cast<double>(f.nnz()) *
                          static_cast<double>(f.nnz()) / 2.0;
}
BENCHMARK(bm_formula_census)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void bm_direct_census_of_product(benchmark::State& state) {
  const Graph f = gen::holme_kim(static_cast<vid>(state.range(0)), 3, 0.7, 61);
  const Graph c = kron::kron_graph(f, f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(triangle::count_total(c));
  }
  state.counters["E_C"] = static_cast<double>(c.num_undirected_edges());
}
BENCHMARK(bm_direct_census_of_product)
    ->Arg(100)
    ->Arg(200)
    ->Unit(benchmark::kMillisecond);

}  // namespace

KT_BENCH_MAIN(print_artifact)
