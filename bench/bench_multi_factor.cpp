// Extension bench (not a paper artifact): multi-factor Kronecker chains
// A₁ ⊗ … ⊗ A_k — the construction the paper's companion work [3] uses for
// extreme-scale generation. Shows how product size explodes with k while
// exact census cost stays factor-sized, and verifies a materialized
// three-factor chain.
#include "common.hpp"
#include "kronotri.hpp"

namespace {

using namespace kronotri;

void print_artifact() {
  kt_bench::banner("Extension ([3]-style chains)",
                   "k-factor Kronecker products with exact census");
  util::Table t({"k", "vertices", "edges", "triangles (exact)",
                 "census time (s)"});
  for (std::size_t k = 1; k <= 5; ++k) {
    std::vector<Graph> factors;
    for (std::size_t i = 0; i < k; ++i) {
      factors.push_back(api::GeneratorRegistry::builtin().build(
          "hk:n=200,m=3,p=0.6,seed=" + std::to_string(111 + i)));
    }
    obs::Stopwatch timer;
    const kron::KronChain chain(factors);
    const count_t tau = chain.total_triangles();
    const double secs = timer.wall_s();
    t.row({std::to_string(k),
           util::human(static_cast<double>(chain.num_vertices())),
           util::human(static_cast<double>(chain.num_undirected_edges())),
           util::commas(tau), std::to_string(secs)});
  }
  t.print(std::cout);

  // Verification against a materialized 3-chain.
  std::vector<Graph> small;
  for (std::size_t i = 0; i < 3; ++i) {
    small.push_back(gen::holme_kim(9, 2, 0.6, 222 + i));
  }
  const kron::KronChain sc(small);
  const Graph m = sc.materialize();
  std::cout << "\n3-factor check vs materialized " << m.num_vertices()
            << "-vertex product: "
            << (sc.total_triangles() == triangle::count_total(m)
                    ? "exact match"
                    : "MISMATCH")
            << "\n";
}

void bm_chain_census(benchmark::State& state) {
  std::vector<Graph> factors;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    factors.push_back(
        gen::holme_kim(500, 3, 0.6, 333 + static_cast<std::uint64_t>(i)));
  }
  const kron::KronChain chain(factors);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.total_triangles());
  }
}
BENCHMARK(bm_chain_census)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

void bm_chain_vertex_query(benchmark::State& state) {
  std::vector<Graph> factors;
  for (int i = 0; i < 4; ++i) {
    factors.push_back(
        gen::holme_kim(500, 3, 0.6, 444 + static_cast<std::uint64_t>(i)));
  }
  const kron::KronChain chain(factors);
  (void)chain.vertex_triangles(0);  // force stat precompute
  vid p = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.vertex_triangles(p));
    p = (p * 2654435761u + 3) % chain.num_vertices();
  }
}
BENCHMARK(bm_chain_vertex_query);

}  // namespace

KT_BENCH_MAIN(print_artifact)
