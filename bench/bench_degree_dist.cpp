// E11 — §III.A / §IV.B degree structure: d_C = d_A ⊗ d_B, the exact degree
// histogram of the product by factor-histogram convolution, the max-ratio
// SQUARING law ‖d_C‖∞/n_C = (‖d_A‖∞/n_A)(‖d_B‖∞/n_B), and heavy-tail
// persistence (log-log slope).
#include <cmath>

#include "common.hpp"
#include "kronotri.hpp"

namespace {

using namespace kronotri;

void print_artifact() {
  kt_bench::banner("E11 (§III.A / §IV.B)", "degree distribution structure");
  const Graph a = gen::holme_kim(50000, 3, 0.6, 67);
  const Graph b = gen::barabasi_albert(20000, 2, 68);

  const auto sa = analysis::summarize_degrees(a);
  const auto sb = analysis::summarize_degrees(b);
  obs::Stopwatch timer;
  const auto sc = analysis::summarize_kron_degrees(a, b);
  const double conv_s = timer.wall_s();

  auto fmt = [](double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.3g", v);
    return std::string(buf);
  };
  util::Table t({"graph", "vertices", "max degree", "mean", "max/n",
                 "loglog slope"});
  auto row = [&](const std::string& name, count_t n,
                 const analysis::DegreeSummary& s) {
    t.row({name, util::human(static_cast<double>(n)),
           util::commas(s.max_degree), fmt(s.mean_degree), fmt(s.max_ratio),
           fmt(s.loglog_slope)});
  };
  row("A (Holme-Kim)", a.num_vertices(), sa);
  row("B (Barabasi-Albert)", b.num_vertices(), sb);
  row("C = A (x) B", a.num_vertices() * b.num_vertices(), sc);
  t.print(std::cout);

  std::cout << "\nmax-ratio squaring law: (maxA/nA)*(maxB/nB) = "
            << fmt(sa.max_ratio * sb.max_ratio) << " vs measured "
            << fmt(sc.max_ratio) << " — "
            << (std::abs(sa.max_ratio * sb.max_ratio - sc.max_ratio) <
                        1e-12
                    ? "exact"
                    : "MISMATCH")
            << "\n";
  std::cout << "exact product degree histogram ("
            << util::commas(sc.histogram.size())
            << " distinct degrees over "
            << util::human(static_cast<double>(a.num_vertices()) *
                           static_cast<double>(b.num_vertices()))
            << " vertices) computed in " << conv_s
            << " s by factor-histogram convolution\n";
  std::cout << "\nno prime degree above max(d_A)·1 can appear unless a "
               "factor provides it — d_C values are exactly the pairwise "
               "products (the paper's 'not a perfect power law' remark).\n";

  // Contribution (d): triangle distributions transfer the same way. The
  // exact t_C histogram of the 10⁹-vertex product, factor-side.
  obs::Stopwatch tri_timer;
  const kron::TriangleOracle oracle(a, b);
  const auto th = oracle.triangle_histogram();
  const double tri_s = tri_timer.wall_s();
  count_t nonzero_vertices = 0, max_t = 0;
  for (const auto& [tval, cnt] : th) {
    if (tval > 0) nonzero_vertices += cnt;
    max_t = std::max(max_t, tval);
  }
  std::cout << "\ntriangle-participation distribution of C (exact, "
            << tri_s << " s): " << util::commas(th.size())
            << " distinct values, max t_p = " << util::commas(max_t) << ", "
            << util::human(static_cast<double>(nonzero_vertices))
            << " vertices in >=1 triangle\n";
}

void bm_degree_convolution(benchmark::State& state) {
  const Graph a = gen::holme_kim(static_cast<vid>(state.range(0)), 3, 0.6, 69);
  const Graph b = gen::barabasi_albert(static_cast<vid>(state.range(0)), 2, 70);
  for (auto _ : state) {
    const auto s = analysis::summarize_kron_degrees(a, b);
    benchmark::DoNotOptimize(s.max_degree);
  }
}
BENCHMARK(bm_degree_convolution)
    ->Arg(10000)
    ->Arg(50000)
    ->Unit(benchmark::kMillisecond);

void bm_degree_vector_formula(benchmark::State& state) {
  const Graph a = gen::holme_kim(10000, 3, 0.6, 71);
  const Graph b = a.with_all_self_loops();
  const auto expr = kron::degrees(a, b);
  vid p = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(expr.at(p));
    p = (p * 2654435761u + 7) % expr.size();
  }
}
BENCHMARK(bm_degree_vector_formula);

}  // namespace

KT_BENCH_MAIN(print_artifact)
