// E8 — Fig. 6 + Thms 6/7: the vertex-labeled triangle census with |L| = 3
// colors: (|L|+1 choose 2) = 6 types per vertex label, |L| types per edge
// label pair, lifted exactly to the product with inherited labels.
#include "common.hpp"
#include "kronotri.hpp"

namespace {

using namespace kronotri;

void print_artifact() {
  kt_bench::banner("E8 (Fig. 6, Thms 6-7)", "labeled triangle census");
  const std::uint32_t big_l = 3;
  const Graph a = gen::holme_kim(3000, 3, 0.6, 43);
  const triangle::Labeling lab = gen::random_labels(3000, big_l, 44);
  const Graph b = gen::clique(3).with_all_self_loops();
  static const char* kColor[] = {"r", "g", "b"};

  std::cout << "A: 3000 vertices, " << a.num_undirected_edges()
            << " edges, labels {r,g,b}; B = K3+I; C = A (x) B with labels "
               "inherited from A\n\n";

  obs::Stopwatch timer;
  util::Table t({"type", "t total (A)", "t total (C)", "Δ total (C)"});
  for (std::uint32_t q1 = 0; q1 < big_l; ++q1) {
    for (std::uint32_t q2 = 0; q2 < big_l; ++q2) {
      for (std::uint32_t q3 = q2; q3 < big_l; ++q3) {
        const auto tv = kron::labeled_vertex_triangles(a, lab, b, q1, q2, q3);
        count_t factor_total = 0;
        for (const count_t v : tv.terms()[0].a) factor_total += v;
        const auto dv = kron::labeled_edge_triangles(a, lab, b, q1, q2, q3);
        t.row({std::string("R") + kColor[q1] + "(" + kColor[q2] + kColor[q3] +
                   ")",
               util::commas(factor_total), util::commas(tv.sum()),
               util::commas(dv.sum())});
      }
    }
  }
  const double census_s = timer.wall_s();
  t.print(std::cout);
  std::cout << "\nall 18 vertex types + edge types lifted in " << census_s
            << " s\n";

  // Brute-force verification on a small materialized product.
  const Graph small_a = gen::holme_kim(40, 3, 0.6, 45);
  const auto small_lab = gen::random_labels(40, big_l, 46);
  const Graph small_c = kron::kron_graph(small_a, b);
  const auto lc = kron::kron_labeling(small_lab, b.num_vertices());
  bool ok = true;
  for (std::uint32_t q1 = 0; q1 < big_l; ++q1) {
    for (std::uint32_t q2 = 0; q2 < big_l; ++q2) {
      for (std::uint32_t q3 = q2; q3 < big_l; ++q3) {
        ok &= kron::labeled_vertex_triangles(small_a, small_lab, b, q1, q2, q3)
                  .expand() ==
              triangle::brute::labeled_vertex_participation(small_c, lc, q1,
                                                            q2, q3);
      }
    }
  }
  std::cout << "brute-force verification on a materialized 120-vertex "
               "product: "
            << (ok ? "all labeled types agree" : "MISMATCH") << "\n";
}

void bm_labeled_vertex_type(benchmark::State& state) {
  const Graph a = gen::holme_kim(static_cast<vid>(state.range(0)), 3, 0.6, 47);
  const auto lab =
      gen::random_labels(static_cast<vid>(state.range(0)), 3, 48);
  for (auto _ : state) {
    const auto t = triangle::labeled_vertex_participation(a, lab, 0, 1, 2);
    benchmark::DoNotOptimize(t.size());
  }
}
BENCHMARK(bm_labeled_vertex_type)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void bm_labeled_full_census(benchmark::State& state) {
  const Graph a = gen::holme_kim(static_cast<vid>(state.range(0)), 3, 0.6, 49);
  const auto lab =
      gen::random_labels(static_cast<vid>(state.range(0)), 3, 50);
  for (auto _ : state) {
    const auto census = triangle::labeled_census(a, lab);
    benchmark::DoNotOptimize(census.at_vertices.size());
  }
}
BENCHMARK(bm_labeled_full_census)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

KT_BENCH_MAIN(print_artifact)
