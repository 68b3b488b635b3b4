// Graphs with a KNOWN truss decomposition (§III.D + Thm 3): pair any factor
// A with a §III.D(b)-generated B (every edge in ≤ 1 triangle) and the truss
// decomposition of the trillion-scale product is determined by the small
// decomposition of A — no peeling of C required. A benchmark-grade
// instrument: run your truss implementation on C and compare against the
// oracle.
//
//   ./truss_designer [--na 40] [--nb 2000] [--pa 0.3] [--seed 17]
#include <iostream>

#include "kronotri.hpp"

int main(int argc, char** argv) {
  using namespace kronotri;
  const util::Cli cli(argc, argv);
  const vid na = cli.get_uint("na", 40);
  const vid nb = cli.get_uint("nb", 2000);
  const double pa = cli.get_double("pa", 0.3);
  const std::uint64_t seed = cli.get_uint("seed", 17);

  const auto& registry = api::GeneratorRegistry::builtin();
  const Graph a = registry.build(
      "er:n=" + std::to_string(na) + ",p=" + cli.get("pa", "0.3") +
      ",seed=" + std::to_string(seed));
  const Graph b = registry.build("onetri:n=" + std::to_string(nb) +
                                 ",seed=" + std::to_string(seed + 1));
  std::cout << "A: ER(" << na << ", " << pa << ") with "
            << a.num_undirected_edges() << " edges\n";
  std::cout << "B: one-triangle PA graph, " << nb << " vertices, "
            << b.num_undirected_edges() << " edges, Δ_B ≤ 1: "
            << (truss::edges_in_at_most_one_triangle(b) ? "yes" : "NO")
            << "\n";

  obs::Stopwatch timer;
  const truss::KronTrussOracle oracle(a, b);
  std::cout << "C = A (x) B: " << na * nb << " vertices, "
            << kron::KronGraphView(a, b).num_undirected_edges()
            << " edges — truss decomposition known in " << timer.wall_s()
            << " s (decomposed only A)\n\n";

  util::Table table({"kappa", "|T^kappa(A)|", "|T^kappa(C)|"});
  const auto& ta = oracle.factor_a_truss();
  for (count_t kappa = 3; kappa <= oracle.max_truss(); ++kappa) {
    table.row({std::to_string(kappa), util::commas(ta.edges_in_truss(kappa)),
               util::commas(oracle.edges_in_truss(kappa))});
  }
  table.print(std::cout);

  // Verify on a small instance by materializing and peeling C directly.
  const Graph a_small = registry.build(
      "er:n=8,p=0.5,seed=" + std::to_string(seed + 2));
  const Graph b_small = registry.build(
      "onetri:n=12,seed=" + std::to_string(seed + 3));
  const truss::KronTrussOracle small_oracle(a_small, b_small);
  const Graph c_small = kron::kron_graph(a_small, b_small);
  const auto direct = truss::decompose(c_small);
  bool ok = direct.max_truss == small_oracle.max_truss();
  for (vid p = 0; p < c_small.num_vertices() && ok; ++p) {
    for (const vid q : c_small.neighbors(p)) {
      if (small_oracle.truss_number(p, q) != direct.truss_number.at(p, q)) {
        ok = false;
        break;
      }
    }
  }
  std::cout << "\nsmall-instance verification (materialize + peel C, "
            << c_small.num_undirected_edges() << " edges): "
            << (ok ? "oracle matches direct decomposition" : "MISMATCH")
            << "\n";
  return ok ? 0 : 1;
}
