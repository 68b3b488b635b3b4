// Multi-factor Kronecker chains: the k-factor generalization used by the
// paper's companion work [3] for extreme-scale benchmark generation.
// Three 300-vertex factors already give a 27-million-vertex product with
// billions of edges; exact triangle statistics at any vertex or edge still
// cost only factor-sized work.
//
//   ./multi_factor [--n 300] [--k 3] [--seed 37]
#include <iostream>

#include "kronotri.hpp"

int main(int argc, char** argv) {
  using namespace kronotri;
  const util::Cli cli(argc, argv);
  const vid n = cli.get_uint("n", 300);
  const std::size_t k = cli.get_uint("k", 3);
  const std::uint64_t seed = cli.get_uint("seed", 37);

  // Describe the whole product as one kron spec and let the registry build
  // the factor list — the chain itself stays implicit.
  std::string spec = "kron:";
  for (std::size_t i = 0; i < k; ++i) {
    spec += (i ? "x(" : "(") + std::string("hk:n=") + std::to_string(n) +
            ",m=3,p=0.6,seed=" + std::to_string(seed + i) + ")";
  }
  std::vector<Graph> factors = api::GeneratorRegistry::builtin().build_factors(
      api::GraphSpec::parse(spec));
  obs::Stopwatch timer;
  const kron::KronChain chain(factors);
  const count_t tau = chain.total_triangles();
  const double secs = timer.wall_s();

  std::cout << "C = ";
  for (std::size_t i = 0; i < k; ++i) std::cout << (i ? " (x) A" : "A") << i + 1;
  std::cout << ", each factor " << n << " vertices:\n"
            << "  vertices:  "
            << util::human(static_cast<double>(chain.num_vertices())) << "\n"
            << "  edges:     "
            << util::human(static_cast<double>(chain.num_undirected_edges()))
            << "\n"
            << "  triangles: " << util::commas(tau) << " (exact, " << secs
            << " s)\n\n";

  std::cout << "point queries (exact):\n";
  for (const vid p : {vid{0}, chain.num_vertices() / 3,
                      chain.num_vertices() - 1}) {
    std::cout << "  vertex " << p << ": degree " << chain.nonloop_degree(p)
              << ", triangles " << chain.vertex_triangles(p) << "\n";
  }

  // Verify the whole machinery against a materialized small chain.
  std::vector<Graph> small;
  for (std::size_t i = 0; i < 3; ++i) {
    small.push_back(api::GeneratorRegistry::builtin().build(
        "hk:n=8,m=2,p=0.6,seed=" + std::to_string(seed + 100 + i)));
  }
  const kron::KronChain sc(small);
  const Graph m = sc.materialize();
  const auto t = triangle::participation_vertices(m);
  bool ok = sc.total_triangles() == triangle::count_total(m);
  for (vid p = 0; p < m.num_vertices(); ++p) {
    ok &= sc.vertex_triangles(p) == t[p];
  }
  std::cout << "\n3-factor verification against a materialized "
            << m.num_vertices() << "-vertex product: "
            << (ok ? "exact match" : "MISMATCH") << "\n";
  return ok ? 0 : 1;
}
