// The paper's raison d'être as a workflow: validate a triangle-counting
// IMPLEMENTATION (which knows nothing about Kronecker structure) on a graph
// whose exact answer is known.
//
//  1. Build C = A ⊗ B implicitly; the oracle knows every t_C[p] exactly.
//  2. Materialize C's edge list (what the implementation under test sees).
//  3. Run the implementation under test — here, this library's own
//     structure-oblivious forward kernel, plus a deliberately broken
//     variant to show a failure is caught.
//  4. Diff the implementation's per-vertex counts against the oracle.
//
//   ./validate_implementation [--na 60] [--nb 50] [--seed 31]
//                             [--dump prefix]   (writes edge list + truth)
#include <iostream>

#include "kronotri.hpp"

namespace {

using namespace kronotri;

/// "Implementation under test": counts per-vertex triangles from the edge
/// list alone (no Kronecker structure used).
std::vector<count_t> implementation_under_test(const Graph& c) {
  return triangle::participation_vertices(c);
}

/// A subtly broken implementation: forgets that the forward kernel's
/// orientation already dedupes triangles and drops one wedge direction.
std::vector<count_t> broken_implementation(const Graph& c) {
  std::vector<count_t> t = triangle::participation_vertices(c);
  for (std::size_t v = 0; v < t.size(); v += 7) {
    if (t[v] > 0) --t[v];  // off-by-one on every 7th vertex
  }
  return t;
}

std::size_t diff_count(const std::vector<count_t>& got,
                       const std::vector<count_t>& expected) {
  std::size_t bad = 0;
  for (std::size_t v = 0; v < expected.size(); ++v) {
    bad += got[v] != expected[v] ? 1u : 0u;
  }
  return bad;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  const vid na = cli.get_uint("na", 60);
  const vid nb = cli.get_uint("nb", 50);
  const std::uint64_t seed = cli.get_uint("seed", 31);

  const auto& registry = api::GeneratorRegistry::builtin();
  const Graph a = registry.build("hk:n=" + std::to_string(na) +
                                 ",m=3,p=0.7,seed=" + std::to_string(seed));
  const Graph b = registry.build("hk:n=" + std::to_string(nb) +
                                 ",m=2,p=0.7,seed=" + std::to_string(seed + 1) +
                                 ",loops=1");
  const kron::TriangleOracle oracle(a, b);

  std::cout << "benchmark instance C = A (x) B: " << oracle.num_vertices()
            << " vertices, " << oracle.num_undirected_edges() << " edges, "
            << util::commas(oracle.total_triangles())
            << " triangles (known exactly before any counting)\n";

  // What an external tool would receive: the edge stream collected into an
  // explicit graph through the sink pipeline (C is born streamed, not
  // materialized from a Kronecker routine).
  api::CooCollectorSink collector;
  api::stream_into(a, b, collector);
  const Graph c = collector.to_graph(oracle.num_vertices());
  std::vector<count_t> expected(c.num_vertices());
  for (vid p = 0; p < c.num_vertices(); ++p) {
    expected[p] = oracle.vertex_triangles(p);
  }
  if (cli.has("dump")) {
    const std::string prefix = cli.get("dump", "kron_benchmark");
    io::write_edge_list(c, prefix + ".edges");
    io::write_vertex_counts(expected, prefix + ".truth");
    std::cout << "wrote " << prefix << ".edges and " << prefix
              << ".truth for external tools\n";
  }

  obs::Stopwatch timer;
  const auto got = implementation_under_test(c);
  const std::size_t bad = diff_count(got, expected);
  std::cout << "\nimplementation under test: " << timer.wall_s() << " s, "
            << bad << "/" << expected.size() << " vertices wrong — "
            << (bad == 0 ? "PASS" : "FAIL") << "\n";

  const auto broken = broken_implementation(c);
  const std::size_t bad2 = diff_count(broken, expected);
  std::cout << "deliberately broken variant: " << bad2 << "/"
            << expected.size() << " vertices wrong — "
            << (bad2 > 0 ? "correctly caught (FAIL)" : "NOT CAUGHT?!")
            << "\n";

  return bad == 0 && bad2 > 0 ? 0 : 1;
}
