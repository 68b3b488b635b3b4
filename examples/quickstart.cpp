// Quickstart: describe the whole paper workflow — generate a Kronecker
// product, measure triangle statistics, validate against the closed forms —
// as ONE declarative RunPlan, execute it with api::run() (every analysis
// rides a single stream pass), and read the results off the RunReport.
// Then drop one level down to the oracle for per-edge ground truth.
//
//   ./quickstart
#include <iostream>

#include "kronotri.hpp"

int main() {
  using namespace kronotri;

  // The plan, in shorthand: factor A is the paper's Ex. 2 hub-cycle
  // (5 vertices, 8 edges, 4 triangles), factor B a triangle with self
  // loops (self loops boost triangle counts in the product, Rem. 3).
  // census rides the stream pass with a per-edge oracle census, degree
  // fans out alongside it through the same TeeSink, and validate checks
  // every vertex and edge count against the closed forms.
  api::RunPlan plan = api::RunPlan::parse(
      "kron:(hubcycle)x(clique:n=3,loops=1) census:edges=1 degree:measured=1 "
      "validate");
  plan.options.threads = 2;

  const api::RunReport report = api::run(plan);
  report.print(std::cout);

  // The report is a typed tree: pull one number back out.
  const count_t triangles =
      report.analyses[0].data.find("total_triangles")->as_uint();
  std::cout << "\nC has exactly " << triangles
            << " triangles (report pass: " << (report.pass ? "yes" : "no")
            << ")\n";

  // Everything above is also one CLI call (a single shell line):
  //   kronotri run --json report.json
  //     --plan "kron:(hubcycle)x(clique:n=3,loops=1) census:edges=1 degree validate"

  // Below the plan API: the oracle gives exact per-vertex / per-edge
  // ground truth straight from the factors.
  const auto& registry = api::GeneratorRegistry::builtin();
  const Graph a = registry.build("hubcycle");
  const Graph b = registry.build("clique:n=3,loops=1");
  const kron::TriangleOracle oracle(a, b);

  std::cout << "\nexact per-vertex ground truth (first block):\n";
  for (vid p = 0; p < b.num_vertices(); ++p) {
    std::cout << "  vertex " << p << ": degree " << oracle.degree(p)
              << ", triangles " << oracle.vertex_triangles(p) << "\n";
  }

  // The first few streamed edges, annotated via the batched pull API.
  std::cout << "\nfirst streamed edges with inline ground truth:\n";
  kron::EdgeStream stream(a, b);
  kron::EdgeRecord first[5];
  const std::size_t got = stream.next_batch(first);
  for (std::size_t i = 0; i < got; ++i) {
    std::cout << "  (" << first[i].u << "," << first[i].v
              << ") participates in "
              << *oracle.edge_triangles(first[i].u, first[i].v)
              << " triangles\n";
  }
  return report.pass ? 0 : 1;
}
