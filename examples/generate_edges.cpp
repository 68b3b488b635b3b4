// Communication-free partitioned edge generation (§I / [3]) on the pipeline
// facade: build the factors from a generator spec, then either emit one
// partition of E_C through a text sink, or fan all partitions out over
// worker threads with stream_parallel — each worker owns its stream and its
// sink, and no worker ever talks to another.
//
//   ./generate_edges [--spec "hk:n=200,m=3,p=0.6,seed=23"] [--n 200]
//                    [--seed 23] [--part 0] [--nparts 4] [--threads 0]
//                    [--out edges.txt] [--limit 10]
//
// --n/--seed feed the default Holme–Kim spec; --spec overrides them. With
// --threads T > 0 the whole edge set is written to --out.part0 …
// --out.part(T-1) in parallel; otherwise only partition --part/--nparts is
// emitted (to stdout, first --limit edges, unless --out is given).
#include <fstream>
#include <iostream>
#include <memory>

#include "kronotri.hpp"

int main(int argc, char** argv) {
  using namespace kronotri;
  const util::Cli cli(argc, argv);
  const std::string spec =
      cli.get("spec", "hk:n=" + std::to_string(cli.get_uint("n", 200)) +
                          ",m=3,p=0.6,seed=" +
                          std::to_string(cli.get_uint("seed", 23)));
  const std::uint64_t part = cli.get_uint("part", 0);
  const std::uint64_t nparts = cli.get_uint("nparts", 4);
  const std::uint64_t limit = cli.get_uint("limit", 10);
  const auto nthreads = static_cast<unsigned>(cli.get_uint("threads", 0));

  const Graph a = api::GeneratorRegistry::builtin().build(spec);
  const Graph b = a.with_all_self_loops();
  const kron::KronGraphView c(a, b);

  std::cout << "C = A (x) (A+I), A = " << spec << ": "
            << util::human(static_cast<double>(c.num_vertices()))
            << " vertices, "
            << util::human(static_cast<double>(c.num_undirected_edges()))
            << " edges\n";

  if (nthreads > 0) {
    const std::string base = cli.get("out", "edges.txt");
    std::vector<std::unique_ptr<std::ofstream>> files;
    obs::Stopwatch timer;
    auto sinks = api::stream_parallel(
        a, b, nthreads,
        [&](std::uint64_t p, std::uint64_t) -> std::unique_ptr<api::EdgeSink> {
          files.push_back(std::make_unique<std::ofstream>(
              base + ".part" + std::to_string(p)));
          return std::make_unique<api::TextEdgeSink>(*files.back());
        });
    const double secs = timer.wall_s();
    esz total = 0;
    for (const auto& s : sinks) total += s->edges_consumed();
    std::cout << "streamed " << util::commas(total) << " edges into "
              << sinks.size() << " partition files in " << secs << " s ("
              << util::human(static_cast<double>(total) / secs)
              << " edges/s)\n";
    return 0;
  }

  obs::Stopwatch timer;
  esz emitted = 0;
  if (cli.has("out")) {
    std::ofstream file(cli.get("out", ""));
    if (!file) {
      std::cerr << "cannot open output file\n";
      return 1;
    }
    api::TextEdgeSink sink(file);
    api::StreamOptions options;
    options.part = part;
    options.nparts = nparts;
    emitted = api::stream_into(a, b, sink, options);
  } else {
    // Annotated preview on stdout: each edge with its exact Δ(e). The
    // oracle is only built on this path — the write paths don't need it.
    const kron::TriangleOracle oracle(a, b);
    kron::EdgeStream stream(a, b, part, nparts);
    std::cout << "partition " << part << "/" << nparts << " carries "
              << util::commas(stream.partition_size()) << " stored entries\n";
    while (auto e = stream.next()) {
      if (emitted < limit) {
        std::cout << e->u << ' ' << e->v << ' '
                  << *oracle.edge_triangles(e->u, e->v) << '\n';
      } else if (emitted == limit) {
        std::cout << "  … (pass --out to write the full partition)\n";
      }
      ++emitted;
    }
  }
  const double secs = timer.wall_s();
  std::cout << "emitted " << util::commas(emitted) << " edges in " << secs
            << " s ("
            << util::human(static_cast<double>(emitted) / secs)
            << " edges/s)\n";
  return 0;
}
