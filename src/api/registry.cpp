#include "api/registry.hpp"

#include <mutex>
#include <stdexcept>

#include "core/io.hpp"
#include "gen/classic.hpp"
#include "gen/one_triangle_pa.hpp"
#include "gen/prune.hpp"
#include "gen/random.hpp"
#include "gen/rmat.hpp"
#include "kron/product.hpp"

namespace kronotri::api {

void GeneratorRegistry::add(std::string family, std::string help,
                            Factory factory) {
  const std::unique_lock lock(mutex_);
  if (factories_.emplace(family, factory).second) {
    help_.emplace_back(family, std::move(help));
  } else {
    factories_[family] = std::move(factory);
    for (auto& [name, text] : help_) {
      if (name == family) text = help;
    }
  }
}

bool GeneratorRegistry::contains(const std::string& family) const {
  const std::shared_lock lock(mutex_);
  return family == "kron" || factories_.count(family) > 0;
}

Graph GeneratorRegistry::build_unlocked(const GraphSpec& spec) const {
  Graph g = [&] {
    if (spec.is_kron()) {
      return kron::kron_graph(build_factors_unlocked(spec));
    }
    const auto it = factories_.find(spec.family);
    if (it == factories_.end()) {
      throw std::invalid_argument("GeneratorRegistry: unknown family \"" +
                                  spec.family + "\"");
    }
    return it->second(spec);
  }();
  if (spec.get_bool("prune", false)) {
    g = gen::prune_to_one_triangle(g, spec.get_uint("seed", 0));
  }
  if (spec.get_bool("loops", false)) g = g.with_all_self_loops();
  return g;
}

Graph GeneratorRegistry::build(const GraphSpec& spec) const {
  const std::shared_lock lock(mutex_);
  return build_unlocked(spec);
}

Graph GeneratorRegistry::build(std::string_view spec_text) const {
  return build(GraphSpec::parse(spec_text));
}

std::vector<Graph> GeneratorRegistry::build_factors_unlocked(
    const GraphSpec& spec) const {
  std::vector<Graph> out;
  if (!spec.is_kron()) {
    out.push_back(build_unlocked(spec));
    return out;
  }
  out.reserve(spec.factors.size());
  for (const GraphSpec& f : spec.factors) out.push_back(build_unlocked(f));
  return out;
}

std::vector<Graph> GeneratorRegistry::build_factors(
    const GraphSpec& spec) const {
  const std::shared_lock lock(mutex_);
  return build_factors_unlocked(spec);
}

std::vector<std::pair<std::string, std::string>> GeneratorRegistry::families()
    const {
  const std::shared_lock lock(mutex_);
  auto out = help_;
  out.emplace_back("kron",
                   "kron:(spec)x(spec)[x(spec)…] — Kronecker product of the "
                   "factor specs (materialized when built as one graph)");
  return out;
}

GeneratorRegistry& GeneratorRegistry::builtin() {
  static GeneratorRegistry* reg = [] {
    auto* r = new GeneratorRegistry();
    r->add("clique", "K_n: n (loops=1 gives J_n = K_n + I)",
           [](const GraphSpec& s) { return gen::clique(s.get_uint("n", 5)); });
    r->add("cycle", "cycle on n >= 3 vertices: n",
           [](const GraphSpec& s) { return gen::cycle(s.get_uint("n", 5)); });
    r->add("path", "path on n vertices: n",
           [](const GraphSpec& s) { return gen::path(s.get_uint("n", 5)); });
    r->add("star", "star, vertex 0 joined to 1…n-1: n",
           [](const GraphSpec& s) { return gen::star(s.get_uint("n", 5)); });
    r->add("bipartite", "complete bipartite K_{a,b}: a, b",
           [](const GraphSpec& s) {
             return gen::complete_bipartite(s.get_uint("a", 3),
                                            s.get_uint("b", 3));
           });
    r->add("hubcycle", "the Ex. 2 / Fig. 3 hub-cycle graph (no params)",
           [](const GraphSpec&) { return gen::hub_cycle(); });
    r->add("er", "Erdős–Rényi G(n,p): n, p, seed",
           [](const GraphSpec& s) {
             return gen::erdos_renyi(s.get_uint("n", 1000),
                                     s.get_double("p", 0.01),
                                     s.get_uint("seed", 1));
           });
    r->add("er-m", "Erdős–Rényi G(n,m), exactly m edges: n, m, seed",
           [](const GraphSpec& s) {
             return gen::erdos_renyi_m(s.get_uint("n", 1000),
                                       s.get_uint("m", 2000),
                                       s.get_uint("seed", 1));
           });
    r->add("ba", "Barabási–Albert preferential attachment: n, m, seed",
           [](const GraphSpec& s) {
             return gen::barabasi_albert(s.get_uint("n", 1000),
                                         s.get_uint("m", 3),
                                         s.get_uint("seed", 1));
           });
    r->add("hk", "Holme–Kim (BA + triad closure): n, m, p, seed",
           [](const GraphSpec& s) {
             return gen::holme_kim(s.get_uint("n", 1000), s.get_uint("m", 3),
                                   s.get_double("p", 0.5),
                                   s.get_uint("seed", 1));
           });
    r->add("rmat",
           "R-MAT / stochastic Kronecker: scale, ef (edge factor), a, b, c, "
           "seed (d = 1-a-b-c)",
           [](const GraphSpec& s) {
             gen::RmatParams p;
             p.a = s.get_double("a", p.a);
             p.b = s.get_double("b", p.b);
             p.c = s.get_double("c", p.c);
             p.d = s.get_double("d", 1.0 - p.a - p.b - p.c);
             return gen::rmat(
                 static_cast<unsigned>(s.get_uint("scale", 10)),
                 s.get_uint("ef", 16), p, s.get_uint("seed", 1));
           });
    r->add("onetri",
           "§III.D(b) one-triangle-PA (scale-free, Δ ≤ 1): n, seed",
           [](const GraphSpec& s) {
             return gen::one_triangle_pa(s.get_uint("n", 1000),
                                         s.get_uint("seed", 1));
           });
    // Real datasets as specs: run plans and CLI graph arguments reference
    // edge-list files through the same registry as the synthetic families.
    // (Paths containing ',' or ')' cannot be spelled in the spec grammar.)
    r->add("file",
           "edge-list file: path, symmetrize=0/1, drop_loops=0/1",
           [](const GraphSpec& s) {
             const std::string path = s.get("path", "");
             if (path.empty()) {
               throw std::invalid_argument("file: param path is required");
             }
             io::ReadOptions opts;
             opts.symmetrize = s.get_bool("symmetrize", false);
             opts.drop_self_loops = s.get_bool("drop_loops", false);
             return io::read_edge_list(path, opts);
           });
    return r;
  }();
  return *reg;
}

}  // namespace kronotri::api
