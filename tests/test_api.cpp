// Tests for the pipeline facade: GraphSpec parsing, the GeneratorRegistry
// (every built-in family + kron composition + modifiers), and the EdgeSink
// implementations.
#include <gtest/gtest.h>

#include <cstring>

#ifdef _OPENMP
#include <omp.h>
#endif
#include <memory>
#include <sstream>
#include <stdexcept>

#include "api/analysis.hpp"
#include "api/pipeline.hpp"
#include "api/plan.hpp"
#include "api/registry.hpp"
#include "api/sink.hpp"
#include "api/spec.hpp"
#include "analysis/components.hpp"
#include "analysis/degree.hpp"
#include "gen/classic.hpp"
#include "gen/random.hpp"
#include "kron/multi.hpp"
#include "kron/oracle.hpp"
#include "kron/product.hpp"
#include "kron/view.hpp"
#include "runner/runner.hpp"
#include "triangle/count.hpp"
#include "truss/decompose.hpp"
#include "truss/kron_truss.hpp"

namespace {

using namespace kronotri;
using api::GeneratorRegistry;
using api::GraphSpec;

TEST(GraphSpec, ParsesFamilyAndParams) {
  const auto s = GraphSpec::parse("hk:n=5000,m=3,p=0.6,seed=7");
  EXPECT_EQ(s.family, "hk");
  EXPECT_EQ(s.get_uint("n", 0), 5000u);
  EXPECT_EQ(s.get_uint("m", 0), 3u);
  EXPECT_DOUBLE_EQ(s.get_double("p", 0.0), 0.6);
  EXPECT_EQ(s.get_uint("seed", 0), 7u);
  EXPECT_FALSE(s.is_kron());
  EXPECT_TRUE(s.has("n"));
  EXPECT_FALSE(s.has("q"));
}

TEST(GraphSpec, ParsesBareFamily) {
  const auto s = GraphSpec::parse("hubcycle");
  EXPECT_EQ(s.family, "hubcycle");
  EXPECT_TRUE(s.params.empty());
}

TEST(GraphSpec, ParsesKronComposition) {
  const auto s =
      GraphSpec::parse("kron:(hk:n=300,seed=3)x(clique:n=3,loops=1)");
  ASSERT_TRUE(s.is_kron());
  ASSERT_EQ(s.factors.size(), 2u);
  EXPECT_EQ(s.factors[0].family, "hk");
  EXPECT_EQ(s.factors[1].family, "clique");
  EXPECT_TRUE(s.factors[1].get_bool("loops", false));
}

TEST(GraphSpec, ParsesNestedKronAndOuterParams) {
  const auto s = GraphSpec::parse(
      "kron:(kron:(clique:n=3)x(cycle:n=4))x(path:n=2):loops=1");
  ASSERT_TRUE(s.is_kron());
  ASSERT_EQ(s.factors.size(), 2u);
  EXPECT_TRUE(s.factors[0].is_kron());
  EXPECT_TRUE(s.get_bool("loops", false));
}

TEST(GraphSpec, RoundTripsThroughToString) {
  for (const char* text :
       {"hubcycle", "hk:m=3,n=5000,p=0.6,seed=7",
        "kron:(clique:n=3)x(hk:n=10,seed=2)",
        "kron:(kron:(clique:n=3)x(cycle:n=4))x(path:n=2):loops=1"}) {
    const auto s = GraphSpec::parse(text);
    EXPECT_EQ(s.to_string(), text);
    const auto reparsed = GraphSpec::parse(s.to_string());
    EXPECT_EQ(reparsed.to_string(), s.to_string());
  }
}

TEST(GraphSpec, RejectsMalformedInput) {
  EXPECT_THROW(GraphSpec::parse(""), std::invalid_argument);
  EXPECT_THROW(GraphSpec::parse(":n=1"), std::invalid_argument);
  EXPECT_THROW(GraphSpec::parse("hk:n"), std::invalid_argument);
  EXPECT_THROW(GraphSpec::parse("hk:=3"), std::invalid_argument);
  EXPECT_THROW(GraphSpec::parse("kron:(clique:n=3)"), std::invalid_argument);
  EXPECT_THROW(GraphSpec::parse("kron:(clique:n=3"), std::invalid_argument);
  EXPECT_THROW(GraphSpec::parse("kron:(clique:n=3)x(cycle:n=4)junk"),
               std::invalid_argument);
}

TEST(Registry, BuildsEveryBuiltinFamily) {
  const auto& reg = GeneratorRegistry::builtin();
  EXPECT_EQ(reg.build("clique:n=5"), gen::clique(5));
  EXPECT_EQ(reg.build("clique:n=4,loops=1"), gen::clique_with_loops(4));
  EXPECT_EQ(reg.build("cycle:n=6"), gen::cycle(6));
  EXPECT_EQ(reg.build("path:n=7"), gen::path(7));
  EXPECT_EQ(reg.build("star:n=8"), gen::star(8));
  EXPECT_EQ(reg.build("bipartite:a=3,b=4"), gen::complete_bipartite(3, 4));
  EXPECT_EQ(reg.build("hubcycle"), gen::hub_cycle());
  EXPECT_EQ(reg.build("er:n=50,p=0.2,seed=9"), gen::erdos_renyi(50, 0.2, 9));
  EXPECT_EQ(reg.build("er-m:n=50,m=100,seed=9"),
            gen::erdos_renyi_m(50, 100, 9));
  EXPECT_EQ(reg.build("ba:n=50,m=2,seed=9"), gen::barabasi_albert(50, 2, 9));
  EXPECT_EQ(reg.build("hk:n=50,m=2,p=0.4,seed=9"),
            gen::holme_kim(50, 2, 0.4, 9));
  // rmat/onetri: structural sanity (they are seeded-deterministic too).
  const Graph r = reg.build("rmat:scale=6,ef=4,seed=3");
  EXPECT_EQ(r.num_vertices(), 64u);
  EXPECT_TRUE(r.is_undirected());
  const Graph o = reg.build("onetri:n=80,seed=3");
  EXPECT_EQ(o.num_vertices(), 80u);
  EXPECT_TRUE(truss::edges_in_at_most_one_triangle(o));
}

TEST(Registry, UnknownFamilyAndParamValidation) {
  const auto& reg = GeneratorRegistry::builtin();
  EXPECT_THROW(reg.build("frobnicate:n=3"), std::invalid_argument);
  EXPECT_FALSE(reg.contains("frobnicate"));
  EXPECT_TRUE(reg.contains("hk"));
  EXPECT_TRUE(reg.contains("kron"));
  EXPECT_THROW(reg.build("clique:n=3,loops=maybe"), std::invalid_argument);
}

TEST(Registry, KronSpecMaterializesTheProduct) {
  const auto& reg = GeneratorRegistry::builtin();
  const Graph c = reg.build("kron:(hubcycle)x(clique:n=3,loops=1)");
  const Graph expected =
      kron::kron_graph(gen::hub_cycle(), gen::clique_with_loops(3));
  EXPECT_EQ(c, expected);
}

TEST(Registry, ThreeFactorKronMatchesKronChain) {
  const auto& reg = GeneratorRegistry::builtin();
  const Graph c =
      reg.build("kron:(clique:n=3)x(cycle:n=4)x(hk:n=6,m=2,p=0.5,seed=1)");
  std::vector<Graph> factors = {gen::clique(3), gen::cycle(4),
                                gen::holme_kim(6, 2, 0.5, 1)};
  EXPECT_EQ(c, kron::KronChain(factors).materialize());
}

TEST(Registry, BuildFactorsReturnsFactorListWithoutMaterializing) {
  const auto& reg = GeneratorRegistry::builtin();
  const auto fs = reg.build_factors(
      GraphSpec::parse("kron:(hubcycle)x(clique:n=3,loops=1)"));
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_EQ(fs[0], gen::hub_cycle());
  EXPECT_EQ(fs[1], gen::clique_with_loops(3));
  const auto single = reg.build_factors(GraphSpec::parse("clique:n=4"));
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0], gen::clique(4));
}

TEST(Registry, ModifiersApplyPruneThenLoops) {
  const auto& reg = GeneratorRegistry::builtin();
  const Graph pruned = reg.build("hk:n=60,m=3,p=0.7,seed=4,prune=1");
  EXPECT_TRUE(truss::edges_in_at_most_one_triangle(pruned));
  const Graph both = reg.build("hk:n=60,m=3,p=0.7,seed=4,prune=1,loops=1");
  EXPECT_EQ(both, pruned.with_all_self_loops());
}

TEST(Registry, CustomFamilyRegistration) {
  GeneratorRegistry reg;
  reg.add("two-cliques", "disjoint K_n pair: n", [](const GraphSpec& s) {
    const vid n = s.get_uint("n", 3);
    std::vector<std::pair<vid, vid>> edges;
    for (vid u = 0; u < n; ++u) {
      for (vid v = u + 1; v < n; ++v) {
        edges.emplace_back(u, v);
        edges.emplace_back(n + u, n + v);
      }
    }
    return Graph::from_edges(2 * n, edges, true);
  });
  EXPECT_TRUE(reg.contains("two-cliques"));
  const Graph g = reg.build("two-cliques:n=4");
  EXPECT_EQ(g.num_vertices(), 8u);
  EXPECT_EQ(triangle::count_total(g), 8u);  // 2 × C(4,3)
}

TEST(Registry, FamiliesListingCoversAllBuiltins) {
  const auto fams = GeneratorRegistry::builtin().families();
  std::size_t found = 0;
  for (const char* want : {"clique", "cycle", "path", "star", "bipartite",
                           "hubcycle", "er", "er-m", "ba", "hk", "rmat",
                           "onetri", "kron"}) {
    for (const auto& [name, help] : fams) {
      if (name == want) {
        ++found;
        EXPECT_FALSE(help.empty()) << name;
      }
    }
  }
  EXPECT_EQ(found, 13u);
}

// ---- sinks -----------------------------------------------------------------

TEST(Sinks, TextSinkWritesEdgeLines) {
  const Graph a = gen::path(3);
  std::ostringstream os;
  api::TextEdgeSink sink(os);
  api::stream_into(a, a, sink);
  std::istringstream is(os.str());
  std::size_t lines = 0;
  vid u = 0, v = 0;
  while (is >> u >> v) ++lines;
  EXPECT_EQ(lines, a.nnz() * a.nnz());
  EXPECT_EQ(sink.edges_consumed(), a.nnz() * a.nnz());
}

TEST(Sinks, BinarySinkRoundTrips) {
  const Graph a = gen::clique(4);
  std::ostringstream os;
  api::BinaryEdgeSink sink(os);
  api::stream_into(a, a, sink);
  const std::string bytes = os.str();
  ASSERT_EQ(bytes.size(), a.nnz() * a.nnz() * 2 * sizeof(vid));
  // Reinterpret and compare against the per-edge stream.
  kron::EdgeStream s(a, a);
  const char* p = bytes.data();
  while (auto e = s.next()) {
    vid u = 0, v = 0;
    std::memcpy(&u, p, sizeof(vid));
    std::memcpy(&v, p + sizeof(vid), sizeof(vid));
    p += 2 * sizeof(vid);
    EXPECT_EQ(u, e->u);
    EXPECT_EQ(v, e->v);
  }
}

TEST(Sinks, CooCollectorMaterializesTheProduct) {
  const Graph a = gen::hub_cycle();
  const Graph b = gen::clique(3);
  api::CooCollectorSink sink;
  api::stream_into(a, b, sink);
  const Graph c =
      sink.to_graph(a.num_vertices() * b.num_vertices());
  EXPECT_EQ(c, kron::kron_graph(a, b));
}

TEST(Sinks, DegreeCensusMatchesTheView) {
  const Graph a = gen::holme_kim(30, 2, 0.6, 2);
  const Graph b = a.with_all_self_loops();
  api::DegreeCensusSink sink(a.num_vertices() * b.num_vertices());
  api::stream_into(a, b, sink);
  const kron::KronGraphView c(a, b);
  for (vid p = 0; p < c.num_vertices(); ++p) {
    EXPECT_EQ(sink.degrees()[p], c.out_degree(p)) << "vertex " << p;
  }
}

TEST(Sinks, TriangleCensusMatchesOracleTotals) {
  const Graph a = gen::holme_kim(25, 2, 0.7, 6);
  const Graph b = a;  // loop-free product: every stored entry is off-diagonal
  const kron::TriangleOracle oracle(a, b);
  api::TriangleCensusSink sink(oracle);
  api::stream_into(a, b, sink);
  // Σ_e Δ(e) over stored (directed) entries = 2·Σ_{undirected e} Δ(e)
  // = 2·3·τ(C): each triangle has 3 edges, each edge stored twice.
  EXPECT_EQ(sink.triangle_sum(), 6 * oracle.total_triangles());
}


// ---- finish() idempotence & TeeSink ---------------------------------------

TEST(Sinks, FinishIsIdempotentAcrossTheHierarchy) {
  const Graph a = gen::clique(4);
  std::ostringstream os;
  auto text = std::make_unique<api::TextEdgeSink>(os);
  api::TextEdgeSink* text_ptr = text.get();
  std::vector<std::unique_ptr<api::EdgeSink>> children;
  children.push_back(std::move(text));
  api::TeeSink tee(std::move(children));
  api::stream_into(a, a, tee);  // pump() calls tee.finish()
  EXPECT_TRUE(tee.finished());
  EXPECT_TRUE(text_ptr->finished());
  const std::string once = os.str();
  // Nested / repeated finish() calls must not re-flush or double-write.
  text_ptr->finish();
  tee.finish();
  tee.finish();
  EXPECT_EQ(os.str(), once);
  EXPECT_EQ(tee.edges_consumed(), a.nnz() * a.nnz());
  EXPECT_EQ(text_ptr->edges_consumed(), a.nnz() * a.nnz());
}

/// Runs one stream_parallel pass per sink kind (two passes) and one pass
/// with a TeeSink carrying both, at the given partition count, and expects
/// bit-identical counts.
void expect_tee_bit_identical(const Graph& a, const Graph& b,
                              unsigned partitions) {
  const kron::KronGraphView view(a, b);
  const kron::TriangleOracle oracle(a, b);
  const vid n = view.num_vertices();

  const auto merge_degree = [&](auto& sinks, auto&& get) {
    api::DegreeCensusSink merged(n);
    for (auto& s : sinks) merged.merge(get(*s));
    return merged;
  };

  // Two independent passes.
  auto deg_sinks = api::stream_parallel(
      a, b, partitions, [&](std::uint64_t, std::uint64_t) {
        return std::make_unique<api::DegreeCensusSink>(n);
      });
  auto tri_sinks = api::stream_parallel(
      a, b, partitions, [&](std::uint64_t, std::uint64_t) {
        return std::make_unique<api::TriangleCensusSink>(oracle);
      });
  api::DegreeCensusSink deg_ref = merge_degree(deg_sinks, [](api::EdgeSink& s)
      -> const api::DegreeCensusSink& {
    return static_cast<const api::DegreeCensusSink&>(s);
  });
  api::TriangleCensusSink tri_ref(oracle);
  for (auto& s : tri_sinks) {
    tri_ref.merge(static_cast<const api::TriangleCensusSink&>(*s));
  }

  // One pass, TeeSink fan-out of both.
  auto tee_sinks = api::stream_parallel(
      a, b, partitions,
      [&](std::uint64_t, std::uint64_t) -> std::unique_ptr<api::EdgeSink> {
        std::vector<std::unique_ptr<api::EdgeSink>> children;
        children.push_back(std::make_unique<api::DegreeCensusSink>(n));
        children.push_back(std::make_unique<api::TriangleCensusSink>(oracle));
        return std::make_unique<api::TeeSink>(std::move(children));
      });
  api::DegreeCensusSink deg_tee(n);
  api::TriangleCensusSink tri_tee(oracle);
  for (auto& s : tee_sinks) {
    auto& tee = static_cast<api::TeeSink&>(*s);
    deg_tee.merge(static_cast<const api::DegreeCensusSink&>(tee.child(0)));
    tri_tee.merge(static_cast<const api::TriangleCensusSink&>(tee.child(1)));
  }

  EXPECT_EQ(deg_tee.degrees(), deg_ref.degrees());
  EXPECT_EQ(deg_tee.edges_consumed(), deg_ref.edges_consumed());
  EXPECT_EQ(tri_tee.triangle_sum(), tri_ref.triangle_sum());
  EXPECT_EQ(tri_tee.histogram(), tri_ref.histogram());
}

TEST(TeeSink, FanOutBitIdenticalToSeparatePassesAcrossThreadCounts) {
  const Graph a = gen::holme_kim(40, 2, 0.6, 11);
  const Graph b = gen::clique_with_loops(3);
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  for (const int omp_threads : {1, 2, 8}) {
    omp_set_num_threads(omp_threads);
#else
  {
#endif
    for (const unsigned partitions : {1u, 4u}) {
      expect_tee_bit_identical(a, b, partitions);
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
}

// ---- AnalysisRegistry ------------------------------------------------------

TEST(AnalysisRegistry, BuildsEveryBuiltinAnalysis) {
  auto& reg = api::AnalysisRegistry::builtin();
  for (const char* name : {"census", "degree", "truss", "components",
                           "clustering", "labeled-census", "validate"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
    EXPECT_NO_THROW((void)reg.build(name, {})) << name;
  }
  EXPECT_TRUE(reg.contains("egonet"));
  EXPECT_NO_THROW((void)reg.build("egonet", {{"vertex", "3"}}));
  EXPECT_EQ(reg.families().size(), 8u);
}

TEST(AnalysisRegistry, RejectsUnknownAnalysisNamingTheRegistered) {
  auto& reg = api::AnalysisRegistry::builtin();
  try {
    (void)reg.build("frobnicate", {});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("frobnicate"), std::string::npos);
    EXPECT_NE(what.find("census"), std::string::npos);   // lists registered
    EXPECT_NE(what.find("validate"), std::string::npos);
  }
}

TEST(AnalysisRegistry, RejectsUnknownParamsWithActionableError) {
  auto& reg = api::AnalysisRegistry::builtin();
  try {
    (void)reg.build("validate", {{"budget", "4M"}});  // typo for mem_budget
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("budget"), std::string::npos);      // the bad key
    EXPECT_NE(what.find("mem_budget"), std::string::npos);  // the accepted one
    EXPECT_NE(what.find("shards"), std::string::npos);
  }
  // Required params are enforced too.
  EXPECT_THROW((void)reg.build("egonet", {}), std::invalid_argument);
  // And bad values are rejected at build time, before any generation.
  EXPECT_THROW((void)reg.build("census", {{"sample", "many"}}),
               std::invalid_argument);
  EXPECT_THROW((void)reg.build("validate", {{"mem_budget", "12Q"}}),
               std::invalid_argument);
}

// ---- RunPlan / api::run ----------------------------------------------------

TEST(RunPlan, ShorthandParsesSpecAndAnalyses) {
  const auto plan = api::RunPlan::parse(
      "kron:(hubcycle)x(clique:n=3,loops=1) census degree:histogram=0 "
      "validate:mem_budget=2K,shards=3");
  EXPECT_EQ(plan.spec.to_string(), "kron:(hubcycle)x(clique:loops=1,n=3)");
  ASSERT_EQ(plan.analyses.size(), 3u);
  EXPECT_EQ(plan.analyses[0].name, "census");
  EXPECT_EQ(plan.analyses[1].params.at("histogram"), "0");
  EXPECT_EQ(plan.analyses[2].params.at("mem_budget"), "2K");
}

TEST(RunPlan, JsonRoundTripsThroughToJson) {
  const char* doc = R"json({
    "description": "round trip",
    "spec": "kron:(hubcycle)x(clique:n=3,loops=1)",
    "analyses": [
      {"name": "census", "params": {"truth": 1, "sample": "5"}},
      "degree"
    ],
    "options": {"threads": 2, "mem_budget": "4M", "stream": true}
  })json";
  const auto plan = api::RunPlan::parse(doc);
  EXPECT_EQ(plan.options.threads, 2u);
  EXPECT_EQ(plan.options.mem_budget_bytes, 4u << 20);
  EXPECT_TRUE(plan.options.stream);
  EXPECT_EQ(plan.analyses[0].params.at("truth"), "1");
  EXPECT_EQ(plan.analyses[0].params.at("sample"), "5");
  const auto again = api::RunPlan::from_json(plan.to_json());
  EXPECT_EQ(again.spec.to_string(), plan.spec.to_string());
  EXPECT_EQ(again.options.threads, plan.options.threads);
  EXPECT_EQ(again.options.mem_budget_bytes, plan.options.mem_budget_bytes);
  ASSERT_EQ(again.analyses.size(), plan.analyses.size());
  EXPECT_EQ(again.analyses[0].params, plan.analyses[0].params);
}

TEST(RunPlan, RejectsUnknownKeys) {
  EXPECT_THROW((void)api::RunPlan::parse(R"json({"sepc": "hubcycle"})json"),
               std::invalid_argument);
  EXPECT_THROW(
      (void)api::RunPlan::parse(
          R"json({"spec": "hubcycle", "options": {"treads": 4}})json"),
      std::invalid_argument);
  try {
    (void)api::RunPlan::parse(
        R"json({"spec": "hubcycle", "options": {"treads": 4}})json");
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("treads"), std::string::npos);
    EXPECT_NE(what.find("threads"), std::string::npos);
  }
}

TEST(RunPlan, SinglePassRunMatchesIndependentComputation) {
  // One plan, one stream pass: degree + edge census + validate analyses,
  // plus a truss analysis that needs the materialized product (collector
  // rides the same pass).
  api::RunPlan plan = api::RunPlan::parse(
      "kron:(hk:n=30,m=2,p=0.6,seed=11)x(clique:n=3,loops=1) "
      "census:edges=1 degree truss validate components clustering");
  plan.options.threads = 3;
  const auto report = api::run(plan);
  EXPECT_TRUE(report.pass);
  EXPECT_TRUE(report.streamed);
  EXPECT_EQ(report.partitions, 3u);
  ASSERT_EQ(report.analyses.size(), 6u);

  const Graph a = api::GeneratorRegistry::builtin().build(
      "hk:n=30,m=2,p=0.6,seed=11");
  const Graph b = api::GeneratorRegistry::builtin().build(
      "clique:n=3,loops=1");
  const kron::KronGraphView c(a, b);
  const kron::TriangleOracle oracle(a, b);
  EXPECT_EQ(report.num_vertices, c.num_vertices());
  EXPECT_EQ(report.num_undirected_edges, c.num_undirected_edges());
  EXPECT_EQ(report.stored_entries, c.nnz());

  // census: oracle totals.
  const auto& census = report.analyses[0];
  EXPECT_EQ(census.data.find("total_triangles")->as_uint(),
            oracle.total_triangles());
  // The streamed edge census rode the pass.
  EXPECT_NE(census.data.find("streamed_edge_triangle_sum"), nullptr);
  // degree: max over the product.
  const auto& degree = report.analyses[1];
  const auto summary = analysis::summarize_kron_degrees(a, b);
  EXPECT_EQ(degree.data.find("max_degree")->as_uint(), summary.max_degree);
  // truss ran on the collector-materialized product — compare against the
  // registry-materialized graph.
  const Graph mat = api::GeneratorRegistry::builtin().build(
      "kron:(hk:n=30,m=2,p=0.6,seed=11)x(clique:n=3,loops=1)");
  const auto truss_ref = truss::decompose(mat);
  EXPECT_EQ(report.analyses[2].data.find("max_truss")->as_uint(),
            truss_ref.max_truss);
  // validate: the streaming census verdict.
  EXPECT_TRUE(report.analyses[3].pass);
  EXPECT_EQ(report.analyses[3].data.find("measured_total")->as_uint(),
            oracle.total_triangles());
}

TEST(RunPlan, StreamedReportIsDeterministicAcrossPartitionCounts) {
  auto run_at = [](unsigned threads) {
    api::RunPlan plan = api::RunPlan::parse(
        "kron:(hk:n=25,m=2,p=0.5,seed=7)x(clique:n=3,loops=1) "
        "census:edges=1 degree:measured=1");
    plan.options.threads = threads;
    return api::run(plan);
  };
  const auto r1 = run_at(1);
  const auto r4 = run_at(4);
  ASSERT_EQ(r1.analyses.size(), r4.analyses.size());
  EXPECT_EQ(r1.stored_entries, r4.stored_entries);
  EXPECT_EQ(
      r1.analyses[0].data.find("streamed_edge_triangle_sum")->as_uint(),
      r4.analyses[0].data.find("streamed_edge_triangle_sum")->as_uint());
  EXPECT_EQ(r1.analyses[1].data.find("max_degree")->as_uint(),
            r4.analyses[1].data.find("max_degree")->as_uint());
}

TEST(RunPlan, NonProductSpecRunsGraphBackedAnalyses) {
  const auto report = api::run(api::RunPlan::parse(
      "hk:n=40,m=2,p=0.5,seed=3 census degree truss components clustering"));
  EXPECT_TRUE(report.pass);
  EXPECT_FALSE(report.streamed);
  const Graph g = api::GeneratorRegistry::builtin().build(
      "hk:n=40,m=2,p=0.5,seed=3");
  EXPECT_EQ(report.num_vertices, g.num_vertices());
  EXPECT_EQ(report.analyses[0].data.find("total_triangles")->as_uint(),
            triangle::count_total(g));
  EXPECT_EQ(report.analyses[3].data.find("components")->as_uint(),
            analysis::connected_components(g).count);
}

TEST(RunPlan, ReportJsonCarriesStagesAnalysesAndMetadata) {
  const auto report = api::run(
      api::RunPlan::parse("kron:(hubcycle)x(clique:n=3,loops=1) validate"));
  const auto j = report.to_json();
  EXPECT_TRUE(j.find("pass")->as_bool());
  EXPECT_GE(j.find("stages")->size(), 1u);
  EXPECT_EQ(j.find("analyses")->items()[0].find("name")->as_string(),
            "validate");
  EXPECT_GE(j.find("metadata")->get_uint("hardware_concurrency", 0), 1u);
  // The dump parses back.
  const auto round = util::json::Value::parse(j.dump_string());
  EXPECT_TRUE(round.find("pass")->as_bool());
}

// ---- shared plan census ----------------------------------------------------

/// Each analysis entry of `report`, in comparable() form (data and text).
std::vector<std::string> comparable_analyses(const api::RunReport& report) {
  const util::json::Value c = runner::comparable(report.to_json());
  std::vector<std::string> out;
  for (const auto& a : c.find("analyses")->items()) {
    out.push_back(a.dump_string());
  }
  return out;
}

count_t census_passes(const api::RunReport& report) {
  return report.counters.get_uint("triangle.census_passes", 0);
}

TEST(PlanCensus, CombinedPlansMatchOneAnalysisPlansAndShareTheCensus) {
  const char* const graphs[] = {
      "kron:(hk:n=30,m=2,p=0.6,seed=5,loops=1)x(clique:n=3,loops=1)",
      "kron:(hk:n=12,m=2,p=0.6,seed=6)x(clique:n=3)x(clique:n=3,loops=1)",
      "hk:n=60,m=3,p=0.6,seed=7",
      "clique:n=1",
  };
  const std::vector<std::vector<std::string>> plans = {
      {"truss", "clustering"},
      {"clustering", "truss"},
      {"census:vertices=0;1", "truss"},
  };
  const auto run = [](const std::string& graph,
                      const std::vector<std::string>& analyses) {
    std::string text = graph;
    for (const auto& a : analyses) text += " " + a;
    const api::RunReport report = api::run(api::RunPlan::parse(text));
    EXPECT_TRUE(report.pass) << text;
    return report;
  };
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  for (const int omp_threads : {1, 2, 8}) {
    omp_set_num_threads(omp_threads);
#else
  {
    const int omp_threads = 1;
#endif
    for (const char* graph : graphs) {
      SCOPED_TRACE(std::string(graph) + " at OMP " +
                   std::to_string(omp_threads));
      for (const auto& analyses : plans) {
        const auto combined = comparable_analyses(run(graph, analyses));
        ASSERT_EQ(combined.size(), analyses.size());
        for (std::size_t i = 0; i < analyses.size(); ++i) {
          const auto alone = comparable_analyses(run(graph, {analyses[i]}));
          ASSERT_EQ(alone.size(), 1u);
          EXPECT_EQ(combined[i], alone[0]) << analyses[i];
        }
      }
      // Every per-vertex count derives from the one per-edge pass, so
      // the order of the analyses does not change what the plan pays.
      EXPECT_EQ(census_passes(run(graph, {"truss", "clustering"})), 1u);
      EXPECT_EQ(census_passes(run(graph, {"clustering"})), 1u);
      EXPECT_EQ(census_passes(run(graph, {"clustering", "truss"})), 1u);
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(saved);
#endif
}

TEST(PlanCensus, VertexOnlyPlansPayOnePassWithoutEdgeIds) {
  const std::string graph = "hk:n=20000,m=4,p=0.6,seed=3";
  const std::vector<std::vector<std::string>> plans = {
      {"census"}, {"clustering"}, {"truss", "clustering"},
      {"clustering", "truss"}};
  for (const auto& analyses : plans) {
    std::string text = graph;
    for (const auto& a : analyses) text += " " + a;
    const api::RunReport report = api::run(api::RunPlan::parse(text));
    EXPECT_TRUE(report.pass) << text;
    EXPECT_EQ(census_passes(report), 1u) << text;
  }
}

TEST(PlanCensus, VertexOnlyCountsEqualTheEdgeDerivedOnes) {
  for (const std::string graph :
       {"hk:n=20000,m=4,p=0.6,seed=3",
        "kron:(hk:n=200,m=3,p=0.7,seed=5)x(clique:n=12)"}) {
    SCOPED_TRACE(graph);
    const GraphSpec spec = GraphSpec::parse(graph);
    const auto& reg = GeneratorRegistry::builtin();
    const api::PlanContext edges(spec, {}, reg.build_factors(spec));
    api::PlanContext vertices(spec, {}, reg.build_factors(spec));
    vertices.set_needs_edge_triangles(false);
    EXPECT_EQ(vertices.vertex_triangles(), edges.vertex_triangles());
    EXPECT_EQ(vertices.total_triangles(), edges.total_triangles());
    EXPECT_EQ(vertices.census().num_edges(), 0u);  // no edge-id map
    EXPECT_THROW((void)vertices.edge_triangles(), std::logic_error);

    // In a plan: t_v and clustering read alone (vertex-only census) equal
    // the ones a truss analysis makes the plan derive from Δ(e).
    const std::string vertex_only = " census:vertices=0;17;1999 clustering";
    const auto alone =
        comparable_analyses(api::run(api::RunPlan::parse(graph + vertex_only)));
    const auto with_truss = comparable_analyses(
        api::run(api::RunPlan::parse(graph + " truss" + vertex_only)));
    ASSERT_EQ(alone.size(), 2u);
    ASSERT_EQ(with_truss.size(), 3u);
    EXPECT_EQ(alone[0], with_truss[1]);
    EXPECT_EQ(alone[1], with_truss[2]);
  }
}

TEST(PlanCensus, TrussRowsMatchTheDecomposition) {
  const Graph g =
      GeneratorRegistry::builtin().build("hk:n=80,m=4,p=0.7,seed=9");
  const auto reference = truss::decompose(g);
  const auto report =
      api::run(api::RunPlan::parse("hk:n=80,m=4,p=0.7,seed=9 truss"));
  const auto& data = report.analyses.at(0).data;
  EXPECT_EQ(data.find("max_truss")->as_uint(), reference.max_truss);
  const auto& rows = data.find("trusses")->items();
  ASSERT_EQ(rows.size(), reference.max_truss - 2);
  for (const auto& row : rows) {
    const count_t kappa = row.find("kappa")->as_uint();
    EXPECT_EQ(row.find("edges")->as_uint(), reference.edges_in_truss(kappa))
        << "kappa " << kappa;
  }
}

TEST(PlanCensus, EdgelessGraphHasNoTrusses) {
  const auto report = api::run(api::RunPlan::parse("clique:n=1 truss"));
  const auto& data = report.analyses.at(0).data;
  EXPECT_EQ(data.find("max_truss")->as_uint(), 2u);
  EXPECT_TRUE(data.find("trusses")->items().empty());
}

TEST(Sinks, MergedParallelTriangleCensusEqualsSingleThreaded) {
  const Graph a = gen::holme_kim(25, 2, 0.7, 6);
  const kron::TriangleOracle oracle(a, a);
  auto sinks = api::stream_parallel(
      a, a, 4,
      [&](std::uint64_t, std::uint64_t) {
        return std::make_unique<api::TriangleCensusSink>(oracle);
      },
      /*batch_size=*/64);
  auto& merged = static_cast<api::TriangleCensusSink&>(*sinks[0]);
  for (std::size_t i = 1; i < sinks.size(); ++i) {
    merged.merge(static_cast<const api::TriangleCensusSink&>(*sinks[i]));
  }
  EXPECT_EQ(merged.triangle_sum(), 6 * oracle.total_triangles());
  EXPECT_EQ(merged.edges_consumed(), a.nnz() * a.nnz());
}

}  // namespace
