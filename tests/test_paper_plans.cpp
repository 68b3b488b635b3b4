// The paper's artifacts as checked plans: each examples/plans/paper_*.json
// is parsed with api::RunPlan::parse, executed by api::run, and its report
// JSON must hold the paper's numbers — Table VI (§VI), Ex. 1 and 2,
// Fig. 7, the degree law of §III.A, the labeled census of Thms 6–7, the
// truss transfer of Thm 3 and a three-factor chain. The plans stay plain
// data; every assertion lives here.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/degree.hpp"
#include "api/plan.hpp"
#include "api/registry.hpp"
#include "kron/labeled.hpp"
#include "util/json.hpp"

namespace {

using namespace kronotri;
using util::json::Value;
using Histogram = std::map<std::string, std::uint64_t>;

/// Every plan file the suite checks; EveryPaperPlanIsChecked keeps this
/// list and the directory in step.
const std::vector<std::string> kPaperPlans = {
    "paper_degree_dist.json",    "paper_ex1_cliques.json",
    "paper_ex2_truss.json",      "paper_fig7_egonets.json",
    "paper_labeled_census.json", "paper_multi_factor.json",
    "paper_table6.json",         "paper_table6_census.json",
    "paper_truss_transfer.json",
};

/// Runs one checked-in plan and returns its report as the JSON document
/// `kronotri run --json` writes. A missing file throws, failing the test.
Value run_plan(const std::string& name) {
  const std::filesystem::path path =
      std::filesystem::path(KRONOTRI_PLAN_DIR) / name;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("missing plan file " + path.string());
  std::ostringstream text;
  text << in.rdbuf();
  const api::RunReport report = api::run(api::RunPlan::parse(text.str()));
  return Value::parse(report.to_json().dump_string(0));
}

/// The member `key` of an object; throws when the report lacks it.
const Value& at(const Value& v, const std::string& key) {
  const Value* m = v.find(key);
  if (m == nullptr) throw std::runtime_error("report lacks \"" + key + "\"");
  return *m;
}

/// The `data` payload of analysis `i`, which must be named `name`.
const Value& data(const Value& report, std::size_t i,
                  const std::string& name) {
  const Value& a = at(report, "analyses").items().at(i);
  EXPECT_EQ(a.get_string("name", ""), name) << "analysis " << i;
  EXPECT_TRUE(a.get_bool("pass", false)) << name << " " << i;
  return at(a, "data");
}

std::uint64_t uint_at(const Value& v, const std::string& key) {
  return at(v, key).as_uint();
}

Histogram histogram(const Value& h) {
  Histogram out;
  for (const auto& [key, count] : h.members()) out[key] = count.as_uint();
  return out;
}

/// truss `trusses` rows as kappa -> |T^kappa|.
std::map<std::uint64_t, std::uint64_t> truss_rows(const Value& truss) {
  std::map<std::uint64_t, std::uint64_t> rows;
  for (const Value& row : at(truss, "trusses").items()) {
    rows[uint_at(row, "kappa")] = uint_at(row, "edges");
  }
  return rows;
}

/// census `matrices` row `name` (A, B, "C = A (x) B", "C (chain)", …).
const Value& matrix(const Value& census, const std::string& name) {
  for (const Value& m : at(census, "matrices").items()) {
    if (m.get_string("name", "") == name) return m;
  }
  throw std::runtime_error("census lacks matrix \"" + name + "\"");
}

TEST(PaperPlans, EveryPaperPlanIsChecked) {
  std::vector<std::string> on_disk;
  for (const auto& entry :
       std::filesystem::directory_iterator(KRONOTRI_PLAN_DIR)) {
    const std::string file = entry.path().filename().string();
    if (file.starts_with("paper_") && file.ends_with(".json")) {
      on_disk.push_back(file);
    }
  }
  std::sort(on_disk.begin(), on_disk.end());
  EXPECT_EQ(on_disk, kPaperPlans);
}

TEST(PaperPlans, Table6AtCiScaleValidates) {
  // §VI protocol on a 300-vertex factor: the census of C = A ⊗ (A + I) from
  // factor statistics equals the streamed census, vertex for vertex.
  const Value report = run_plan("paper_table6.json");
  EXPECT_TRUE(at(report, "pass").as_bool());
  const Value& census = data(report, 0, "census");
  const Value& validate = data(report, 3, "validate");
  const std::uint64_t tau = uint_at(census, "total_triangles");
  EXPECT_EQ(tau, 3'111'222u);
  EXPECT_EQ(uint_at(validate, "measured_total"), tau);
  EXPECT_EQ(uint_at(validate, "predicted_total"), tau);
  EXPECT_EQ(uint_at(validate, "vertex_mismatches"), 0u);
  EXPECT_EQ(uint_at(validate, "edge_mismatches"), 0u);
}

TEST(PaperPlans, Table6AtFullScaleFromFactorStatistics) {
  // A 325,729-vertex factor (web-NotreDame's vertex count): C = A ⊗ A has
  // 106.1 billion vertices and 1.91 trillion edges, and τ(C) = 6·τ(A)².
  const Value report = run_plan("paper_table6_census.json");
  const Value& census = data(report, 0, "census");
  const Value& a = matrix(census, "A");
  const Value& c = matrix(census, "C = A (x) B");
  const std::uint64_t n_a = uint_at(a, "vertices");
  const std::uint64_t e_a = uint_at(a, "edges");
  const std::uint64_t tau_a = uint_at(a, "triangles");
  EXPECT_EQ(n_a, 325'729u);
  EXPECT_EQ(tau_a, 337'023u);
  EXPECT_EQ(uint_at(c, "vertices"), 106'099'381'441u);
  EXPECT_EQ(uint_at(c, "vertices"), n_a * n_a);
  EXPECT_EQ(uint_at(c, "edges"), 1'909'765'413'522u);
  EXPECT_EQ(uint_at(c, "edges"), 2 * e_a * e_a);  // nnz(C) = nnz(A)²
  EXPECT_EQ(uint_at(c, "triangles"), 681'507'015'174u);
  EXPECT_EQ(uint_at(c, "triangles"), 6 * tau_a * tau_a);
  EXPECT_EQ(uint_at(census, "total_triangles"), uint_at(c, "triangles"));
}

TEST(PaperPlans, Ex1CliqueProductClosedForms) {
  // Ex. 1(a): K4 ⊗ K5 is 12-regular on 20 vertices; t = 36 at every vertex
  // and Δ = 6 on every edge.
  const Value report = run_plan("paper_ex1_cliques.json");
  const Value& validate = data(report, 0, "validate");
  EXPECT_EQ(uint_at(validate, "num_vertices"), 20u);
  EXPECT_EQ(uint_at(validate, "num_edges"), 120u);
  EXPECT_EQ(histogram(at(validate, "vertex_histogram")),
            (Histogram{{"36", 20}}));
  EXPECT_EQ(histogram(at(validate, "edge_histogram")),
            (Histogram{{"6", 120}}));
}

TEST(PaperPlans, Ex2HubCycleTrussIsNotAProduct) {
  // Ex. 2 / Fig. 3: the hub-cycle product has 25 vertices, 128 edges and
  // 96 triangles; Δ splits 32/64/32 over {1, 2, 4}, and the truss
  // decomposition has 128 edges in T³, 80 in T⁴ and none in T⁵.
  const Value report = run_plan("paper_ex2_truss.json");
  const Value& census = data(report, 0, "census");
  const Value& c = matrix(census, "C = A (x) B");
  EXPECT_EQ(uint_at(c, "vertices"), 25u);
  EXPECT_EQ(uint_at(c, "edges"), 128u);
  EXPECT_EQ(uint_at(c, "triangles"), 96u);

  const Value& truss = data(report, 1, "truss");
  EXPECT_EQ(uint_at(truss, "max_truss"), 4u);
  EXPECT_EQ(truss_rows(truss),
            (std::map<std::uint64_t, std::uint64_t>{{3, 128}, {4, 80}}));

  const Value& validate = data(report, 2, "validate");
  EXPECT_EQ(histogram(at(validate, "edge_histogram")),
            (Histogram{{"1", 32}, {"2", 64}, {"4", 32}}));

  // census:edges=1 counts stored slots, so every undirected edge counts
  // twice: the streamed histogram doubles validate's, and the streamed sum
  // Σ Δ over slots is 2·3τ = 6τ.
  EXPECT_EQ(histogram(at(census, "streamed_edge_histogram")),
            (Histogram{{"1", 64}, {"2", 128}, {"4", 64}}));
  EXPECT_EQ(uint_at(census, "streamed_edge_triangle_sum"), 6u * 96u);
}

TEST(PaperPlans, Fig7EgonetsMatchTheFormulas) {
  // Fig. 7: nine degree-12 vertices of A ⊗ (A + I) built from factor
  // vertices in 1, 2 and 3 triangles; the measured egonet counts equal the
  // formula and reproduce the paper's grid.
  const Value report = run_plan("paper_fig7_egonets.json");
  const std::uint64_t grid[9] = {12, 14, 16, 24, 28, 32, 36, 42, 48};
  ASSERT_EQ(at(report, "analyses").size(), 9u);
  for (std::size_t i = 0; i < 9; ++i) {
    const Value& ego = data(report, i, "egonet");
    SCOPED_TRACE(uint_at(ego, "vertex"));
    EXPECT_EQ(uint_at(ego, "degree"), 12u);
    EXPECT_EQ(uint_at(ego, "measured"), grid[i]);
    EXPECT_EQ(uint_at(ego, "formula"), grid[i]);
  }
}

TEST(PaperPlans, DegreeMaxRatioIsTheProductOfTheFactors) {
  // §III.A / §IV.B: d_C = d_A ⊗ d_B, so ‖d_C‖∞/n_C = (‖d_A‖∞/n_A)(‖d_B‖∞/n_B).
  const Value report = run_plan("paper_degree_dist.json");
  const Value& degree = data(report, 0, "degree");
  const auto& registry = api::GeneratorRegistry::builtin();
  const auto sa = analysis::summarize_degrees(
      registry.build("hk:n=50000,m=3,p=0.6,seed=67"));
  const auto sb =
      analysis::summarize_degrees(registry.build("ba:n=20000,m=2,seed=68"));
  EXPECT_EQ(sa.max_degree, 772u);  // ratio 0.01544
  EXPECT_EQ(sb.max_degree, 521u);  // ratio 0.02605
  EXPECT_EQ(uint_at(degree, "max_degree"), sa.max_degree * sb.max_degree);
  EXPECT_NEAR(at(degree, "max_ratio").as_double(),
              sa.max_ratio * sb.max_ratio, 1e-12);
}

TEST(PaperPlans, LabeledCensusCoversEachTriangleThreeTimes) {
  // Fig. 6 / Thms 6–7: summed over every labeled type, the vertex counts of
  // C = A ⊗ (K3 + I) count each triangle once per corner.
  const Value report = run_plan("paper_labeled_census.json");
  const std::uint64_t tau =
      uint_at(data(report, 0, "census"), "total_triangles");
  EXPECT_EQ(tau, 2214u);
  const Value& labeled = data(report, 1, "labeled-census");
  EXPECT_EQ(uint_at(labeled, "vertex_count_sum"), 3 * tau);

  // Thm 6: C's labels are inherited from A's, f(x) = x mod 3, so each
  // type's sum over the product is Σ_{q1} of its closed form's sum.
  const std::vector<Graph> factors =
      api::GeneratorRegistry::builtin().build_factors(
          api::GraphSpec::parse(at(at(report, "plan"), "spec").as_string()));
  ASSERT_EQ(factors.size(), 2u);
  triangle::Labeling lab;
  lab.num_labels = 3;
  for (vid x = 0; x < factors[0].num_vertices(); ++x) {
    lab.label.push_back(x % 3);
  }
  const auto& types = at(labeled, "types").items();
  ASSERT_EQ(types.size(), 6u);
  for (const Value& row : types) {
    const std::string pair = row.get_string("other_labels", "");
    const auto qa = static_cast<std::uint32_t>(std::stoul(pair));
    const auto qb =
        static_cast<std::uint32_t>(std::stoul(pair.substr(pair.find(',') + 1)));
    count_t want = 0;
    for (std::uint32_t q1 = 0; q1 < 3; ++q1) {
      want += kron::labeled_vertex_triangles(factors[0], lab, factors[1], q1,
                                             qa, qb)
                  .sum();
    }
    EXPECT_EQ(uint_at(row, "vertex_count_sum"), want) << pair;
  }
}

TEST(PaperPlans, MultiFactorChainCensusMatchesTheStream) {
  const Value report = run_plan("paper_multi_factor.json");
  const std::uint64_t tau =
      uint_at(data(report, 0, "census"), "total_triangles");
  const Value& validate = data(report, 1, "validate");
  EXPECT_EQ(tau, 10'584u);
  EXPECT_EQ(uint_at(validate, "num_factors"), 3u);
  EXPECT_EQ(uint_at(validate, "measured_total"), tau);
  EXPECT_EQ(uint_at(validate, "predicted_total"), tau);
  // A chain with a loop-free factor has a single-term t_C, so its
  // closed-form histogram is checked too.
  EXPECT_TRUE(at(validate, "histogram_checked").as_bool());
  EXPECT_FALSE(at(validate, "predicted_vertex_histogram").members().empty());
  EXPECT_EQ(histogram(at(validate, "predicted_vertex_histogram")),
            histogram(at(validate, "vertex_histogram")));
}

TEST(PaperPlans, Thm3TrussOracleEqualsThePeel) {
  // Thm 3 / §III.D(b): with Δ_B ≤ 1 the truss decomposition of A ⊗ B is
  // read off A's, and agrees with peeling the materialized product.
  const Value report = run_plan("paper_truss_transfer.json");
  const Value& oracle = data(report, 0, "truss");
  const Value& peel = data(report, 1, "truss");
  EXPECT_EQ(oracle.get_string("mode", ""), "oracle");
  EXPECT_EQ(peel.get_string("mode", ""), "decompose");
  EXPECT_EQ(truss_rows(oracle), truss_rows(peel));
  EXPECT_EQ(truss_rows(peel),
            (std::map<std::uint64_t, std::uint64_t>{{3, 5478}, {4, 1782}}));
}

}  // namespace
