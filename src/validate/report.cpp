#include "validate/report.hpp"

#include <ostream>
#include <string>

#include "kron/oracle.hpp"
#include "util/table.hpp"

namespace kronotri::validate {

namespace {

std::map<count_t, count_t> histogram_from_json(const util::json::Value* v) {
  std::map<count_t, count_t> h;
  if (v == nullptr) return h;
  for (const auto& [key, freq] : v->members()) {
    h[static_cast<count_t>(std::stoull(key))] = freq.as_uint();
  }
  return h;
}

}  // namespace

void ValidationReport::print(std::ostream& os) const {
  os << "streaming validation of " << (spec.empty() ? "product" : spec) << "\n";
  util::Table t({"", "value"});
  t.row({"product vertices", util::commas(num_vertices)});
  t.row({"product edges", util::commas(num_edges)});
  t.row({"factors", std::to_string(num_factors)});
  t.row({"shards", std::to_string(stats.num_shards)});
  t.row({"memory budget (B)", util::commas(mem_budget_bytes)});
  t.row({"peak accumulator (B)", util::commas(stats.peak_accumulator_bytes)});
  t.row({"wedge checks", util::commas(stats.wedge_checks)});
  t.row({"measured triangles", util::commas(measured_total)});
  t.row({"predicted triangles", util::commas(predicted_total)});
  t.row({"vertex mismatches", util::commas(vertex.mismatches) + " / " +
                                  util::commas(vertex.checked)});
  t.row({"edge mismatches",
         util::commas(edge.mismatches) + " / " + util::commas(edge.checked)});
  t.row({"max abs error (V/E)", util::commas(vertex.max_abs_err) + " / " +
                                    util::commas(edge.max_abs_err)});
  if (partial) t.row({"coverage", "PARTIAL (shard-subset fragment)"});
  if (histogram_checked && !partial) {
    t.row({"vertex histogram",
           vertex.histogram == predicted_vertex_histogram
               ? "matches closed form"
               : "DIFFERS from closed form"});
  }
  t.print(os);
  os << (pass() ? "PASS" : "FAIL") << "\n";
}

util::json::Value ValidationReport::to_json() const {
  util::json::Value out = util::json::Value::object();
  out.set("spec", spec);
  out.set("num_vertices", num_vertices);
  out.set("num_edges", num_edges);
  out.set("num_factors", num_factors);
  out.set("mem_budget_bytes", mem_budget_bytes);
  out.set("num_shards", stats.num_shards);
  out.set("peak_accumulator_bytes", stats.peak_accumulator_bytes);
  out.set("wedge_checks", stats.wedge_checks);
  out.set("vertex_count_sum", stats.vertex_count_sum);
  out.set("edge_count_sum", stats.edge_count_sum);
  out.set("measured_total", measured_total);
  out.set("predicted_total", predicted_total);
  out.set("partial", partial);
  out.set("vertices_checked", vertex.checked);
  out.set("vertex_mismatches", vertex.mismatches);
  out.set("vertex_max_abs_err", vertex.max_abs_err);
  out.set("edges_checked", edge.checked);
  out.set("edge_mismatches", edge.mismatches);
  out.set("edge_max_abs_err", edge.max_abs_err);
  out.set("histogram_checked", histogram_checked);
  out.set("vertex_histogram", util::json::histogram(vertex.histogram));
  out.set("edge_histogram", util::json::histogram(edge.histogram));
  out.set("predicted_vertex_histogram",
          util::json::histogram(predicted_vertex_histogram));
  out.set("pass", pass());
  return out;
}

ValidationReport ValidationReport::from_json(const util::json::Value& v) {
  ValidationReport r;
  r.spec = v.get_string("spec", "");
  r.num_vertices = v.get_uint("num_vertices", 0);
  r.num_edges = v.get_uint("num_edges", 0);
  r.num_factors = v.get_uint("num_factors", 0);
  r.mem_budget_bytes = v.get_uint("mem_budget_bytes", 0);
  r.stats.num_shards = v.get_uint("num_shards", 0);
  r.stats.peak_accumulator_bytes = v.get_uint("peak_accumulator_bytes", 0);
  r.stats.wedge_checks = v.get_uint("wedge_checks", 0);
  r.stats.vertex_count_sum = v.get_uint("vertex_count_sum", 0);
  r.stats.edge_count_sum = v.get_uint("edge_count_sum", 0);
  r.stats.num_edges = r.num_edges;
  r.measured_total = v.get_uint("measured_total", 0);
  r.stats.total_triangles = r.measured_total;
  r.predicted_total = v.get_uint("predicted_total", 0);
  r.partial = v.get_bool("partial", false);
  r.vertex.checked = v.get_uint("vertices_checked", 0);
  r.vertex.mismatches = v.get_uint("vertex_mismatches", 0);
  r.vertex.max_abs_err = v.get_uint("vertex_max_abs_err", 0);
  r.edge.checked = v.get_uint("edges_checked", 0);
  r.edge.mismatches = v.get_uint("edge_mismatches", 0);
  r.edge.max_abs_err = v.get_uint("edge_max_abs_err", 0);
  r.histogram_checked = v.get_bool("histogram_checked", false);
  r.vertex.histogram = histogram_from_json(v.find("vertex_histogram"));
  r.edge.histogram = histogram_from_json(v.find("edge_histogram"));
  r.predicted_vertex_histogram =
      histogram_from_json(v.find("predicted_vertex_histogram"));
  return r;
}

void ValidationReport::merge(const ValidationReport& other) {
  num_edges += other.num_edges;
  stats.num_shards += other.stats.num_shards;
  stats.num_edges += other.stats.num_edges;
  stats.wedge_checks += other.stats.wedge_checks;
  stats.vertex_count_sum += other.stats.vertex_count_sum;
  stats.edge_count_sum += other.stats.edge_count_sum;
  stats.peak_accumulator_bytes =
      std::max(stats.peak_accumulator_bytes, other.stats.peak_accumulator_bytes);
  vertex.merge(other.vertex);
  edge.merge(other.edge);
  histogram_checked = histogram_checked || other.histogram_checked;
  if (predicted_vertex_histogram.empty()) {
    predicted_vertex_histogram = other.predicted_vertex_histogram;
  }
}

void ValidationReport::finalize_merged() {
  partial = false;
  measured_total = stats.vertex_count_sum / 3;
  stats.total_triangles = measured_total;
}

void ValidationReport::write_json(std::ostream& os) const {
  to_json().dump(os);
}

std::uint64_t ValidationReport::fingerprint() const {
  return util::json::hash64(to_json().dump_canonical_string());
}

ValidationReport validate_census(const StreamingCensus& census,
                                 const kron::KronVectorExpr& vertex,
                                 const kron::KronMatrixExpr& edge) {
  const StreamingOptions& opt = census.options();
  ValidationReport r;
  r.num_vertices = census.num_vertices();
  r.num_factors = census.num_factors();
  r.mem_budget_bytes = opt.mem_budget_bytes;
  r.predicted_total = vertex.sum() / 3;

  // Work-unit restriction: the full shard plan is deterministic, so every
  // process derives the same boundaries and takes its own balanced,
  // disjoint index slice (empty for tail units when shards < units) — the
  // fragments merge() back into the single-process report.
  const std::size_t shards = census.shards().size();
  std::size_t begin = 0, end = shards;
  if (opt.units > 0) {
    begin = static_cast<std::size_t>(shards * opt.unit / opt.units);
    end = static_cast<std::size_t>(shards * (opt.unit + 1) / opt.units);
    r.partial = true;
  }

  ClosedFormCheck check;
  check.vertex_expr = &vertex;
  check.edge_expr = &edge;
  r.stats = census.run_shards(begin, end, {}, &check);
  r.measured_total = r.stats.total_triangles;
  r.num_edges = r.stats.num_edges;
  r.vertex = std::move(check.vertex);
  r.edge = std::move(check.edge);
  // A multi-term t_C (every factor looped) has no closed-form histogram;
  // the pointwise comparison above still covers every vertex.
  if (vertex.num_terms() == 1) {
    r.predicted_vertex_histogram = vertex.histogram();
    r.histogram_checked = true;
  }
  return r;
}

ValidationReport validate_product(const kron::TriangleOracle& oracle,
                                  const StreamingOptions& opt) {
  return validate_census(StreamingCensus(oracle.factors(), opt),
                         oracle.vertex_expr(), oracle.edge_expr());
}

ValidationReport validate_product(const Graph& a, const Graph& b,
                                  const StreamingOptions& opt) {
  return validate_product(kron::TriangleOracle(a, b), opt);
}

}  // namespace kronotri::validate
