#include "api/analysis.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <mutex>
#include <stdexcept>

#include "analysis/components.hpp"
#include "analysis/degree.hpp"
#include "analysis/egonet.hpp"
#include "triangle/clustering.hpp"
#include "triangle/count.hpp"
#include "triangle/labeled.hpp"
#include "truss/decompose.hpp"
#include "truss/kron_truss.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "validate/report.hpp"

namespace kronotri::api {

// ---- Params ----------------------------------------------------------------

void throw_unknown_key(const std::string& context, const std::string& key,
                       std::initializer_list<const char*> known) {
  std::string msg = context + ": unknown key \"" + key + "\"; accepted:";
  if (known.size() == 0) {
    msg += " (none)";
  } else {
    bool first = true;
    for (const char* k : known) {
      msg += (first ? " " : ", ");
      msg += k;
      first = false;
    }
  }
  throw std::invalid_argument(msg);
}

std::string Params::get(const std::string& key,
                        const std::string& fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : it->second;
}

std::uint64_t Params::get_uint(const std::string& key,
                               std::uint64_t fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  try {
    // Leading-digit check: stoull would silently wrap "-1" to 2^64-1.
    if (it->second.empty() || it->second[0] < '0' || it->second[0] > '9') {
      throw std::invalid_argument(it->second);
    }
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument(it->second);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument(analysis_ + ": param " + key + "=\"" +
                                it->second + "\" is not an unsigned integer");
  }
}

double Params::get_double(const std::string& key, double fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  try {
    std::size_t pos = 0;
    const double v = std::stod(it->second, &pos);
    if (pos != it->second.size()) throw std::invalid_argument(it->second);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument(analysis_ + ": param " + key + "=\"" +
                                it->second + "\" is not a number");
  }
}

bool Params::get_bool(const std::string& key, bool fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  return util::parse_bool_token(it->second, analysis_ + " param " + key);
}

std::size_t Params::get_bytes(const std::string& key,
                              std::size_t fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : util::parse_byte_count(it->second);
}

void Params::require_known(std::initializer_list<const char*> known) const {
  for (const auto& [key, value] : kv_) {
    if (std::find_if(known.begin(), known.end(), [&](const char* k) {
          return key == k;
        }) == known.end()) {
      throw_unknown_key(analysis_, key, known);
    }
  }
}

// ---- PlanContext -----------------------------------------------------------

PlanContext::PlanContext(GraphSpec spec, RunOptions options,
                         std::vector<Graph> factors)
    : spec_(std::move(spec)),
      options_(std::move(options)),
      factors_(std::move(factors)) {
  // Outer modifiers apply to the materialized product, so the factor-side
  // structures (view/oracle/chain/stream) would describe a DIFFERENT graph;
  // a modified product is treated as a plain explicit graph.
  const bool modified = spec_.get_bool("prune", false) ||
                        spec_.get_bool("loops", false);
  product_ = spec_.is_kron() && factors_.size() >= 2 && !modified;
  two_factor_ = product_ && factors_.size() == 2;
}

const kron::KronGraphView& PlanContext::view() const {
  if (!two_factor_) {
    throw std::logic_error("PlanContext::view() requires a 2-factor product");
  }
  if (!view_) view_.emplace(factors_[0], factors_[1]);
  return *view_;
}

const kron::TriangleOracle& PlanContext::oracle() const {
  if (!two_factor_) {
    throw std::logic_error(
        "PlanContext::oracle() requires a 2-factor product");
  }
  if (!oracle_) oracle_.emplace(factors_[0], factors_[1]);
  return *oracle_;
}

const kron::KronChain& PlanContext::chain() const {
  if (!product_) {
    throw std::logic_error("PlanContext::chain() requires a product spec");
  }
  if (!chain_) chain_.emplace(factors_);
  return *chain_;
}

const Graph& PlanContext::graph() const {
  if (!product_) return factors_.front();
  if (!graph_) graph_ = chain().materialize();
  return *graph_;
}

bool PlanContext::graph_ready() const noexcept {
  return !product_ || graph_.has_value();
}

void PlanContext::set_graph(Graph g) {
  graph_ = std::move(g);
  census_.reset();
  edge_triangles_.reset();
  vertex_triangles_.reset();
}

void PlanContext::set_needs_edge_triangles(bool needed) {
  if (needed == needs_edge_triangles_) return;
  needs_edge_triangles_ = needed;
  census_.reset();
  edge_triangles_.reset();
  vertex_triangles_.reset();
}

const triangle::CensusWorkspace& PlanContext::census() const {
  if (!census_) {
    census_.emplace(graph(),
                    needs_edge_triangles_
                        ? triangle::CensusWorkspace::Detail::kEdges
                        : triangle::CensusWorkspace::Detail::kVertexOnly);
  }
  return *census_;
}

const std::vector<count_t>& PlanContext::edge_triangles() const {
  if (!needs_edge_triangles_) {
    throw std::logic_error(
        "PlanContext::edge_triangles(): no analysis of this plan declared "
        "needs_edge_triangles()");
  }
  if (!edge_triangles_) edge_triangles_ = census().edge_census();
  return *edge_triangles_;
}

const std::vector<count_t>& PlanContext::vertex_triangles() const {
  if (!vertex_triangles_) {
    vertex_triangles_ = needs_edge_triangles_
                            ? census().vertex_census(edge_triangles())
                            : census().vertex_census();
  }
  return *vertex_triangles_;
}

count_t PlanContext::total_triangles() const {
  count_t sum = 0;
  for (const count_t t : vertex_triangles()) sum += t;
  return sum / 3;
}

// ---- registry --------------------------------------------------------------

void AnalysisRegistry::add(std::string name, std::string help,
                           Factory factory) {
  const std::unique_lock lock(mutex_);
  if (factories_.emplace(name, factory).second) {
    help_.emplace_back(name, std::move(help));
  } else {
    factories_[name] = std::move(factory);
    for (auto& [n, text] : help_) {
      if (n == name) text = help;
    }
  }
}

bool AnalysisRegistry::contains(const std::string& name) const {
  const std::shared_lock lock(mutex_);
  return factories_.count(name) > 0;
}

std::unique_ptr<Analysis> AnalysisRegistry::build(
    const std::string& name, const ParamMap& params) const {
  const std::shared_lock lock(mutex_);
  const auto it = factories_.find(name);
  if (it == factories_.end()) {
    std::string msg =
        "AnalysisRegistry: unknown analysis \"" + name + "\"; registered:";
    bool first = true;
    for (const auto& [n, help] : help_) {
      msg += (first ? " " : ", ");
      msg += n;
      first = false;
    }
    throw std::invalid_argument(msg);
  }
  auto analysis = it->second(Params(name, params));
  analysis->set_name(name);
  return analysis;
}

std::vector<std::pair<std::string, std::string>> AnalysisRegistry::families()
    const {
  const std::shared_lock lock(mutex_);
  return help_;
}

// ---- built-in analyses -----------------------------------------------------

namespace {

/// `census` — the paper's headline table: vertices / edges / exact
/// triangles of the factors and of C, from factor-side formulas whenever a
/// product is available (TriangleOracle for two factors, KronChain beyond).
/// Params:
///   truth=1     include per-vertex ground-truth counts in the report data
///   truth_file=PATH  stream the (sampled) ground-truth rows straight to a
///               file instead of the report tree — constant memory, the
///               path for product-sized truth dumps
///   sample=K    sample every (n/K)-th vertex for the truth rows (0 = all)
///   vertices=L  ground truth at exactly these ;-separated vertex ids
///               (claim-sized work — never expands the full vector)
///   edges=1     additionally ride the stream pass with a TriangleCensusSink
///               (Σ Δ(e) + edge-count histogram measured during generation).
///               Both count stored slots, so each undirected edge counts
///               twice: streamed_edge_histogram is twice validate's
///               edge_histogram, and streamed_edge_triangle_sum is 6τ.
class CensusAnalysis final : public Analysis {
 public:
  explicit CensusAnalysis(const Params& p)
      : truth_(p.get_bool("truth", false)),
        truth_file_(p.get("truth_file", "")),
        sample_(p.get_uint("sample", 0)),
        edges_(p.get_bool("edges", false)) {
    p.require_known({"truth", "truth_file", "sample", "vertices", "edges"});
    if (p.has("vertices")) {
      const std::string list = p.get("vertices", "");
      std::size_t pos = 0;
      while (pos < list.size()) {
        std::size_t sep = list.find(';', pos);
        if (sep == std::string::npos) sep = list.size();
        const std::string token = list.substr(pos, sep - pos);
        try {
          std::size_t end = 0;
          vertices_.push_back(std::stoull(token, &end));
          if (end != token.size()) throw std::invalid_argument(token);
        } catch (const std::exception&) {
          throw std::invalid_argument(
              "census: param vertices entry \"" + token +
              "\" is not a vertex id");
        }
        pos = sep + 1;
      }
    }
  }

  bool wants_stream(const PlanContext& ctx) const override {
    return edges_ && ctx.two_factor();
  }

  std::unique_ptr<EdgeSink> make_sink(const PlanContext& ctx, std::uint64_t,
                                      std::uint64_t) override {
    if (!edges_ || !ctx.two_factor()) return nullptr;
    return std::make_unique<TriangleCensusSink>(ctx.oracle());
  }

  AnalysisReport execute(PlanContext& ctx,
                         std::span<EdgeSink* const> sinks) override {
    AnalysisReport r = report();
    util::json::Value matrices = util::json::Value::array();
    util::Table t({"Matrix", "Vertices", "Edges", "Triangles"});
    const auto add = [&](const std::string& name, count_t v, count_t e,
                         count_t tri) {
      t.row({name, util::commas(v), util::commas(e), util::commas(tri)});
      util::json::Value m = util::json::Value::object();
      m.set("name", name);
      m.set("vertices", v);
      m.set("edges", e);
      m.set("triangles", tri);
      matrices.push_back(std::move(m));
    };

    count_t product_total = 0;
    if (ctx.two_factor()) {
      const auto& a = ctx.factors()[0];
      const auto& b = ctx.factors()[1];
      add("A", a.num_vertices(), a.num_undirected_edges(),
          triangle::count_total(a));
      add("B", b.num_vertices(), b.num_undirected_edges(),
          triangle::count_total(b));
      const auto& oracle = ctx.oracle();
      product_total = oracle.total_triangles();
      add("C = A (x) B", oracle.num_vertices(),
          oracle.num_undirected_edges(), product_total);
    } else if (ctx.is_product()) {
      for (std::size_t i = 0; i < ctx.factors().size(); ++i) {
        const auto& f = ctx.factors()[i];
        std::string label = "A";
        label += std::to_string(i + 1);
        add(label, f.num_vertices(), f.num_undirected_edges(),
            triangle::count_total(f));
      }
      const auto& chain = ctx.chain();
      product_total = chain.total_triangles();
      add("C (chain)", chain.num_vertices(), chain.num_undirected_edges(),
          product_total);
    } else {
      const Graph& g = ctx.graph();
      product_total = ctx.total_triangles();
      add("G", g.num_vertices(), g.num_undirected_edges(), product_total);
    }

    if (truth_ || !truth_file_.empty() || !vertices_.empty()) {
      // Per-vertex exact counts: at the requested ids (claim-sized work),
      // or sampled on a uniform stride (the --truth protocol). truth_file
      // streams the rows to disk so product-sized dumps never build a
      // product-sized report tree.
      const count_t n = ctx.two_factor() ? ctx.oracle().num_vertices()
                        : ctx.is_product() ? ctx.chain().num_vertices()
                                           : ctx.graph().num_vertices();
      const auto count_at = [&](vid p) {
        return ctx.two_factor()  ? ctx.oracle().vertex_triangles(p)
               : ctx.is_product() ? ctx.chain().vertex_triangles(p)
                                  : ctx.vertex_triangles()[p];
      };
      const vid step =
          sample_ == 0 ? 1 : std::max<vid>(1, static_cast<vid>(n / sample_));
      if (!truth_file_.empty()) {
        std::ofstream file(truth_file_);
        if (!file) {
          throw std::runtime_error("cannot open truth file \"" + truth_file_ +
                                   "\"");
        }
        file << "# kronotri ground truth: product vertex -> triangles\n";
        count_t rows = 0;
        for (vid p = 0; p < n; p += step) {
          file << p << ' ' << count_at(p) << '\n';
          ++rows;
        }
        r.data.set("truth_file", truth_file_);
        r.data.set("ground_truth_rows", rows);
      }
      if (truth_ || !vertices_.empty()) {
        util::json::Value truth = util::json::Value::array();
        const auto add_row = [&](vid p) {
          util::json::Value row = util::json::Value::array();
          row.push_back(p);
          row.push_back(count_at(p));
          truth.push_back(std::move(row));
        };
        if (!vertices_.empty()) {
          for (const vid p : vertices_) {
            if (p < n) add_row(p);  // out-of-range ids are simply absent
          }
        } else {
          for (vid p = 0; p < n; p += step) add_row(p);
        }
        r.data.set("ground_truth", std::move(truth));
      }
    }

    if (!sinks.empty()) {
      // Stream-pass ride-along: merge the per-partition edge censuses.
      auto& merged = dynamic_cast<TriangleCensusSink&>(*sinks.front());
      for (std::size_t i = 1; i < sinks.size(); ++i) {
        merged.merge(dynamic_cast<const TriangleCensusSink&>(*sinks[i]));
      }
      r.data.set("streamed_edge_triangle_sum", merged.triangle_sum());
      r.data.set("streamed_edge_histogram",
                 util::json::histogram(merged.histogram()));
    }

    std::ostringstream os;
    t.print(os);
    r.text = os.str();
    r.data.set("matrices", std::move(matrices));
    r.data.set("total_triangles", product_total);
    return r;
  }

 private:
  bool truth_;
  std::string truth_file_;
  count_t sample_;
  std::vector<vid> vertices_;
  bool edges_;
};

/// `degree` — degree census of the job. The default is the factor-side
/// summary (summarize_kron_degrees never expands the n_A·n_B vector, so it
/// works at any product scale); measured=1 instead rides the stream pass
/// with a per-partition DegreeCensusSink — stored out-degrees counted
/// DURING generation, at O(|V_C|) counter memory per partition. Non-product
/// jobs summarize the explicit graph.
class DegreeAnalysis final : public Analysis {
 public:
  explicit DegreeAnalysis(const Params& p)
      : histogram_(p.get_bool("histogram", true)),
        measured_(p.get_bool("measured", false)) {
    p.require_known({"histogram", "measured"});
  }

  bool needs_graph(const PlanContext& ctx) const override {
    return !ctx.two_factor();
  }

  bool wants_stream(const PlanContext& ctx) const override {
    return measured_ && ctx.two_factor();
  }

  std::unique_ptr<EdgeSink> make_sink(const PlanContext& ctx, std::uint64_t,
                                      std::uint64_t) override {
    if (!measured_ || !ctx.two_factor()) return nullptr;
    return std::make_unique<DegreeCensusSink>(ctx.view().num_vertices());
  }

  AnalysisReport execute(PlanContext& ctx,
                         std::span<EdgeSink* const> sinks) override {
    AnalysisReport r = report();
    analysis::DegreeSummary summary;
    if (!sinks.empty()) {
      auto& merged = dynamic_cast<DegreeCensusSink&>(*sinks.front());
      for (std::size_t i = 1; i < sinks.size(); ++i) {
        merged.merge(dynamic_cast<const DegreeCensusSink&>(*sinks[i]));
      }
      summary = analysis::summarize_degrees(merged.degrees());
    } else if (ctx.two_factor()) {
      // No pass ran; the factor-side summary never expands the vector.
      summary = analysis::summarize_kron_degrees(ctx.factors()[0],
                                                 ctx.factors()[1]);
    } else {
      summary = analysis::summarize_degrees(ctx.graph());
    }
    r.data.set("max_degree", summary.max_degree);
    r.data.set("mean_degree", summary.mean_degree);
    r.data.set("max_ratio", summary.max_ratio);
    r.data.set("loglog_slope", summary.loglog_slope);
    if (histogram_) r.data.set("histogram", util::json::histogram(summary.histogram));
    std::ostringstream os;
    os << "max degree " << summary.max_degree << ", mean "
       << summary.mean_degree << ", max/n " << summary.max_ratio << "\n";
    r.text = os.str();
    return r;
  }

 private:
  bool histogram_;
  bool measured_;
};

/// `truss` — truss decomposition. With oracle=1 on a 2-factor product the
/// Thm 3 factor-side oracle is used (B must satisfy Δ_B ≤ 1, both factors
/// loop-free); otherwise the explicit graph is peeled directly.
class TrussAnalysis final : public Analysis {
 public:
  explicit TrussAnalysis(const Params& p)
      : oracle_(p.get_bool("oracle", false)) {
    p.require_known({"oracle"});
  }

  bool needs_graph(const PlanContext& ctx) const override {
    return !(oracle_ && ctx.two_factor());
  }

  bool needs_edge_triangles(const PlanContext& ctx) const override {
    return needs_graph(ctx);
  }

  AnalysisReport execute(PlanContext& ctx,
                         std::span<EdgeSink* const>) override {
    AnalysisReport r = report();
    util::json::Value rows = util::json::Value::array();
    util::Table table({"kappa", "|T^kappa|"});
    const auto add = [&](count_t kappa, count_t edges) {
      table.row({std::to_string(kappa), util::commas(edges)});
      util::json::Value row = util::json::Value::object();
      row.set("kappa", kappa);
      row.set("edges", edges);
      rows.push_back(std::move(row));
    };
    std::ostringstream os;
    if (oracle_ && ctx.two_factor()) {
      const truss::KronTrussOracle oracle(ctx.factors()[0], ctx.factors()[1]);
      os << "Thm 3 oracle for C = A (x) B ("
         << ctx.view().num_undirected_edges() << " edges); max truss "
         << oracle.max_truss() << "\n";
      for (count_t k = 3; k <= oracle.max_truss(); ++k) {
        add(k, oracle.edges_in_truss(k));
      }
      r.data.set("mode", "oracle");
      r.data.set("max_truss", oracle.max_truss());
    } else {
      if (oracle_) {
        throw std::invalid_argument(
            "truss: oracle=1 requires a 2-factor kron spec without outer "
            "modifiers");
      }
      // No wall time in `text`: the report's wall_s carries it, and text
      // must be identical across identical runs. The peel starts from the
      // plan's shared census, and |T^κ| comes from one histogram pass.
      const auto sizes = truss::truss_sizes(
          truss::peel(ctx.census(), ctx.edge_triangles()));
      const count_t max_truss = sizes.size() - 1;
      os << "truss decomposition of " << ctx.graph().num_undirected_edges()
         << " edges; max truss " << max_truss << "\n";
      for (count_t k = 3; k <= max_truss; ++k) add(k, sizes[k]);
      r.data.set("mode", "decompose");
      r.data.set("max_truss", max_truss);
    }
    table.print(os);
    r.text = os.str();
    r.data.set("trusses", std::move(rows));
    return r;
  }

 private:
  bool oracle_;
};

/// `components` — connected components: the factor-side Weichsel count for
/// 2-factor products, the parallel union-find labeling otherwise.
class ComponentsAnalysis final : public Analysis {
 public:
  explicit ComponentsAnalysis(const Params& p) { p.require_known({}); }

  bool needs_graph(const PlanContext& ctx) const override {
    return !ctx.two_factor();
  }

  AnalysisReport execute(PlanContext& ctx,
                         std::span<EdgeSink* const>) override {
    AnalysisReport r = report();
    count_t count = 0;
    if (ctx.two_factor()) {
      count = analysis::kron_component_count(ctx.factors()[0],
                                             ctx.factors()[1]);
      r.data.set("mode", "weichsel");
    } else {
      count = analysis::connected_components(ctx.graph()).count;
      r.data.set("mode", "union_find");
    }
    r.data.set("components", count);
    r.text = "connected components: " + util::commas(count) + "\n";
    return r;
  }
};

/// `clustering` — global and average clustering coefficients of the
/// explicit graph (the §I motivating statistics), from the plan's shared
/// triangle counts.
class ClusteringAnalysis final : public Analysis {
 public:
  explicit ClusteringAnalysis(const Params& p) { p.require_known({}); }

  bool needs_graph(const PlanContext&) const override { return true; }

  AnalysisReport execute(PlanContext& ctx,
                         std::span<EdgeSink* const>) override {
    AnalysisReport r = report();
    const Graph& g = ctx.graph();
    const double global = triangle::global_clustering(g, ctx.total_triangles());
    const double average =
        triangle::average_clustering(g, ctx.vertex_triangles());
    r.data.set("global_clustering", global);
    r.data.set("average_clustering", average);
    std::ostringstream os;
    os << "global clustering " << global << ", average clustering " << average
       << "\n";
    r.text = os.str();
    return r;
  }
};

/// `egonet` — the Fig. 7 protocol at one product vertex: materialize the
/// egonet from the implicit view and check its center triangle count
/// against the closed form. Params: vertex=P (required).
class EgonetAnalysis final : public Analysis {
 public:
  explicit EgonetAnalysis(const Params& p) : vertex_(p.get_uint("vertex", 0)) {
    p.require_known({"vertex"});
    if (!p.has("vertex")) {
      throw std::invalid_argument("egonet: param vertex=P is required");
    }
  }

  bool needs_graph(const PlanContext& ctx) const override {
    return !ctx.two_factor();
  }

  AnalysisReport execute(PlanContext& ctx,
                         std::span<EdgeSink* const>) override {
    AnalysisReport r = report();
    std::ostringstream os;
    count_t measured = 0, formula = 0;
    if (ctx.two_factor()) {
      const auto& c = ctx.view();
      if (vertex_ >= c.num_vertices()) {
        throw std::out_of_range("vertex out of range (product has " +
                                std::to_string(c.num_vertices()) +
                                " vertices)");
      }
      const auto ego = analysis::extract_egonet(c, vertex_);
      measured = analysis::center_triangles(ego);
      formula = ctx.oracle().vertex_triangles(vertex_);
      os << "product vertex " << vertex_ << " = (A:"
         << c.index().a_of(vertex_) << ", B:" << c.index().b_of(vertex_)
         << ")\n"
         << "  degree:             " << c.nonloop_degree(vertex_) << "\n"
         << "  egonet size:        " << ego.vertices.size() << " vertices, "
         << ego.graph.num_undirected_edges() << " edges\n";
      r.data.set("degree", c.nonloop_degree(vertex_));
      r.data.set("egonet_vertices", ego.vertices.size());
      r.data.set("egonet_edges", ego.graph.num_undirected_edges());
    } else {
      const Graph& g = ctx.graph();
      if (vertex_ >= g.num_vertices()) {
        throw std::out_of_range("vertex out of range (graph has " +
                                std::to_string(g.num_vertices()) +
                                " vertices)");
      }
      const auto ego = analysis::extract_egonet(g, vertex_);
      measured = analysis::center_triangles(ego);
      formula = ctx.vertex_triangles()[vertex_];
      os << "vertex " << vertex_ << ": egonet "
         << ego.vertices.size() << " vertices, "
         << ego.graph.num_undirected_edges() << " edges\n";
      r.data.set("egonet_vertices", ego.vertices.size());
      r.data.set("egonet_edges", ego.graph.num_undirected_edges());
    }
    os << "  triangles (egonet): " << measured << "\n"
       << "  triangles (formula):" << formula << "\n"
       << "  " << (measured == formula ? "MATCH" : "MISMATCH") << "\n";
    r.text = os.str();
    r.data.set("vertex", vertex_);
    r.data.set("measured", measured);
    r.data.set("formula", formula);
    r.pass = measured == formula;
    r.data.set("pass", r.pass);
    return r;
  }

 private:
  vid vertex_;
};

/// `labeled-census` — the §V labeled triangle census on the explicit graph
/// with the deterministic labeling f(v) = v mod L. Params: labels=L,
/// mem_budget=BYTES[K|M|G] (accumulator clamp).
class LabeledCensusAnalysis final : public Analysis {
 public:
  explicit LabeledCensusAnalysis(const Params& p)
      : labels_(static_cast<std::uint32_t>(p.get_uint("labels", 3))),
        budget_(p.get_bytes("mem_budget",
                            triangle::kLabeledCensusAccumulatorBudget)) {
    p.require_known({"labels", "mem_budget"});
    if (labels_ == 0) {
      throw std::invalid_argument("labeled-census: labels must be >= 1");
    }
  }

  bool needs_graph(const PlanContext&) const override { return true; }

  AnalysisReport execute(PlanContext& ctx,
                         std::span<EdgeSink* const>) override {
    AnalysisReport r = report();
    const Graph& g = ctx.graph();
    triangle::Labeling lab;
    lab.num_labels = labels_;
    lab.label.resize(g.num_vertices());
    for (vid v = 0; v < g.num_vertices(); ++v) lab.label[v] = v % labels_;
    const auto census = triangle::labeled_census(g, lab, budget_);
    // Per-type totals: Σ_v t^{(q1,{qa,qb})}[v] over all center labels —
    // 3·(triangles of that unordered label triple) summed over rotations.
    util::json::Value types = util::json::Value::array();
    count_t vertex_sum = 0;
    for (std::uint32_t qa = 0; qa < labels_; ++qa) {
      for (std::uint32_t qb = qa; qb < labels_; ++qb) {
        count_t total = 0;
        for (const count_t c : census.at_vertices[census.pair_index(qa, qb)]) {
          total += c;
        }
        vertex_sum += total;
        util::json::Value row = util::json::Value::object();
        row.set("other_labels",
                std::to_string(qa) + "," + std::to_string(qb));
        row.set("vertex_count_sum", total);
        types.push_back(std::move(row));
      }
    }
    r.data.set("num_labels", labels_);
    r.data.set("vertex_count_sum", vertex_sum);
    r.data.set("types", std::move(types));
    std::ostringstream os;
    os << "labeled census with L=" << labels_ << " (f(v)=v mod L): Σ t = "
       << util::commas(vertex_sum) << " over "
       << (labels_ * (labels_ + 1) / 2) << " vertex types\n";
    r.text = os.str();
    return r;
  }

 private:
  std::uint32_t labels_;
  std::size_t budget_;
};

/// `validate` — the sharded streaming census checked against the closed
/// forms (never materializing C). Params: mem_budget=BYTES[K|M|G]
/// (defaults to the run option), shards=N (force a shard count),
/// unit=I + units=U (process only unit I's slice of the shard plan — the
/// partial-fragment mode the multi-process runner forks over).
class ValidateAnalysis final : public Analysis {
 public:
  explicit ValidateAnalysis(const Params& p)
      : shards_(p.get_uint("shards", 0)),
        unit_(p.get_uint("unit", 0)),
        units_(p.get_uint("units", 0)) {
    p.require_known({"mem_budget", "shards", "unit", "units"});
    if (p.has("mem_budget")) budget_ = p.get_bytes("mem_budget", 0);
    if (units_ > 0 && unit_ >= units_) {
      throw std::invalid_argument(
          "validate: unit must be < units (got unit=" +
          std::to_string(unit_) + ", units=" + std::to_string(units_) + ")");
    }
  }

  AnalysisReport execute(PlanContext& ctx,
                         std::span<EdgeSink* const>) override {
    AnalysisReport r = report();
    validate::StreamingOptions opt;
    opt.mem_budget_bytes =
        budget_.value_or(ctx.options().mem_budget_bytes);
    opt.force_shards = shards_;
    opt.unit = unit_;
    opt.units = units_;
    validate::ValidationReport vr;
    if (ctx.two_factor()) {
      vr = validate::validate_product(ctx.factors()[0], ctx.factors()[1],
                                      opt);
    } else if (ctx.is_product()) {
      vr = validate::validate_chain(ctx.chain(), opt);
    } else {
      // Single graph: a 1-factor chain is the census self-check.
      const kron::KronChain chain({ctx.graph()});
      vr = validate::validate_chain(chain, opt);
    }
    vr.spec = ctx.spec().to_string();
    std::ostringstream os;
    vr.print(os);
    r.text = os.str();
    r.data = vr.to_json();
    r.pass = vr.pass();
    return r;
  }

 private:
  std::optional<std::size_t> budget_;
  std::uint64_t shards_;
  std::uint64_t unit_;
  std::uint64_t units_;
};

}  // namespace

AnalysisRegistry& AnalysisRegistry::builtin() {
  static AnalysisRegistry* reg = [] {
    auto* r = new AnalysisRegistry();
    r->add("census",
           "V/E/triangle table of factors and product: truth=0/1, "
           "truth_file=PATH, sample=K, "
           "vertices=p1;p2;…, edges=0/1 (stream-pass edge census)",
           [](const Params& p) { return std::make_unique<CensusAnalysis>(p); });
    r->add("degree",
           "degree census (factor-side by default; measured=1 rides the "
           "stream pass): histogram=0/1, measured=0/1",
           [](const Params& p) { return std::make_unique<DegreeAnalysis>(p); });
    r->add("truss",
           "truss decomposition: oracle=0/1 (Thm 3 factor-side oracle, "
           "needs 2-factor product with Δ_B ≤ 1)",
           [](const Params& p) { return std::make_unique<TrussAnalysis>(p); });
    r->add("components",
           "connected components (Weichsel factor-side count on 2-factor "
           "products)",
           [](const Params& p) {
             return std::make_unique<ComponentsAnalysis>(p);
           });
    r->add("clustering", "global + average clustering coefficients",
           [](const Params& p) {
             return std::make_unique<ClusteringAnalysis>(p);
           });
    r->add("egonet",
           "Fig. 7 egonet check at one vertex: vertex=P (required)",
           [](const Params& p) { return std::make_unique<EgonetAnalysis>(p); });
    r->add("labeled-census",
           "§V labeled census with f(v)=v mod L: labels=L, "
           "mem_budget=BYTES[K|M|G]",
           [](const Params& p) {
             return std::make_unique<LabeledCensusAnalysis>(p);
           });
    r->add("validate",
           "sharded streaming census vs closed forms: "
           "mem_budget=BYTES[K|M|G], shards=N, unit=I units=U "
           "(shard-subset fragment)",
           [](const Params& p) {
             return std::make_unique<ValidateAnalysis>(p);
           });
    return r;
  }();
  return *reg;
}

}  // namespace kronotri::api
