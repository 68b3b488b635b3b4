#include "service/admission.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sys/stat.h>

namespace kronotri::service {

namespace {

struct FamilyCost {
  double vertices = 0;
  double entries = 0;  ///< stored (directed) entries
};

/// Per-family size model. Deterministic families are exact; random models
/// use their expected edge count. The registry's default parameter values
/// are mirrored here so an omitted param estimates what would actually run.
FamilyCost family_cost(const api::GraphSpec& s) {
  const double n = static_cast<double>(s.get_uint("n", 1000));
  if (s.family == "clique") {
    const double k = static_cast<double>(s.get_uint("n", 5));
    return {k, k * (k - 1)};
  }
  if (s.family == "cycle" || s.family == "path") {
    const double k = static_cast<double>(s.get_uint("n", 5));
    return {k, 2 * k};
  }
  if (s.family == "star") {
    const double k = static_cast<double>(s.get_uint("n", 5));
    return {k, 2 * (k - 1)};
  }
  if (s.family == "bipartite") {
    const double a = static_cast<double>(s.get_uint("a", 3));
    const double b = static_cast<double>(s.get_uint("b", 3));
    return {a + b, 2 * a * b};
  }
  if (s.family == "hubcycle") return {7, 24};
  if (s.family == "er") {
    const double p = s.get_double("p", 0.01);
    return {n, n * (n - 1) * p};
  }
  if (s.family == "er-m") {
    return {n, 2.0 * static_cast<double>(s.get_uint("m", 2000))};
  }
  if (s.family == "ba" || s.family == "hk") {
    const double m = static_cast<double>(s.get_uint("m", 3));
    return {n, 2 * n * m};
  }
  if (s.family == "rmat") {
    const double scale = static_cast<double>(s.get_uint("scale", 10));
    const double ef = static_cast<double>(s.get_uint("ef", 16));
    const double nv = std::pow(2.0, scale);
    return {nv, 2 * nv * ef};
  }
  if (s.family == "onetri") return {n, 3 * n};
  if (s.family == "file") {
    // One text edge per ~12 bytes is a dense lower bound; symmetrize could
    // double it, so charge both directions.
    struct stat st{};
    const double size =
        ::stat(s.get("path", "").c_str(), &st) == 0
            ? static_cast<double>(st.st_size)
            : 0.0;
    const double edges = size / 12.0;
    return {edges, 2 * edges};  // vertices unknowable; bound by edge count
  }
  // Unknown family (typo or not-yet-registered): assume the worst
  // plausible shape its generic params describe so admission stays safe.
  const double m = static_cast<double>(s.get_uint("m", 16));
  return {n, 2 * n * std::max(1.0, m)};
}

FamilyCost spec_cost(const api::GraphSpec& s) {
  if (!s.is_kron()) {
    FamilyCost c = family_cost(s);
    if (s.get_bool("loops", false)) c.entries += c.vertices;
    return c;
  }
  FamilyCost c{1, 1};
  for (const api::GraphSpec& f : s.factors) {
    FamilyCost fc = family_cost(f);
    if (f.get_bool("loops", false)) fc.entries += fc.vertices;
    c.vertices *= std::max(1.0, fc.vertices);
    c.entries *= std::max(1.0, fc.entries);
  }
  if (s.get_bool("loops", false)) c.entries += c.vertices;
  return c;
}

/// Analyses that run factor-side or ride the stream pass on an unmodified
/// 2-factor product — the set that never forces materializing C. Mirrors
/// the needs_graph() answers of the builtin analyses in that regime.
bool streams_on_two_factor(const std::string& name) {
  return name == "census" || name == "degree" || name == "validate" ||
         name == "components" || name == "egonet" || name == "clustering" ||
         name == "truss";
}

constexpr double kBytesPerEntry = 24;   // CSR cols+offsets + census counters
constexpr double kBytesPerVertex = 16;  // degree/count arrays
// A product's truss peel (truss/product_peel.cpp): support and state per
// undirected edge of C (the truss numbers overwrite the supports), and one
// 24-byte common-neighbour entry per factor slot and shared neighbour,
// charged at the factor's mean degree per slot.
constexpr double kPeelBytesPerEdge = 9;
constexpr double kBytesPerCommon = 24;

}  // namespace

CostEstimate estimate_plan_cost(const api::RunPlan& plan) {
  const api::GraphSpec& spec = plan.spec;
  const FamilyCost total = spec_cost(spec);

  CostEstimate est;
  est.vertices = total.vertices;
  est.stored_entries = total.entries;

  const bool modified =
      spec.get_bool("prune", false) || spec.get_bool("loops", false);
  const bool two_factor =
      spec.is_kron() && spec.factors.size() == 2 && !modified;
  bool all_stream = two_factor;
  bool peels = false;
  for (const api::AnalysisRequest& req : plan.analyses) {
    all_stream = all_stream && streams_on_two_factor(req.name);
    peels = peels || req.name == "truss";
  }
  est.materializes = !all_stream;

  if (est.materializes) {
    est.bytes = total.entries * kBytesPerEntry + total.vertices * kBytesPerVertex;
  } else {
    // Streaming regime: the factors are explicit, C never is; the census
    // accumulators are clamped to the plan's own budget.
    double factor_bytes = 0;
    for (const api::GraphSpec& f : spec.factors) {
      const FamilyCost fc = family_cost(f);
      factor_bytes += fc.entries * kBytesPerEntry + fc.vertices * kBytesPerVertex;
      if (peels) {
        factor_bytes += fc.entries * (fc.entries / std::max(1.0, fc.vertices)) *
                        kBytesPerCommon;
      }
    }
    est.bytes =
        factor_bytes + static_cast<double>(plan.options.mem_budget_bytes);
    if (peels) {
      est.bytes += total.entries / 2 * kPeelBytesPerEdge +
                   total.vertices * kBytesPerVertex;
    }
  }

  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "%.3g vertices, %.3g stored entries, %s -> %.3g bytes",
                est.vertices, est.stored_entries,
                est.materializes ? "materialized" : "streamed", est.bytes);
  est.detail = buf;
  return est;
}

std::string over_budget_reason(const api::RunPlan& plan,
                               std::size_t budget_bytes) {
  const CostEstimate est = estimate_plan_cost(plan);
  if (est.bytes <= static_cast<double>(budget_bytes)) return {};
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "estimated %.3g bytes exceeds the per-job budget of %zu "
                "bytes (%s)",
                est.bytes, budget_bytes, est.detail.c_str());
  return buf;
}

}  // namespace kronotri::service
