// ValidationReport — measured streaming census vs closed-form predictions.
//
// The paper's validation loop, packaged: run the sharded StreamingCensus
// over the implicit product, and compare every measured per-vertex and
// per-edge triangle count against the factor-side closed forms (the
// kron::TriangleOracle expressions, for any k ≥ 1 factors and any
// self-loop configuration) inside the census's own wedge pass. When t_C
// is a single Kronecker term (some factor loop-free), the measured vertex
// histogram is also compared with the closed-form one. Per *Same Stats, Different Graphs*, the report keeps the
// full measured count distributions (histograms), not just totals, plus
// max-abs-error and a pass/fail verdict — the artifact the CLI prints and
// CI gates on.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>

#include "core/graph.hpp"
#include "util/json.hpp"
#include "validate/streaming_census.hpp"

namespace kronotri::kron {
class KronMatrixExpr;
class KronVectorExpr;
class TriangleOracle;
}  // namespace kronotri::kron

namespace kronotri::validate {

struct ValidationReport {
  std::string spec;  ///< human-readable product description (caller-set)
  vid num_vertices = 0;
  count_t num_edges = 0;  ///< undirected non-loop edges of C
  std::size_t num_factors = 0;
  std::size_t mem_budget_bytes = 0;

  count_t measured_total = 0;
  count_t predicted_total = 0;

  /// Every vertex's t and every undirected edge's Δ checked against the
  /// closed forms, with the measured count histograms.
  CountCheck vertex;
  CountCheck edge;

  /// Closed-form vertex histogram (factor-side, TriangleOracle) when the
  /// product's t_C is a single Kronecker term (some factor loop-free);
  /// empty (and histogram_checked = false) otherwise.
  std::map<count_t, count_t> predicted_vertex_histogram;
  bool histogram_checked = false;

  StreamingStats stats;

  /// True while the report covers only a shard subset (StreamingOptions
  /// unit/units) — a fragment of the multi-process runner. Total and
  /// histogram identities only hold on the whole census, so a partial
  /// report passes on pointwise mismatches alone; merge() + finalize()
  /// restore the full contract.
  bool partial = false;

  [[nodiscard]] bool pass() const noexcept {
    if (partial) return vertex.mismatches == 0 && edge.mismatches == 0;
    return vertex.mismatches == 0 && edge.mismatches == 0 &&
           measured_total == predicted_total &&
           stats.vertex_count_sum == 3 * measured_total &&
           stats.edge_count_sum == 3 * measured_total &&
           (!histogram_checked ||
            vertex.histogram == predicted_vertex_histogram);
  }

  /// Folds a fragment covering a DISJOINT shard subset of the same census
  /// into this one: counters add, maxima take max, histograms sum.
  /// Shard ownership makes the fold exact — no shard contributes to two
  /// fragments' counters.
  void merge(const ValidationReport& other);

  /// Marks a fully merged report complete again: recomputes the measured
  /// total from the merged vertex sum and drops `partial`, restoring the
  /// strict pass() contract. The result is field-identical to the
  /// single-process report when every unit was merged exactly once.
  void finalize_merged();

  /// Human-readable summary (the `kronotri validate --spec` output).
  void print(std::ostream& os) const;

  /// Single JSON object with every scalar field plus the histograms — the
  /// building block of `validate --json` and the RunReport `validate`
  /// stage.
  [[nodiscard]] util::json::Value to_json() const;
  void write_json(std::ostream& os) const;

  /// Inverse of to_json() — how the coordinator reads worker fragments.
  static ValidationReport from_json(const util::json::Value& v);

  /// Content digest (hash64 of the canonical JSON) — what the runner's
  /// journal records per fragment so a resumed unit is provably the same
  /// result, not merely a file that parses.
  [[nodiscard]] std::uint64_t fingerprint() const;
};

/// Streams `census` under its own options (including a unit/units
/// restriction) and checks every measured count against t_C = `vertex` and
/// Δ_C = `edge`, which need not be the census's own product: an edge
/// `edge` lacks counts as a mismatch of its measured Δ. The predicted total
/// is vertex.sum() / 3, and a single-term `vertex` also predicts the
/// vertex histogram.
ValidationReport validate_census(const StreamingCensus& census,
                                 const kron::KronVectorExpr& vertex,
                                 const kron::KronMatrixExpr& edge);

/// validate_census of the oracle's own factors under `opt` against the
/// oracle's closed forms.
ValidationReport validate_product(const kron::TriangleOracle& oracle,
                                  const StreamingOptions& opt = {});

/// Same, building the oracle of A ⊗ B. Factors must be undirected.
ValidationReport validate_product(const Graph& a, const Graph& b,
                                  const StreamingOptions& opt = {});

}  // namespace kronotri::validate
