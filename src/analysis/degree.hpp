// Degree-distribution analysis (§III.A of the paper).
//
// d_C = d_A ⊗ d_B for loop-free factors, with the self-loop corrections of
// §III.A otherwise. The qualitative observation the paper makes — the ratio
// of maximum degree to vertex count SQUARES under the product,
// ‖d_C‖∞/n_C = (‖d_A‖∞/n_A)·(‖d_B‖∞/n_B) — is checked on
// examples/plans/paper_degree_dist.json; the summary also carries heavy-tail
// statistics.
#pragma once

#include <map>

#include "core/graph.hpp"
#include "kron/formulas.hpp"

namespace kronotri::analysis {

struct DegreeSummary {
  count_t max_degree = 0;
  double mean_degree = 0.0;
  double max_ratio = 0.0;     ///< ‖d‖∞ / n
  double loglog_slope = 0.0;  ///< crude power-law tail exponent estimate
  std::map<count_t, count_t> histogram;
};

/// Summary of an explicit degree vector.
DegreeSummary summarize_degrees(const std::vector<count_t>& degrees);

/// Summary of the non-loop degrees of an explicit graph.
DegreeSummary summarize_degrees(const Graph& g);

/// Factor-side summary of d_C for C = A ⊗ B: max degree, mean and the
/// squared max-ratio are computed without expanding the n_A·n_B vector.
/// The histogram is the exact degree histogram of C, computed as the
/// product-convolution of the factor histograms (loop-free factors) or by
/// expansion otherwise.
DegreeSummary summarize_kron_degrees(const Graph& a, const Graph& b);

}  // namespace kronotri::analysis
