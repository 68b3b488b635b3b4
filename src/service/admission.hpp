// Admission control: can this plan run inside the per-job memory budget?
//
// The whole point of a bounded server is that one huge Kronecker product
// must be turned away with a reason, not wedge a worker. The estimate is
// analytic — arithmetic over the spec's parameters, the same philosophy as
// validate::StreamingCensus::upper_degree (O(k log d) from the factors, no
// enumeration) pushed one level earlier: here NOTHING is generated, so
// admission costs microseconds even for plans that would cost terabytes.
//
// Model (documented upper-bound flavor, exact for deterministic families,
// expected-value for random ones):
//   * per family: vertices n and stored entries nnz (directed entries, both
//     directions of an undirected edge);
//   * kron: n = Π n_i, nnz = Π nnz_i (the Kronecker identity), +n per
//     modifier that adds loops;
//   * a plan whose analyses all run factor-side/streaming on an unmodified
//     2-factor product never materializes C — its footprint is the factor
//     graphs plus the configured accumulator budget, plus a truss peel's
//     per-edge state and factor common-neighbour lists when it runs
//     `truss`; anything else materializes, charged at bytes-per-entry CSR +
//     census-counter rates.
#pragma once

#include <cstddef>
#include <string>

#include "api/plan.hpp"

namespace kronotri::service {

struct CostEstimate {
  double vertices = 0;        ///< product vertices the plan touches
  double stored_entries = 0;  ///< nnz of the (would-be) materialized graph
  double bytes = 0;           ///< estimated peak job footprint
  bool materializes = false;  ///< the product/graph must be built explicitly
  std::string detail;         ///< human-readable model summary
};

/// Never generates anything; unknown families are estimated pessimistically
/// from their n/m/scale params so a typo'd spec still fails fast later in
/// the worker (plan validation), not here.
[[nodiscard]] CostEstimate estimate_plan_cost(const api::RunPlan& plan);

/// Empty string when the plan fits `budget_bytes`; otherwise the structured
/// rejection reason ("estimated N bytes exceeds per-job budget M: <model>").
[[nodiscard]] std::string over_budget_reason(const api::RunPlan& plan,
                                             std::size_t budget_bytes);

}  // namespace kronotri::service
