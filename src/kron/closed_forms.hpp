// ClosedForms — a product's triangle closed forms, evaluated at factor
// coordinates.
//
// TriangleOracle's two-factor formulas (Thm 1/2, Cor 1/2 and the §III.B/C
// expansions) and KronChain's k-factor ones share one shape: a signed sum
// of Kronecker products of factor statistics over a common divisor,
//
//   t_C(x)    = (Σ_t c_t · Π_f v_{t,f}[x_f]) / d_t
//   Δ_C(x, y) = (Σ_t c_t · Π_f M_{t,f}(x_f, y_f)) / d_Δ,
//
// with x, y the factor coordinates of the endpoints. ClosedForms holds
// both in that shape, so a caller that already has a vertex's coordinates
// (the streaming validator's wedge pass) evaluates them without composing
// product ids or allocating. Every edge term M_{t,f} is supported on
// factor f's adjacency pattern, so its values are read aligned with the
// factor's CSR: M_{t,f}(x, y) is one read at the slot of (x, y) in factor
// f — the slot a neighbor odometer over the factor rows already stands on.
// The terms are the oracle's or chain's own arrays; only a term stored on
// a narrower pattern than its factor's is copied onto the factor's slots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/csr.hpp"
#include "core/graph.hpp"

namespace kronotri::kron {

class TriangleOracle;
class KronChain;

class ClosedForms {
 public:
  /// The oracle's forms of A ⊗ B. The oracle must outlive this.
  explicit ClosedForms(const TriangleOracle& oracle);

  /// The chain's forms; throws std::invalid_argument when every factor has
  /// self loops (KronChain's own precondition). The chain must outlive this.
  explicit ClosedForms(const KronChain& chain);

  // Terms may point into owned_, which a copy would not share.
  ClosedForms(const ClosedForms&) = delete;
  ClosedForms& operator=(const ClosedForms&) = delete;

  [[nodiscard]] std::size_t num_factors() const noexcept {
    return factors_.size();
  }
  [[nodiscard]] const Graph& factor(std::size_t f) const { return *factors_[f]; }
  [[nodiscard]] count_t total_triangles() const noexcept { return total_; }

  /// t_C at the vertex with factor coordinates x[0..k); nullopt when the
  /// sum is negative or not divisible (statistics that do not fit the
  /// formula — KronVectorExpr::at throws there).
  [[nodiscard]] std::optional<count_t> vertex_triangles(const vid* x) const {
    return vertex_.eval(x);
  }

  /// Δ_C at the edge whose factor-f coordinate pair sits at adjacency slot
  /// slot[f] of factor f (an index into factor(f).matrix().col_idx());
  /// nullopt like vertex_triangles().
  [[nodiscard]] std::optional<count_t> edge_triangles(const esz* slot) const {
    return edge_.eval(slot);
  }

  /// Adjacency slot of (x, y) in factor f; nullopt when it is not an edge
  /// of factor f.
  [[nodiscard]] std::optional<esz> slot(std::size_t f, vid x, vid y) const;

 private:
  /// Σ_t coeff[t] · Π_f values[t·k + f][at[f]], divided by `divisor`.
  struct Form {
    std::size_t k = 0;
    std::int64_t divisor = 1;
    std::vector<std::int64_t> coeff;
    std::vector<const count_t*> values;

    template <typename Index>
    std::optional<count_t> eval(const Index* at) const;
  };

  /// m's values on g's adjacency slots: m's own array when m has g's
  /// pattern, else a copy in owned_ with 0 where m has no entry.
  const count_t* on_slots(const Graph& g, const CountCsr& m);

  std::vector<const Graph*> factors_;
  Form vertex_;
  Form edge_;
  std::vector<std::vector<count_t>> owned_;
  count_t total_ = 0;
};

template <typename Index>
std::optional<count_t> ClosedForms::Form::eval(const Index* at) const {
  __int128 acc = 0;
  for (std::size_t t = 0; t < coeff.size(); ++t) {
    __int128 term = coeff[t];
    for (std::size_t f = 0; f < k; ++f) term *= values[t * k + f][at[f]];
    acc += term;
  }
  if (acc < 0) return std::nullopt;
  if (divisor == 1) return static_cast<count_t>(acc);  // no 128-bit division
  if (acc % divisor != 0) return std::nullopt;
  return static_cast<count_t>(acc / divisor);
}

}  // namespace kronotri::kron
