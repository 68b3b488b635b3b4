#include "kron/closed_forms.hpp"

#include "kron/multi.hpp"
#include "kron/oracle.hpp"

namespace kronotri::kron {

ClosedForms::ClosedForms(const TriangleOracle& oracle)
    : factors_{&oracle.factor_a(), &oracle.factor_b()},
      total_(oracle.total_triangles()) {
  vertex_.k = edge_.k = 2;
  vertex_.divisor = oracle.vertex_expr().divisor();
  for (const auto& term : oracle.vertex_expr().terms()) {
    vertex_.coeff.push_back(term.coeff);
    vertex_.values.push_back(term.a.data());
    vertex_.values.push_back(term.b.data());
  }
  edge_.divisor = oracle.edge_expr().divisor();
  for (const auto& term : oracle.edge_expr().terms()) {
    edge_.coeff.push_back(term.coeff);
    edge_.values.push_back(on_slots(*factors_[0], term.a));
    edge_.values.push_back(on_slots(*factors_[1], term.b));
  }
}

ClosedForms::ClosedForms(const KronChain& chain)
    : total_(chain.total_triangles()) {
  // t_C = ½·⊗ᵢ diag(Aᵢ³), Δ_C = ⊗ᵢ (Aᵢ ∘ Aᵢ²); the support matrix keeps
  // its factor's CSR pattern, so its values are already on the slots.
  vertex_.k = edge_.k = chain.num_factors();
  vertex_.divisor = 2;
  vertex_.coeff = {1};
  edge_.coeff = {1};
  for (std::size_t i = 0; i < chain.num_factors(); ++i) {
    factors_.push_back(&chain.factor(i));
    vertex_.values.push_back(chain.diag_cube(i).data());
    edge_.values.push_back(chain.support(i).values().data());
  }
}

const count_t* ClosedForms::on_slots(const Graph& g, const CountCsr& m) {
  const BoolCsr& adj = g.matrix();
  if (m.row_ptr() == adj.row_ptr() && m.col_idx() == adj.col_idx()) {
    return m.values().data();
  }
  // A moved vector keeps its buffer, so earlier pointers stay valid.
  std::vector<count_t>& out = owned_.emplace_back(adj.nnz());
  for (vid x = 0; x < adj.rows(); ++x) {
    for (esz s = adj.row_ptr()[x]; s < adj.row_ptr()[x + 1]; ++s) {
      out[s] = m.at(x, adj.col_idx()[s]);
    }
  }
  return out.data();
}

std::optional<esz> ClosedForms::slot(std::size_t f, vid x, vid y) const {
  const BoolCsr& adj = factors_[f]->matrix();
  const esz s = adj.find(x, y);
  if (s == adj.nnz()) return std::nullopt;
  return s;
}

}  // namespace kronotri::kron
