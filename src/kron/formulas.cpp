#include "kron/formulas.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/ops.hpp"
#include "kron/product.hpp"
#include "triangle/count.hpp"
#include "triangle/support.hpp"

namespace kronotri::kron {

namespace {

/// v, or std::logic_error when the formula did not evaluate (misuse).
count_t checked(std::optional<count_t> v) {
  if (!v) {
    throw std::logic_error(
        "Kronecker formula evaluated to a negative or non-divisible value — "
        "factor statistics do not match the formula's preconditions");
  }
  return *v;
}

count_t loop(const Graph& g, vid u) { return g.has_edge(u, u) ? 1 : 0; }

/// The vector with fn(u) at every vertex u of g.
template <typename F>
std::vector<count_t> per_vertex(const Graph& g, F fn) {
  std::vector<count_t> v(g.num_vertices());
  for (vid u = 0; u < g.num_vertices(); ++u) v[u] = fn(u);
  return v;
}

/// The matrix on g's adjacency pattern with fn(x, y) at every slot (x, y).
template <typename F>
CountCsr on_pattern(const Graph& g, F fn) {
  const BoolCsr& m = g.matrix();
  std::vector<count_t> vals(m.nnz());
  for (vid x = 0; x < m.rows(); ++x) {
    for (esz s = m.row_ptr()[x]; s < m.row_ptr()[x + 1]; ++s) {
      vals[s] = fn(x, m.col_idx()[s]);
    }
  }
  return CountCsr::from_parts(m.rows(), m.cols(), m.row_ptr(), m.col_idx(),
                              std::move(vals));
}

/// 0/1 self-loop indicator vector diag(D_A).
std::vector<count_t> loop_vector(const Graph& g) {
  return per_vertex(g, [&](vid u) { return loop(g, u); });
}

/// diag(A²·D_A): (A²)_ii·loop_i; for symmetric 0/1 A, (A²)_ii is the row
/// degree (each stored neighbor j contributes A_ij·A_ji = 1).
std::vector<count_t> diag_a2_d(const Graph& g) {
  return per_vertex(g, [&](vid u) { return loop(g, u) * g.out_degree(u); });
}

/// diag(A·D_A·A): Σ_{j ∈ row(i)} loop_j for symmetric 0/1 A.
std::vector<count_t> diag_ada(const Graph& g) {
  return per_vertex(g, [&](vid u) {
    count_t acc = 0;
    for (const vid j : g.neighbors(u)) acc += loop(g, j);
    return acc;
  });
}

/// A ∘ A² including self-loop structure (the un-stripped variant the general
/// Δ formula needs; for loop-free graphs this IS Δ_A).
CountCsr a_hadamard_a2(const Graph& g) {
  const BoolCsr& m = g.matrix();
  return ops::masked_product(m, m, m);  // symmetric: m is its own transpose
}

/// D_A·A — rows of A kept only where a self loop exists.
CountCsr rows_where_loop(const Graph& g) {
  return on_pattern(g, [&](vid x, vid) { return loop(g, x); });
}

/// A·D_A — columns of A kept only where a self loop exists.
CountCsr cols_where_loop(const Graph& g) {
  return on_pattern(g, [&](vid, vid y) { return loop(g, y); });
}

/// D_A as a count matrix.
CountCsr loop_matrix(const Graph& g) {
  return on_pattern(g, [](vid x, vid y) -> count_t { return x == y ? 1 : 0; });
}

/// D_A ∘ A² — diagonal matrix with (A²)_ii at looped vertices.
CountCsr diag_hadamard_a2(const Graph& g) {
  return on_pattern(
      g, [&](vid x, vid y) -> count_t { return x == y ? g.out_degree(x) : 0; });
}

void require_undirected(const std::vector<const Graph*>& factors,
                        const char* what) {
  for (const Graph* g : factors) {
    if (!g->is_undirected()) {
      throw std::invalid_argument(std::string(what) +
                                  ": §III formulas require undirected factors");
    }
  }
}

/// Whether D_C = ⊗_f D_f has an entry: only then are the loop terms of the
/// §III expansion nonzero (file comment).
bool all_looped(const std::vector<const Graph*>& factors) {
  return std::all_of(factors.begin(), factors.end(),
                     [](const Graph* g) { return g->has_self_loops(); });
}

/// The term coeff · ⊗_f stat(factor f).
template <typename Term, typename Stat>
Term each_factor(std::int64_t coeff, const std::vector<const Graph*>& factors,
                 Stat stat) {
  Term t{coeff, {}};
  for (const Graph* g : factors) t.factors.push_back(stat(*g));
  return t;
}

}  // namespace

// ---------------------------------------------------------------------------
// KronTerms
// ---------------------------------------------------------------------------

namespace detail {

KronTerms::KronTerms(std::int64_t d, std::size_t num_terms,
                     std::vector<vid> factor_sizes)
    : divisor(d), radix(std::move(factor_sizes)) {
  if (divisor <= 0) throw std::invalid_argument("divisor must be positive");
  if (num_terms == 0) throw std::invalid_argument("expression needs >= 1 term");
  if (radix.empty() || radix.size() > kMaxFactors) {
    throw std::invalid_argument("expression needs 1 to 64 factors");
  }
  coeff.reserve(num_terms);
  offset.reserve(num_terms * radix.size() + 1);
  offset.push_back(0);
}

std::optional<count_t> KronTerms::total() const noexcept {
  const std::size_t k = radix.size();
  __int128 acc = 0;
  for (std::size_t t = 0; t < coeff.size(); ++t) {
    __int128 term = coeff[t];
    for (std::size_t f = 0; f < k; ++f) {
      __int128 s = 0;
      for (std::size_t i = offset[t * k + f]; i < offset[t * k + f + 1]; ++i) {
        s += values[i];
      }
      term *= s;
    }
    acc += term;
  }
  return divide(acc);
}

void KronTerms::decompose(vid p, vid* x) const noexcept {
  for (std::size_t f = radix.size(); f-- > 1;) {
    x[f] = p % radix[f];
    p /= radix[f];
  }
  x[0] = p;
}

}  // namespace detail

namespace {

std::vector<vid> vector_sizes(const std::vector<KronVectorExpr::Term>& terms) {
  std::vector<vid> sizes;
  if (terms.empty()) return sizes;
  for (const auto& v : terms.front().factors) sizes.push_back(v.size());
  return sizes;
}

/// Appends every term to `kt`, factor f of each as `len[f]` values that
/// write(f, term factor, values) fills from zero.
template <typename Term, typename Write>
void add_terms(detail::KronTerms& kt, const std::vector<Term>& terms,
               const std::vector<std::size_t>& len, Write write) {
  for (const Term& t : terms) {
    if (t.factors.size() != kt.radix.size()) {
      throw std::invalid_argument("terms must have equal factor counts");
    }
    kt.coeff.push_back(t.coeff);
    for (std::size_t f = 0; f < t.factors.size(); ++f) {
      const std::size_t start = kt.values.size();
      kt.values.resize(start + len[f], 0);
      kt.offset.push_back(kt.values.size());
      write(f, t.factors[f], kt.values.data() + start);
    }
  }
}

std::vector<vid> graph_sizes(const std::vector<const Graph*>& graphs) {
  std::vector<vid> sizes;
  for (const Graph* g : graphs) sizes.push_back(g->num_vertices());
  return sizes;
}

/// Writes m's values at their slots of adj's pattern into out[0..nnz).
void align_on_slots(const BoolCsr& adj, const CountCsr& m, count_t* out) {
  if (m.rows() != adj.rows() || m.cols() != adj.cols()) {
    throw std::invalid_argument("terms must have their factors' sizes");
  }
  if (m.row_ptr() == adj.row_ptr() && m.col_idx() == adj.col_idx()) {
    std::copy(m.values().begin(), m.values().end(), out);
    return;
  }
  for (vid x = 0; x < m.rows(); ++x) {
    const auto cols = m.row_cols(x);
    const auto vals = m.row_vals(x);
    for (std::size_t i = 0; i < cols.size(); ++i) {
      if (vals[i] == 0) continue;
      const esz s = adj.find(x, cols[i]);
      if (s == adj.nnz()) {
        throw std::invalid_argument(
            "KronMatrixExpr: term entry outside its factor's adjacency "
            "pattern");
      }
      out[s] = vals[i];
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// KronVectorExpr
// ---------------------------------------------------------------------------

KronVectorExpr::KronVectorExpr(std::int64_t divisor, std::vector<Term> terms)
    : terms_(divisor, terms.size(), vector_sizes(terms)) {
  for (const vid nf : terms_.radix) n_ *= nf;
  const std::vector<std::size_t> len(terms_.radix.begin(), terms_.radix.end());
  add_terms(terms_, terms, len,
            [&](std::size_t f, const std::vector<count_t>& v, count_t* out) {
              if (v.size() != len[f]) {
                throw std::invalid_argument(
                    "terms must have equal factor sizes");
              }
              std::copy(v.begin(), v.end(), out);
            });
}

count_t KronVectorExpr::at(vid p) const {
  vid x[kMaxFactors];
  terms_.decompose(p, x);
  return checked(terms_.eval(x));
}

std::vector<count_t> KronVectorExpr::expand() const {
  std::vector<count_t> out(n_);
  for (vid p = 0; p < n_; ++p) out[p] = at(p);
  return out;
}

count_t KronVectorExpr::sum() const { return checked(terms_.total()); }

std::map<count_t, count_t> KronVectorExpr::histogram() const {
  if (terms_.coeff.size() != 1 || terms_.coeff.front() < 0) {
    throw std::logic_error(
        "KronVectorExpr::histogram needs a single nonnegative term "
        "(multi-term self-loop formulas do not convolve)");
  }
  // Convolve factor by factor: raw value → number of product vertices.
  std::map<count_t, count_t> raw{{static_cast<count_t>(terms_.coeff[0]), 1}};
  for (std::size_t f = 0; f < terms_.radix.size(); ++f) {
    std::map<count_t, count_t> hf;
    for (std::size_t i = terms_.offset[f]; i < terms_.offset[f + 1]; ++i) {
      ++hf[terms_.values[i]];
    }
    std::map<count_t, count_t> next;
    for (const auto& [v, c] : raw) {
      for (const auto& [vf, cf] : hf) next[v * vf] += c * cf;
    }
    raw = std::move(next);
  }
  std::map<count_t, count_t> out;
  for (const auto& [v, c] : raw) out[checked(terms_.divide(v))] += c;
  return out;
}

// ---------------------------------------------------------------------------
// KronMatrixExpr
// ---------------------------------------------------------------------------

KronMatrixExpr::KronMatrixExpr(std::vector<const Graph*> factors,
                               std::int64_t divisor, std::vector<Term> terms)
    : terms_(divisor, terms.size(), graph_sizes(factors)),
      factors_(std::move(factors)) {
  std::vector<std::size_t> len;
  for (const Graph* g : factors_) {
    len.push_back(g->nnz());
    n_ *= g->num_vertices();
  }
  add_terms(terms_, terms, len,
            [&](std::size_t f, const CountCsr& m, count_t* out) {
              align_on_slots(factors_[f]->matrix(), m, out);
            });
}

std::optional<esz> KronMatrixExpr::slot(std::size_t f, vid x, vid y) const {
  const BoolCsr& adj = factors_[f]->matrix();
  const esz s = adj.find(x, y);
  if (s == adj.nnz()) return std::nullopt;
  return s;
}

std::optional<count_t> KronMatrixExpr::stored(vid p, vid q) const {
  vid x[kMaxFactors], y[kMaxFactors];
  esz s[kMaxFactors];
  terms_.decompose(p, x);
  terms_.decompose(q, y);
  for (std::size_t f = 0; f < factors_.size(); ++f) {
    const std::optional<esz> found = slot(f, x[f], y[f]);
    if (!found) return std::nullopt;
    s[f] = *found;
  }
  return checked(terms_.eval(s));
}

CountCsr KronMatrixExpr::expand() const {
  BoolCsr pattern = factors_.front()->matrix();
  for (std::size_t f = 1; f < factors_.size(); ++f) {
    pattern = kron_matrix<std::uint8_t>(pattern, factors_[f]->matrix());
  }
  Coo<count_t> out(n_, n_);
  for (vid p = 0; p < n_; ++p) {
    for (const vid q : pattern.row_cols(p)) {
      if (const count_t v = at(p, q); v != 0) out.add(p, q, v);
    }
  }
  return CountCsr::from_coo(out);
}

count_t KronMatrixExpr::sum() const { return checked(terms_.total()); }

// ---------------------------------------------------------------------------
// §III.A–C over k factors
// ---------------------------------------------------------------------------

KronVectorExpr degrees(const std::vector<const Graph*>& factors) {
  using Term = KronVectorExpr::Term;
  std::vector<Term> terms;
  terms.push_back(each_factor<Term>(1, factors, [](const Graph& g) {
    return ops::row_sums<count_t>(g.matrix());
  }));
  if (all_looped(factors)) {
    terms.push_back(each_factor<Term>(-1, factors, loop_vector));
  }
  return KronVectorExpr(1, std::move(terms));
}

KronVectorExpr vertex_triangles(const std::vector<const Graph*>& factors) {
  using Term = KronVectorExpr::Term;
  require_undirected(factors, "vertex_triangles");
  std::vector<Term> terms;
  if (!all_looped(factors)) {
    // ½·⊗ diag(A_f³), with a loop-free factor's diag(A³) = 2·t_A; the
    // first one keeps t_A, cancelling the ½.
    bool halved = false;
    terms.push_back(each_factor<Term>(1, factors, [&](const Graph& g) {
      if (g.has_self_loops()) return triangle::diag_cube(g);
      std::vector<count_t> t = triangle::participation_vertices(g);
      if (halved) {
        for (count_t& v : t) v *= 2;
      }
      halved = true;
      return t;
    }));
    return KronVectorExpr(1, std::move(terms));
  }
  terms.push_back(each_factor<Term>(1, factors, triangle::diag_cube));
  terms.push_back(each_factor<Term>(-2, factors, diag_a2_d));
  terms.push_back(each_factor<Term>(-1, factors, diag_ada));
  terms.push_back(each_factor<Term>(2, factors, loop_vector));
  return KronVectorExpr(2, std::move(terms));
}

KronMatrixExpr edge_triangles(const std::vector<const Graph*>& factors) {
  using Term = KronMatrixExpr::Term;
  require_undirected(factors, "edge_triangles");
  std::vector<Term> terms;
  // A∘A², which is Δ_A for a loop-free factor.
  terms.push_back(each_factor<Term>(1, factors, [](const Graph& g) {
    return g.has_self_loops() ? a_hadamard_a2(g)
                              : triangle::edge_support_masked(g);
  }));
  if (all_looped(factors)) {
    terms.push_back(each_factor<Term>(-1, factors, rows_where_loop));
    terms.push_back(each_factor<Term>(-1, factors, cols_where_loop));
    terms.push_back(each_factor<Term>(2, factors, loop_matrix));
    terms.push_back(each_factor<Term>(-1, factors, diag_hadamard_a2));
  }
  return KronMatrixExpr(factors, 1, std::move(terms));
}

}  // namespace kronotri::kron
