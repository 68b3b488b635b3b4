// The truss peel of a Kronecker product C = A_0 ⊗ … ⊗ A_{k−1}, read from
// its factors without materializing C.
//
// Product vertex p has factor coordinates (x_f), left factor most
// significant, and p's row in C (self loop included) is the Kronecker
// product of the rows of x_f: entry (pos_f)_f, a position in each factor
// row, sits at the mixed-radix position Σ_f pos_f · Π_{g>f} d_g(x_g), with
// d_g the row lengths. Two facts follow.
//
//   * Triangles. For adjacent p and q = (y_f), the common neighbours of p
//     and q are the vertices w = (z_f) with z_f ∈ N(x_f) ∩ N(y_f) in every
//     factor, self loops counted, other than p and q themselves. So one
//     list per factor slot x→y — each z with its positions in rows x and
//     y, and the positions of x and y in row z — gives every triangle of
//     every product edge: 3·τ_C candidates over a whole peel.
//   * Edge ids. C's loop-free edge ids number each vertex u's upper
//     neighbours v > u in row order, u ascending (the ids
//     triangle::build_edge_ids gives the materialized product). The
//     neighbours below u fill the front of u's row, followed by u itself
//     when it is looped in every factor (the hole a loop-free row drops),
//     so id(u, v) = off[u] + position of v − position of u's first upper
//     neighbour: a per-vertex constant plus a mixed-radix position.
//
// The peel holds Δ(e), overwritten by the truss number once e is peeled,
// and the peel state per edge (9 B) and two words per product vertex; no
// CSR, slot map or endpoint pair of C.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/ops.hpp"
#include "kron/oracle.hpp"
#include "truss/decompose.hpp"
#include "truss/peel_engine.hpp"

namespace kronotri::truss {

namespace {

/// z ∈ N(x) ∩ N(y), listed under the factor slot x→y.
struct Common {
  std::uint32_t z;
  std::uint32_t z_in_x;  ///< position of z in row x
  std::uint32_t z_in_y;  ///< position of z in row y
  std::uint32_t x_in_z;  ///< position of x in row z
  std::uint32_t y_in_z;  ///< position of y in row z
  std::uint32_t dz;      ///< length of row z
};

/// One factor's adjacency (self loops kept) and its common-neighbour
/// lists, one per slot, in slot order.
struct FactorLists {
  const BoolCsr* adj;
  std::vector<esz> first;  ///< slot → its first entry; nnz + 1 offsets
  std::vector<Common> entries;

  explicit FactorLists(const BoolCsr& a) : adj(&a), first(a.nnz() + 1, 0) {
    if (a.rows() > std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument(
          "truss::peel: a product factor has more than 2^32 vertices");
    }
    const std::int64_t n = static_cast<std::int64_t>(a.rows());
    // emit(slot, y, z, i, j) for each z at position i of row x and j of
    // row y, over every slot x→y of row x.
    const auto for_common = [&](vid x, auto&& emit) {
      const auto rx = a.row_cols(x);
      for (std::size_t k = 0; k < rx.size(); ++k) {
        const vid y = rx[k];
        const auto ry = a.row_cols(y);
        std::size_t i = 0, j = 0;
        while (i < rx.size() && j < ry.size()) {
          if (rx[i] < ry[j]) {
            ++i;
          } else if (rx[i] > ry[j]) {
            ++j;
          } else {
            emit(a.row_ptr()[x] + k, y, rx[i], i, j);
            ++i;
            ++j;
          }
        }
      }
    };
#pragma omp parallel for schedule(dynamic, 64)
    for (std::int64_t x = 0; x < n; ++x) {
      for_common(static_cast<vid>(x),
                 [&](esz s, vid, vid, std::size_t, std::size_t) {
                   ++first[s + 1];
                 });
    }
    ops::prefix_sum_inplace(first);
    entries.resize(first.back());
#pragma omp parallel for schedule(dynamic, 64)
    for (std::int64_t xx = 0; xx < n; ++xx) {
      const vid x = static_cast<vid>(xx);
      esz at = first[a.row_ptr()[x]];  // slots of row x are consecutive
      for_common(x, [&](esz, vid y, vid z, std::size_t i, std::size_t j) {
        const esz zbase = a.row_ptr()[z];
        entries[at++] = {static_cast<std::uint32_t>(z),
                         static_cast<std::uint32_t>(i),
                         static_cast<std::uint32_t>(j),
                         static_cast<std::uint32_t>(a.find(z, x) - zbase),
                         static_cast<std::uint32_t>(a.find(z, y) - zbase),
                         static_cast<std::uint32_t>(a.row_degree(z))};
      });
    }
  }
};

/// C's edges and triangles by factor arithmetic, for detail::peel_frontiers.
class ProductTriangles {
 public:
  explicit ProductTriangles(const kron::TriangleOracle& oracle) {
    for (const Graph& g : oracle.factors()) factors_.emplace_back(g.matrix());
    const vid n = oracle.num_vertices();
    off_.assign(n + 1, 0);
    base_.assign(n, 0);
#pragma omp parallel for schedule(static)
    for (std::int64_t uu = 0; uu < static_cast<std::int64_t>(n); ++uu) {
      const vid u = static_cast<vid>(uu);
      Coords c;
      coords(u, c);
      // Position of u's first upper neighbour in its row. A neighbour
      // below u first differs from u in some factor f, below x_f, after
      // sharing every x_g (g < f), which needs x_g looped; u itself
      // follows when it is looped in every factor.
      esz below = 0, full = 1;
      bool looped = true;
      for (std::size_t f = 0; f < factors_.size(); ++f) {
        const auto row = factors_[f].adj->row_cols(c.x[f]);
        const auto lb = std::lower_bound(row.begin(), row.end(), c.x[f]);
        below = below * c.deg[f] +
                (looped ? static_cast<esz>(lb - row.begin()) : 0);
        looped = looped && lb != row.end() && *lb == c.x[f];
        full *= c.deg[f];
      }
      const esz first_upper = below + (looped ? 1 : 0);
      off_[u + 1] = full - first_upper;
      base_[u] = first_upper;
    }
    ops::prefix_sum_inplace(off_);
#pragma omp parallel for schedule(static)
    for (std::int64_t u = 0; u < static_cast<std::int64_t>(n); ++u) {
      base_[static_cast<vid>(u)] = off_[static_cast<vid>(u)] -
                                   base_[static_cast<vid>(u)];
    }
    count_t loops = 1;  // C's self loops, which have no edge id
    for (const Graph& g : oracle.factors()) loops *= g.num_self_loops();
    if (off_.back() != oracle.num_undirected_edges() - loops) {
      throw std::logic_error(
          "truss::peel: product edge ids disagree with the oracle's edge "
          "count");
    }
  }

  [[nodiscard]] esz num_edges() const noexcept { return off_.back(); }

  /// Δ_C per edge id, read at factor slots in one walk of each vertex's
  /// upper row.
  [[nodiscard]] std::vector<count_t> supports(
      const kron::KronMatrixExpr& delta) const {
    std::vector<count_t> sup(num_edges());
    const std::size_t k = factors_.size();
    bool ok = true;
#pragma omp parallel for schedule(dynamic, 64) reduction(&& : ok)
    for (std::int64_t uu = 0; uu < static_cast<std::int64_t>(off_.size() - 1);
         ++uu) {
      const vid u = static_cast<vid>(uu);
      esz e = off_[u];
      if (e == off_[u + 1]) continue;
      Coords c;
      coords(u, c);
      esz pos[kron::kMaxFactors], slot[kron::kMaxFactors];
      esz rest = e - base_[u];
      for (std::size_t f = k; f-- > 0;) {
        pos[f] = rest % c.deg[f];
        rest /= c.deg[f];
        slot[f] = c.row[f] + pos[f];
      }
      for (; e < off_[u + 1]; ++e) {
        const std::optional<count_t> d = delta.at_slots(slot);
        ok = ok && d.has_value();
        sup[e] = d.value_or(0);
        for (std::size_t f = k; f-- > 0;) {  // next position, last fastest
          ++slot[f];
          if (++pos[f] < c.deg[f]) break;
          pos[f] = 0;
          slot[f] = c.row[f];
        }
      }
    }
    if (!ok) {
      throw std::logic_error(
          "truss::peel: the product's Δ closed form did not evaluate");
    }
    return sup;
  }

  struct Scratch {};

  template <typename Visit>
  count_t triangles(Scratch&, std::span<esz> slice, Visit&& visit) const {
    // In id order consecutive edges share their lower endpoint p, so p is
    // found by a search only when it changes.
    std::sort(slice.begin(), slice.end());
    const std::size_t k = factors_.size();
    Coords cp;
    esz deg_q[kron::kMaxFactors], slot[kron::kMaxFactors];
    Edge t{0, 0, 0, 0, 0, slot, cp.deg, deg_q};
    bool loaded = false;
    count_t lookups = 0;
    for (const esz e : slice) {
      if (!loaded || e >= off_[t.p + 1]) {
        t.p = static_cast<vid>(
            std::upper_bound(off_.begin() + (loaded ? t.p + 1 : 0),
                             off_.end(), e) -
            off_.begin() - 1);
        coords(t.p, cp);
        t.base_p = base_[t.p];
        loaded = true;
      }
      esz rest = e - t.base_p;
      for (std::size_t f = k; f-- > 0;) {
        slot[f] = cp.row[f] + rest % cp.deg[f];
        rest /= cp.deg[f];
      }
      t.q = 0;
      for (std::size_t f = 0; f < k; ++f) {
        const BoolCsr& a = *factors_[f].adj;
        const vid y = a.col_idx()[slot[f]];
        t.q = t.q * a.rows() + y;
        deg_q[f] = a.row_degree(y);
      }
      t.e = e;
      t.base_q = base_[t.q];
      lookups += walk(t, 0, 0, 0, 0, 0, 0, visit);
    }
    return lookups;
  }

 private:
  /// Factor coordinates, row offsets and row lengths of a product vertex.
  struct Coords {
    vid x[kron::kMaxFactors];
    esz row[kron::kMaxFactors];
    esz deg[kron::kMaxFactors];
  };

  void coords(vid p, Coords& c) const {
    for (std::size_t f = factors_.size(); f-- > 0;) {
      const BoolCsr& a = *factors_[f].adj;
      c.x[f] = p % a.rows();
      p /= a.rows();
      c.row[f] = a.row_ptr()[c.x[f]];
      c.deg[f] = a.row_degree(c.x[f]);
    }
  }

  /// The frontier edge being walked: id e = (p, q), p < q, at factor slots
  /// slot[f], with both endpoints' factor row lengths.
  struct Edge {
    esz e;
    vid p, q;
    esz base_p, base_q;
    const esz* slot;
    const esz* deg_p;
    const esz* deg_q;
  };

  /// Visits every w of factor f's list and, through the later factors'
  /// lists, every common neighbour of p and q whose leading coordinates
  /// are fixed. The prefix sums are Horner forms over the fixed factors:
  /// w itself, the position of w in the rows of p and q (p's and q's row
  /// lengths), and the positions of p and q in w's row (w's row lengths).
  /// Returns the candidates visited: w ∉ {p, q}.
  template <typename Visit>
  count_t walk(const Edge& t, std::size_t f, vid w, esz pw, esz qw, esz wp,
               esz wq, Visit& visit) const {
    const FactorLists& lists = factors_[f];
    const Common* c = lists.entries.data() + lists.first[t.slot[f]];
    const Common* const end = lists.entries.data() + lists.first[t.slot[f] + 1];
    w *= lists.adj->rows();
    pw *= t.deg_p[f];
    qw *= t.deg_q[f];
    count_t found = 0;
    if (f + 1 < factors_.size()) {
      for (; c != end; ++c) {
        found += walk(t, f + 1, w + c->z, pw + c->z_in_x, qw + c->z_in_y,
                      wp * c->dz + c->x_in_z, wq * c->dz + c->y_in_z, visit);
      }
      return found;
    }
    for (; c != end; ++c) {
      const vid u = w + c->z;
      if (u == t.p || u == t.q) continue;
      ++found;
      visit(t.e,
            u > t.p ? t.base_p + pw + c->z_in_x
                    : base_[u] + wp * c->dz + c->x_in_z,
            u > t.q ? t.base_q + qw + c->z_in_y
                    : base_[u] + wq * c->dz + c->y_in_z);
    }
    return found;
  }

  std::vector<FactorLists> factors_;
  std::vector<esz> off_;   ///< upper-degree prefix: u's first edge id
  std::vector<esz> base_;  ///< off_[u] − u's first upper position (mod 2^64)
};

}  // namespace

std::vector<count_t> peel(const kron::TriangleOracle& product) {
  const ProductTriangles source(product);
  return detail::peel_frontiers(source, source.supports(product.edge_expr()));
}

}  // namespace kronotri::truss
