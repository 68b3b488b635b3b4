#include "truss/decompose.hpp"

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>

#include "triangle/census.hpp"
#include "triangle/support.hpp"
#include "truss/peel_engine.hpp"

namespace kronotri::truss {

namespace {

/// An explicit graph's triangles, for detail::peel_frontiers. A slice of
/// frontier edges is grouped by owner endpoint (the one with the longer
/// row, ties to the larger id: a function of the graph alone, so the
/// scanned rows and the lookup count do not depend on the team size or the
/// frontier's order). The owner's row is marked once per group
/// (mark[w] = position + 1), and every frontier edge of the group scans
/// only its other, shorter row with O(1) lookups — Σ_e min(d_u, d_v)
/// instead of a full merge.
class RowTriangles {
 public:
  explicit RowTriangles(const triangle::EdgeIndex& index)
      : s_(index.structure), eids_(index.ids) {}

  /// Owner-sorted slice and n-sized row marks (4·n bytes, allocated by
  /// each thread on its first slice).
  struct Scratch {
    std::vector<std::pair<vid, esz>> slice;
    std::vector<std::uint32_t> mark;
  };

  template <typename Visit>
  count_t triangles(Scratch& scratch, std::span<esz> frontier,
                    Visit&& visit) const {
    auto& slice = scratch.slice;
    auto& mark = scratch.mark;
    if (mark.empty()) mark.assign(s_.rows(), 0);
    slice.clear();
    for (const esz e : frontier) {
      const auto [u, v] = eids_.ends[e];
      slice.emplace_back(owner_of(u, v), e);
    }
    std::sort(slice.begin(), slice.end());
    count_t lookups = 0;
    for (std::size_t a = 0; a < slice.size();) {
      const vid o = slice[a].first;
      const esz obase = s_.row_ptr()[o];
      const auto ro = s_.row_cols(o);
      for (std::size_t p = 0; p < ro.size(); ++p) {
        mark[ro[p]] = static_cast<std::uint32_t>(p + 1);
      }
      for (; a < slice.size() && slice[a].first == o; ++a) {
        const esz e = slice[a].second;
        const auto [u, v] = eids_.ends[e];
        const vid x = u == o ? v : u;
        const esz xbase = s_.row_ptr()[x];
        const auto rx = s_.row_cols(x);
        lookups += rx.size();
        for (std::size_t q = 0; q < rx.size(); ++q) {
          const std::uint32_t p = mark[rx[q]];
          if (p == 0) continue;
          visit(e, eids_.slot_id[obase + p - 1], eids_.slot_id[xbase + q]);
        }
      }
      for (const vid w : ro) mark[w] = 0;
    }
    return lookups;
  }

 private:
  [[nodiscard]] vid owner_of(vid u, vid v) const {
    const esz du = s_.row_ptr()[u + 1] - s_.row_ptr()[u];
    const esz dv = s_.row_ptr()[v + 1] - s_.row_ptr()[v];
    return du > dv || (du == dv && u > v) ? u : v;
  }

  const BoolCsr& s_;
  const triangle::EdgeIdMap& eids_;
};

/// Assembles the symmetric truss_number matrix from per-edge-id values.
TrussDecomposition assemble(const BoolCsr& s, const triangle::EdgeIdMap& eids,
                            const std::vector<count_t>& truss_of, esz m) {
  TrussDecomposition out;
  std::vector<count_t> vals(s.nnz(), 0);
  count_t max_truss = 2;
  for (esz k = 0; k < s.nnz(); ++k) {
    vals[k] = truss_of[eids.slot_id[k]];
    max_truss = std::max(max_truss, vals[k]);
  }
  out.truss_number = CountCsr::from_parts(s.rows(), s.cols(), s.row_ptr(),
                                          s.col_idx(), std::move(vals));
  out.max_truss = m == 0 ? 2 : max_truss;
  return out;
}

}  // namespace

count_t TrussDecomposition::edges_in_truss(count_t kappa) const {
  count_t c = 0;
  for (const count_t t : truss_number.values()) {
    if (t >= kappa) ++c;
  }
  return c / 2;  // symmetric storage counts both directions
}

std::vector<count_t> truss_sizes(std::span<const count_t> truss_of) {
  count_t max_truss = 2;
  for (const count_t t : truss_of) max_truss = std::max(max_truss, t);
  std::vector<count_t> sizes(max_truss + 1, 0);
  for (const count_t t : truss_of) ++sizes[t];
  for (count_t k = max_truss; k > 0; --k) sizes[k - 1] += sizes[k];
  return sizes;
}

TrussDecomposition decompose(const Graph& a) {
  const triangle::CensusWorkspace ws(a);
  return assemble(ws.structure(), ws.edge_ids(),
                  peel(ws.edge_index(), ws.edge_census()), ws.num_edges());
}

std::vector<count_t> peel(const triangle::EdgeIndex& index,
                          std::vector<count_t> sup) {
  if (index.ids.slot_id.size() != index.structure.nnz() ||
      sup.size() != index.ids.num_edges()) {
    throw std::invalid_argument(
        "truss::peel: needs an edge index with ids and one support per "
        "edge id");
  }
  return detail::peel_frontiers(RowTriangles(index), std::move(sup));
}

TrussDecomposition decompose_serial(const Graph& a) {
  // The census workspace provides the loop-free structure, the shared
  // undirected edge ids, and the initial supports Δ(e) — already indexed by
  // edge id, so no symmetric count matrix has to be built and re-read.
  const triangle::CensusWorkspace ws(a);
  const BoolCsr& s = ws.structure();
  const triangle::EdgeIdMap& eids = ws.edge_ids();
  const esz m = eids.num_edges();

  std::vector<count_t> sup = ws.edge_census();

  // Bucket ordering (Batagelj–Zaveršnik): edges sorted by current support,
  // with position/bucket arrays allowing O(1) "decrement support" moves.
  const count_t max_sup =
      m == 0 ? 0 : *std::max_element(sup.begin(), sup.end());
  std::vector<esz> bin(max_sup + 2, 0);
  for (esz e = 0; e < m; ++e) ++bin[sup[e] + 1];
  for (std::size_t i = 1; i < bin.size(); ++i) bin[i] += bin[i - 1];
  std::vector<esz> order(m);   // edges sorted by support
  std::vector<esz> pos(m);     // position of edge in `order`
  {
    std::vector<esz> cursor(bin.begin(), bin.end() - 1);
    for (esz e = 0; e < m; ++e) {
      pos[e] = cursor[sup[e]]++;
      order[pos[e]] = e;
    }
  }
  // bin[b] = first index in `order` whose support is >= b.
  auto decrement_support = [&](esz e) {
    const count_t sv = sup[e];
    // Swap e with the first edge of its bucket, then shrink the bucket.
    const esz first_pos = bin[sv];
    const esz first_edge = order[first_pos];
    if (first_edge != e) {
      std::swap(order[pos[e]], order[first_pos]);
      std::swap(pos[e], pos[first_edge]);
    }
    ++bin[sv];
    --sup[e];
  };

  // uint8_t, not vector<bool>: the peel inner loop reads this per triangle
  // and the bitset proxy costs show up there.
  std::vector<std::uint8_t> peeled(m, 0);
  std::vector<count_t> truss_of(m, 2);
  count_t current = 0;  // monotone support threshold
  for (esz step = 0; step < m; ++step) {
    const esz e = order[step];
    current = std::max(current, sup[e]);
    truss_of[e] = current + 2;
    peeled[e] = true;

    // Remove e = (u,v): every remaining triangle through e loses support on
    // its other two edges.
    const auto [u, v] = eids.ends[e];
    const auto ru = s.row_cols(u), rv = s.row_cols(v);
    std::size_t p = 0, q = 0;
    while (p < ru.size() && q < rv.size()) {
      if (ru[p] < rv[q]) {
        ++p;
      } else if (ru[p] > rv[q]) {
        ++q;
      } else {
        const esz euw = eids.slot_id[s.row_ptr()[u] + p];
        const esz evw = eids.slot_id[s.row_ptr()[v] + q];
        if (!peeled[euw] && !peeled[evw]) {
          // Decrement only above the threshold: edges at or below it keep
          // their (already determined) peel level, and the bucket swap must
          // never touch the peeled prefix of `order`.
          if (sup[euw] > current) decrement_support(euw);
          if (sup[evw] > current) decrement_support(evw);
        }
        ++p;
        ++q;
      }
    }
  }

  return assemble(s, eids, truss_of, m);
}

Graph truss_subgraph(const TrussDecomposition& t, count_t kappa) {
  const CountCsr& m = t.truss_number;
  std::vector<esz> rp(m.rows() + 1, 0);
  std::vector<vid> ci;
  std::vector<std::uint8_t> vals;
  for (vid u = 0; u < m.rows(); ++u) {
    const auto row = m.row_cols(u);
    const auto rv = m.row_vals(u);
    for (std::size_t k = 0; k < row.size(); ++k) {
      if (rv[k] >= kappa) {
        ci.push_back(row[k]);
        vals.push_back(1);
      }
    }
    rp[u + 1] = ci.size();
  }
  return Graph(BoolCsr::from_parts(m.rows(), m.cols(), std::move(rp),
                                   std::move(ci), std::move(vals)));
}

bool edges_in_at_most_one_triangle(const Graph& b) {
  const CountCsr delta = triangle::edge_support_masked(b);
  for (const count_t v : delta.values()) {
    if (v > 1) return false;
  }
  return true;
}

}  // namespace kronotri::truss
