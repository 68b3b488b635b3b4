#include "triangle/census.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/ops.hpp"
#include "obs/counters.hpp"

namespace kronotri::triangle {

namespace {

BoolCsr simple_part(const Graph& a) {
  if (!a.is_undirected()) {
    throw std::invalid_argument(
        "triangle analytics (Def. 5/6) require an undirected graph");
  }
  return a.has_self_loops() ? ops::remove_diag(a.matrix()) : a.matrix();
}

}  // namespace

void count_census_pass() {
  static obs::Counter& passes = obs::counter("triangle.census_passes");
  passes.add();
}

EdgeIdMap build_edge_ids(const BoolCsr& s) {
  const vid n = s.rows();
  std::vector<esz> base(n + 1, 0);
#pragma omp parallel for schedule(static)
  for (std::int64_t uu = 0; uu < static_cast<std::int64_t>(n); ++uu) {
    const vid u = static_cast<vid>(uu);
    const auto row = s.row_cols(u);
    base[u + 1] = static_cast<esz>(
        row.end() - std::upper_bound(row.begin(), row.end(), u));
  }
  ops::prefix_sum_inplace(base);

  EdgeIdMap ids;
  ids.slot_id.assign(s.nnz(), 0);
  ids.ends.resize(base[n]);
#pragma omp parallel for schedule(dynamic, 256)
  for (std::int64_t uu = 0; uu < static_cast<std::int64_t>(n); ++uu) {
    const vid u = static_cast<vid>(uu);
    const auto row = s.row_cols(u);
    esz eid = base[u];
    for (std::size_t k = 0; k < row.size(); ++k) {
      const vid v = row[k];
      if (v <= u) continue;
      // Each undirected edge is owned by exactly one u (< v), so the two
      // slot writes below never collide across threads.
      ids.slot_id[s.row_ptr()[u] + k] = eid;
      ids.slot_id[s.find(v, u)] = eid;
      ids.ends[eid] = {u, v};
      ++eid;
    }
  }
  return ids;
}

CensusWorkspace::CensusWorkspace(const Graph& a, Detail detail)
    : index_{simple_part(a), {}}, o_(orient_by_degree(index_.structure)) {
  if (detail == Detail::kVertexOnly) return;
  const BoolCsr& s = index_.structure;
  index_.ids = build_edge_ids(s);
  const std::vector<esz>& slot_id = index_.ids.slot_id;
  // Oriented successor lists are subsequences of the (sorted) structure
  // rows, so a single linear merge per row maps every oriented slot to its
  // undirected edge id — no binary searches.
  oriented_eid_.resize(o_.succ.size());
#pragma omp parallel for schedule(static)
  for (std::int64_t uu = 0; uu < static_cast<std::int64_t>(s.rows()); ++uu) {
    const vid u = static_cast<vid>(uu);
    const auto row = s.row_cols(u);
    const esz* const sid = slot_id.data() + s.row_ptr()[u];
    std::size_t j = 0;
    for (esz k = o_.row_ptr[u]; k < o_.row_ptr[u + 1]; ++k) {
      while (row[j] != o_.succ[k]) ++j;
      oriented_eid_[k] = sid[j];
      ++j;
    }
  }
}

std::vector<count_t> CensusWorkspace::edge_census() const {
  const esz m = num_edges();
  std::vector<std::vector<count_t>> tls(census_workers());
  for (auto& t : tls) t.assign(m, 0);
  for_each_triangle(tls, [](std::vector<count_t>& t, vid, vid, vid, esz e1,
                            esz e2, esz e3) {
    ++t[e1];
    ++t[e2];
    ++t[e3];
  });
  std::vector<count_t> out(m, 0);
#pragma omp parallel for schedule(static)
  for (std::int64_t e = 0; e < static_cast<std::int64_t>(m); ++e) {
    count_t acc = 0;
    for (const auto& t : tls) acc += t[static_cast<esz>(e)];
    out[static_cast<esz>(e)] = acc;
  }
  return out;
}

std::vector<count_t> CensusWorkspace::vertex_census() const {
  const vid n = num_vertices();
  std::vector<std::vector<count_t>> tls(census_workers());
  for (auto& t : tls) t.assign(n, 0);
  for_each_triangle_vertices(
      tls, [](std::vector<count_t>& t, vid u, vid v, vid w) {
        ++t[u];
        ++t[v];
        ++t[w];
      });
  std::vector<count_t> out(n, 0);
#pragma omp parallel for schedule(static)
  for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
    count_t acc = 0;
    for (const auto& t : tls) acc += t[static_cast<vid>(v)];
    out[static_cast<vid>(v)] = acc;
  }
  return out;
}

std::vector<count_t> CensusWorkspace::vertex_census(
    const std::vector<count_t>& per_edge) const {
  // Each triangle at v closes on exactly two of v's edges, so the row sum
  // of Δ over v's stored entries counts every triangle at v twice.
  const BoolCsr& s = index_.structure;
  const std::vector<esz>& slot_id = index_.ids.slot_id;
  const vid n = num_vertices();
  std::vector<count_t> out(n, 0);
#pragma omp parallel for schedule(static)
  for (std::int64_t vv = 0; vv < static_cast<std::int64_t>(n); ++vv) {
    const vid v = static_cast<vid>(vv);
    count_t acc = 0;
    for (esz k = s.row_ptr()[v]; k < s.row_ptr()[v + 1]; ++k) {
      acc += per_edge[slot_id[k]];
    }
    out[v] = acc / 2;
  }
  return out;
}

CountCsr CensusWorkspace::mirror_edge_counts(
    const std::vector<count_t>& per_edge) const {
  const BoolCsr& s = index_.structure;
  const std::vector<esz>& slot_id = index_.ids.slot_id;
  std::vector<count_t> vals(s.nnz(), 0);
#pragma omp parallel for schedule(static)
  for (std::int64_t k = 0; k < static_cast<std::int64_t>(s.nnz()); ++k) {
    vals[static_cast<esz>(k)] = per_edge[slot_id[static_cast<esz>(k)]];
  }
  return CountCsr::from_parts(s.rows(), s.cols(), s.row_ptr(), s.col_idx(),
                              std::move(vals));
}

}  // namespace kronotri::triangle
