#include "triangle/count.hpp"

#include <stdexcept>

#include "core/ops.hpp"
#include "triangle/census.hpp"

namespace kronotri::triangle {

UndirectedStats analyze(const Graph& a) {
  const CensusWorkspace ws(a);
  const vid n = ws.num_vertices();
  const esz m = ws.num_edges();

  struct Tls {
    std::vector<count_t> vert;
    std::vector<count_t> edge;
  };
  std::vector<Tls> tls(census_workers());
  for (auto& t : tls) {
    t.vert.assign(n, 0);
    t.edge.assign(m, 0);
  }

  UndirectedStats st;
  st.wedge_checks = ws.for_each_triangle(
      tls, [](Tls& t, vid u, vid v, vid w, esz euv, esz euw, esz evw) {
        ++t.vert[u];
        ++t.vert[v];
        ++t.vert[w];
        ++t.edge[euv];
        ++t.edge[euw];
        ++t.edge[evw];
      });

  st.per_vertex.assign(n, 0);
  count_t vertex_sum = 0;
#pragma omp parallel for schedule(static) reduction(+ : vertex_sum)
  for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
    count_t acc = 0;
    for (const auto& t : tls) acc += t.vert[static_cast<vid>(v)];
    st.per_vertex[static_cast<vid>(v)] = acc;
    vertex_sum += acc;
  }
  st.total = vertex_sum / 3;

  std::vector<count_t> per_edge(m, 0);
#pragma omp parallel for schedule(static)
  for (std::int64_t e = 0; e < static_cast<std::int64_t>(m); ++e) {
    count_t acc = 0;
    for (const auto& t : tls) acc += t.edge[static_cast<esz>(e)];
    per_edge[static_cast<esz>(e)] = acc;
  }
  st.per_edge = ws.mirror_edge_counts(per_edge);
  return st;
}

std::vector<count_t> participation_vertices(const Graph& a) {
  return CensusWorkspace(a, CensusWorkspace::Detail::kVertexOnly)
      .vertex_census();
}

count_t count_total(const Graph& a) {
  const CensusWorkspace ws(a, CensusWorkspace::Detail::kVertexOnly);
  // Padded per-worker counters: adjacent count_t slots would put every
  // worker's hot counter on one cache line.
  struct alignas(64) PaddedCount {
    count_t value = 0;
  };
  std::vector<PaddedCount> tls(census_workers());
  ws.for_each_triangle_vertices(
      tls, [](PaddedCount& t, vid, vid, vid) { ++t.value; });
  count_t total = 0;
  for (const auto& t : tls) total += t.value;
  return total;
}

std::vector<count_t> diag_cube(const Graph& a) {
  if (!a.is_undirected()) {
    throw std::invalid_argument("diag_cube requires an undirected graph");
  }
  return ops::diag_cube_symmetric(a.matrix());
}

}  // namespace kronotri::triangle
