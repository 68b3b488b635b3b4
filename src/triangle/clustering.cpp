#include "triangle/clustering.hpp"

#include "triangle/count.hpp"

namespace kronotri::triangle {

namespace {

/// c = t / C(d, 2), zero for d < 2.
double local_coefficient(count_t d, count_t t) {
  if (d < 2) return 0.0;
  const double wedges =
      0.5 * static_cast<double>(d) * static_cast<double>(d - 1);
  return static_cast<double>(t) / wedges;
}

}  // namespace

void ClusteringSums::add(count_t d, count_t t) {
  if (d >= 2) {
    wedges_ += 0.5L * static_cast<long double>(d) *
               static_cast<long double>(d - 1);
  }
  local_ += local_coefficient(d, t);
  ++vertices_;
}

double ClusteringSums::global(count_t tau) const {
  return wedges_ == 0 ? 0.0
                      : static_cast<double>(
                            3.0L * static_cast<long double>(tau) / wedges_);
}

double ClusteringSums::average() const {
  return vertices_ == 0 ? 0.0
                        : static_cast<double>(
                              local_ / static_cast<long double>(vertices_));
}

ClusteringSums clustering_sums(const Graph& a, std::span<const count_t> t) {
  ClusteringSums sums;
  for (vid v = 0; v < a.num_vertices(); ++v) {
    sums.add(a.nonloop_degree(v), t[v]);
  }
  return sums;
}

std::vector<double> local_clustering(const Graph& a) {
  const std::vector<count_t> t = participation_vertices(a);
  std::vector<double> c(t.size());
  for (vid v = 0; v < t.size(); ++v) {
    c[v] = local_coefficient(a.nonloop_degree(v), t[v]);
  }
  return c;
}

double global_clustering(const Graph& a) {
  // t enters average() only, so the wedges need no census.
  ClusteringSums sums;
  for (vid v = 0; v < a.num_vertices(); ++v) sums.add(a.nonloop_degree(v), 0);
  return sums.global(count_total(a));
}

double average_clustering(const Graph& a) {
  return clustering_sums(a, participation_vertices(a)).average();
}

}  // namespace kronotri::triangle
