#include "triangle/clustering.hpp"

#include "triangle/count.hpp"

namespace kronotri::triangle {

namespace {

std::vector<count_t> nonloop_degrees(const Graph& a) {
  std::vector<count_t> d(a.num_vertices());
  for (vid v = 0; v < a.num_vertices(); ++v) d[v] = a.nonloop_degree(v);
  return d;
}

std::vector<double> local_from_counts(const Graph& a,
                                      std::span<const count_t> t) {
  const std::vector<count_t> d = nonloop_degrees(a);
  std::vector<double> c(t.size(), 0.0);
  for (std::size_t v = 0; v < t.size(); ++v) {
    if (d[v] >= 2) {
      const double wedges = 0.5 * static_cast<double>(d[v]) *
                            static_cast<double>(d[v] - 1);
      c[v] = static_cast<double>(t[v]) / wedges;
    }
  }
  return c;
}

}  // namespace

std::vector<double> local_clustering(const Graph& a) {
  return local_from_counts(a, participation_vertices(a));
}

double global_clustering(const Graph& a) {
  return global_clustering(a, count_total(a));
}

double average_clustering(const Graph& a) {
  return average_clustering(a, participation_vertices(a));
}

double global_clustering(const Graph& a, count_t tau) {
  const std::vector<count_t> d = nonloop_degrees(a);
  long double wedges = 0;
  for (const count_t dv : d) {
    if (dv >= 2) {
      wedges += 0.5L * static_cast<long double>(dv) *
                static_cast<long double>(dv - 1);
    }
  }
  return wedges == 0 ? 0.0
                     : static_cast<double>(3.0L * static_cast<long double>(tau) /
                                           wedges);
}

double average_clustering(const Graph& a, std::span<const count_t> t) {
  const std::vector<double> c = local_from_counts(a, t);
  if (c.empty()) return 0.0;
  long double sum = 0;
  for (const double v : c) sum += v;
  return static_cast<double>(sum / static_cast<long double>(c.size()));
}

}  // namespace kronotri::triangle
