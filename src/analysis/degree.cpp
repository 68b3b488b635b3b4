#include "analysis/degree.hpp"

#include "util/stats.hpp"

namespace kronotri::analysis {

DegreeSummary summarize_degrees(const std::vector<count_t>& degrees) {
  DegreeSummary s;
  if (degrees.empty()) return s;
  s.histogram = util::histogram(std::span<const count_t>(degrees));
  s.max_degree = util::max_value(std::span<const count_t>(degrees));
  s.mean_degree = util::mean(std::span<const count_t>(degrees));
  s.max_ratio = static_cast<double>(s.max_degree) /
                static_cast<double>(degrees.size());
  s.loglog_slope = util::log_log_slope(s.histogram);
  return s;
}

DegreeSummary summarize_degrees(const Graph& g) {
  std::vector<count_t> d(g.num_vertices());
  for (vid u = 0; u < g.num_vertices(); ++u) d[u] = g.nonloop_degree(u);
  return summarize_degrees(d);
}

DegreeSummary summarize_kron_degrees(const Graph& a, const Graph& b) {
  const bool loops = a.has_self_loops() && b.has_self_loops();
  if (!loops) {
    // d_C[p] = rowsum_A(i)·rowsum_B(k): histogram is the product
    // convolution of the factor histograms — no n_A·n_B expansion.
    std::vector<count_t> da(a.num_vertices()), db(b.num_vertices());
    for (vid u = 0; u < a.num_vertices(); ++u) da[u] = a.out_degree(u);
    for (vid u = 0; u < b.num_vertices(); ++u) db[u] = b.out_degree(u);
    const auto ha = util::histogram(std::span<const count_t>(da));
    const auto hb = util::histogram(std::span<const count_t>(db));

    DegreeSummary s;
    long double total = 0, weighted = 0;
    for (const auto& [dva, ca] : ha) {
      for (const auto& [dvb, cb] : hb) {
        const count_t d = dva * dvb;
        const count_t c = ca * cb;
        s.histogram[d] += c;
        s.max_degree = std::max(s.max_degree, d);
        total += static_cast<long double>(c);
        weighted += static_cast<long double>(c) * static_cast<long double>(d);
      }
    }
    s.mean_degree = total == 0 ? 0.0 : static_cast<double>(weighted / total);
    s.max_ratio = total == 0 ? 0.0
                             : static_cast<double>(s.max_degree) /
                                   static_cast<double>(total);
    s.loglog_slope = util::log_log_slope(s.histogram);
    return s;
  }
  // With loops in both factors the -1 correction breaks the convolution;
  // expand (factors are small by assumption).
  return summarize_degrees(kron::degrees({&a, &b}).expand());
}

}  // namespace kronotri::analysis
