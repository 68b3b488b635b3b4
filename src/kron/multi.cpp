#include "kron/multi.hpp"

#include <stdexcept>

#include "core/ops.hpp"
#include "kron/product.hpp"
#include "triangle/count.hpp"

namespace kronotri::kron {

KronChain::KronChain(std::vector<Graph> factors)
    : factors_(std::move(factors)) {
  if (factors_.empty()) {
    throw std::invalid_argument("KronChain needs at least one factor");
  }
  bool any_loop_free = false;
  for (const Graph& f : factors_) {
    if (!f.is_undirected()) {
      throw std::invalid_argument("KronChain factors must be undirected");
    }
    n_ *= f.num_vertices();
    nnz_ *= f.nnz();
    any_loop_free |= !f.has_self_loops();
  }
  product_loop_free_ = any_loop_free;
}

count_t KronChain::num_undirected_edges() const {
  count_t loops = 1;
  for (const Graph& f : factors_) loops *= f.num_self_loops();
  return (nnz_ - loops) / 2 + loops;
}

std::vector<vid> KronChain::decompose(vid p) const {
  std::vector<vid> xs(factors_.size());
  for (std::size_t i = factors_.size(); i-- > 0;) {
    const vid ni = factors_[i].num_vertices();
    xs[i] = p % ni;
    p /= ni;
  }
  return xs;
}

vid KronChain::compose(const std::vector<vid>& xs) const {
  if (xs.size() != factors_.size()) {
    throw std::invalid_argument("compose: wrong number of coordinates");
  }
  vid p = 0;
  for (std::size_t i = 0; i < factors_.size(); ++i) {
    p = p * factors_[i].num_vertices() + xs[i];
  }
  return p;
}

bool KronChain::has_edge(vid p, vid q) const {
  const std::vector<vid> xs = decompose(p), ys = decompose(q);
  for (std::size_t i = 0; i < factors_.size(); ++i) {
    if (!factors_[i].has_edge(xs[i], ys[i])) return false;
  }
  return true;
}

esz KronChain::out_degree(vid p) const {
  const std::vector<vid> xs = decompose(p);
  esz d = 1;
  for (std::size_t i = 0; i < factors_.size(); ++i) {
    d *= factors_[i].out_degree(xs[i]);
  }
  return d;
}

esz KronChain::nonloop_degree(vid p) const {
  const std::vector<vid> xs = decompose(p);
  esz d = 1, loop = 1;
  for (std::size_t i = 0; i < factors_.size(); ++i) {
    d *= factors_[i].out_degree(xs[i]);
    loop &= factors_[i].has_edge(xs[i], xs[i]) ? esz{1} : esz{0};
  }
  return d - loop;
}

std::vector<vid> KronChain::neighbors(vid p) const {
  const std::vector<vid> xs = decompose(p);
  std::vector<vid> out;
  out.reserve(out_degree(p));
  // Odometer over the factor rows, left factor most significant; factor
  // rows are sorted, so composed ids come out ascending.
  std::vector<std::span<const vid>> rows(factors_.size());
  for (std::size_t i = 0; i < factors_.size(); ++i) {
    rows[i] = factors_[i].neighbors(xs[i]);
    if (rows[i].empty()) return out;
  }
  std::vector<std::size_t> idx(factors_.size(), 0);
  for (;;) {
    vid id = 0;
    for (std::size_t i = 0; i < factors_.size(); ++i) {
      id = id * factors_[i].num_vertices() + rows[i][idx[i]];
    }
    out.push_back(id);
    std::size_t i = factors_.size();
    while (i > 0 && idx[i - 1] + 1 == rows[i - 1].size()) --i;
    if (i == 0) return out;
    ++idx[i - 1];
    for (std::size_t j = i; j < factors_.size(); ++j) idx[j] = 0;
  }
}

Graph KronChain::materialize() const {
  BoolCsr acc = factors_.front().matrix();
  for (std::size_t i = 1; i < factors_.size(); ++i) {
    acc = kron_matrix<std::uint8_t>(acc, factors_[i].matrix());
  }
  return Graph(std::move(acc));
}

void KronChain::require_triangle_stats() const {
  if (!product_loop_free_) {
    throw std::invalid_argument(
        "KronChain triangle formulas need at least one loop-free factor "
        "(otherwise the §III.B general expansion applies at every level); "
        "strip loops from one factor or use the two-factor kron::formulas");
  }
  if (stats_ready_) return;
  diag_cube_.reserve(factors_.size());
  support_.reserve(factors_.size());
  for (const Graph& f : factors_) {
    diag_cube_.push_back(ops::diag_cube_symmetric(f.matrix()));
    support_.push_back(ops::masked_product(f.matrix(), f.matrix(), f.matrix()));
  }
  stats_ready_ = true;
}

count_t KronChain::vertex_triangles(vid p) const {
  require_triangle_stats();
  const std::vector<vid> xs = decompose(p);
  count_t prod = 1;
  for (std::size_t i = 0; i < factors_.size(); ++i) {
    prod *= diag_cube_[i][xs[i]];
  }
  return prod / 2;  // ½·diag(C³); the product of even/odd walks is even
}

count_t KronChain::edge_triangles(vid p, vid q) const {
  require_triangle_stats();
  const std::vector<vid> xs = decompose(p), ys = decompose(q);
  count_t prod = 1;
  for (std::size_t i = 0; i < factors_.size(); ++i) {
    if (!factors_[i].has_edge(xs[i], ys[i])) {
      throw std::invalid_argument("edge_triangles: (p,q) is not an edge of C");
    }
    prod *= support_[i].at(xs[i], ys[i]);
  }
  return prod;
}

const std::vector<count_t>& KronChain::diag_cube(std::size_t i) const {
  require_triangle_stats();
  return diag_cube_.at(i);
}

const CountCsr& KronChain::support(std::size_t i) const {
  require_triangle_stats();
  return support_.at(i);
}

count_t KronChain::total_triangles() const {
  require_triangle_stats();
  count_t prod = 1;
  for (const auto& dc : diag_cube_) {
    count_t sum = 0;
    for (const count_t v : dc) sum += v;
    prod *= sum;
  }
  return prod / 6;  // (1/3)·Σt = (1/6)·Σ diag(C³)
}

}  // namespace kronotri::kron
