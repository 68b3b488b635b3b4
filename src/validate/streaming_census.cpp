#include "validate/streaming_census.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <map>
#include <optional>
#include <stdexcept>

#include "kron/formulas.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace kronotri::validate {

namespace {

using kron::kMaxFactors;

/// Under --trace the fold is timed on one vertex in 2^kFoldSampleBits,
/// those whose Fibonacci hash has its top bits clear, and scaled up: two
/// clock reads on every vertex would cost several percent of the census.
constexpr unsigned kFoldSampleBits = 6;

bool fold_sampled(vid u) {
  return (u * 0x9E3779B97F4A7C15ull) >> (64 - kFoldSampleBits) == 0;
}

std::vector<const Graph*> factor_ptrs(std::span<const Graph> factors) {
  std::vector<const Graph*> fs;
  fs.reserve(factors.size());
  for (const Graph& f : factors) fs.push_back(&f);
  return fs;
}

/// One center's wedge loop, walked over u's factor rows by position (file
/// comment). Neighbor (p_0…p_{k−1}), p_f a position in u's factor-f row
/// R_f, is tuple Σ_f p_f·size[f+1] of the rows' odometer. u is a tuple of
/// its own rows, the hole at positions hole[0..k), only when every factor
/// loops at u's coordinate; it is never paired. A level-f block, named by a
/// position prefix of length f, is passed as its first tuple and whether
/// it holds the hole. u owns the edges to the tuples from `first` on, the
/// ones after it.
struct BlockWedges {
  const Graph* const* factors;
  std::size_t k;
  const vid* const* rows;      ///< rows[f]: R_f
  const std::size_t* deg;      ///< deg[f] = |R_f|
  const esz* size;             ///< size[f] = Π_{g ≥ f} deg[g], size[k] = 1
  const std::size_t* hole;     ///< hole[f]: u's position in R_f, if looped
  esz first;                   ///< u's first owned tuple
  count_t* eb;                 ///< u's owned-edge counters
  const std::uint64_t* masks;  ///< R_{k−1}'s row masks, `words` per position
  std::size_t words;           ///< ⌈deg[k−1]/64⌉
  count_t t = 0;               ///< closed wedges at u
  count_t checks = 0;          ///< product pairs decided

  /// Closes every wedge {i, j}, i < j, with i in level-f block I (first
  /// tuple i0, holding the hole when `ih`) and j in J (j0, `jh`), the same
  /// block when `same`.
  void close(std::size_t f, esz i0, bool ih, esz j0, bool jh, bool same) {
    if (f + 1 == k) {
      close_last(i0, ih, j0, jh, same);
      return;
    }
    const Graph& g = *factors[f];
    const vid* const r = rows[f];
    const esz n = size[f + 1];
    for (std::size_t p = 0; p < deg[f]; ++p) {
      const bool pi = ih && p == hole[f];
      if (pi && n == 1) continue;  // the sub-block is u alone: empty
      // A block pairs with itself (a self-loop test) only if it holds a
      // pair.
      std::size_t q = same ? p : 0;
      if (same && n - pi < 2) ++q;
      for (; q < deg[f]; ++q) {
        const bool qj = jh && q == hole[f];
        if (qj && n == 1) continue;
        ++checks;
        if (g.has_edge(r[p], r[q])) {
          close(f + 1, i0 + p * n, pi, j0 + q * n, qj, same && p == q);
        }
      }
    }
  }

  /// The last factor: the mask row of i's position p, cut to J's
  /// positions, lists i's closed wedges into J. Position q of R_{k−1} is
  /// tuple j0 + q; the hole's position `gap` is skipped in a block that
  /// holds it.
  void close_last(esz i0, bool ih, esz j0, bool jh, bool same) {
    const std::size_t d = deg[k - 1];
    const std::size_t gap = hole[k - 1];
    // Locals, so the counter stores below need not reload them.
    count_t* const own = eb;
    const esz lo = first;
    const count_t ni = d - ih, nj = d - jh;
    checks += same ? ni * (ni - 1) / 2 : ni * nj;
    for (std::size_t p = 0; p < d; ++p) {
      if (ih && p == gap) continue;
      const std::size_t q0 = same ? p + 1 : 0;
      const std::uint64_t* const mask = masks + p * words;
      count_t closed = 0;
      for (std::size_t w = q0 >> 6; w < words; ++w) {
        std::uint64_t bits = mask[w];
        if (w == q0 >> 6) bits &= ~std::uint64_t{0} << (q0 & 63);
        if (jh && w == gap >> 6) bits &= ~(std::uint64_t{1} << (gap & 63));
        for (; bits != 0; bits &= bits - 1) {
          const esz j = j0 + w * 64 +
                        static_cast<std::size_t>(std::countr_zero(bits));
          ++closed;
          if (j >= lo) ++own[j - lo];
        }
      }
      t += closed;
      if (i0 + p >= lo) own[i0 + p - lo] += closed;
    }
  }
};

/// One thread's CountCheck. Measured counts below kDense are histogrammed
/// in a flat array, the rare larger ones in the map.
struct Tally {
  static constexpr count_t kDense = 1 << 12;
  CountCheck sums;
  std::vector<count_t> dense;

  explicit Tally(bool used) : dense(used ? kDense : 0, 0) {}

  /// A missing prediction (the forms lack the edge, or cannot evaluate
  /// there) is a mismatch of the whole measured count.
  void add(count_t measured, std::optional<count_t> predicted) {
    ++sums.checked;
    ++(measured < kDense ? dense[measured] : sums.histogram[measured]);
    if (predicted == measured) return;
    const count_t p = predicted.value_or(0);
    ++sums.mismatches;
    sums.max_abs_err =
        std::max(sums.max_abs_err, measured > p ? measured - p : p - measured);
  }

  void write(CountCheck& out) const {
    out.merge(sums);
    for (count_t c = 0; c < kDense; ++c) {
      if (dense[c] != 0) out.histogram[c] += dense[c];
    }
  }
};

}  // namespace

void CountCheck::merge(const CountCheck& other) {
  checked += other.checked;
  mismatches += other.mismatches;
  max_abs_err = std::max(max_abs_err, other.max_abs_err);
  for (const auto& [count, freq] : other.histogram) histogram[count] += freq;
}

StreamingCensus::StreamingCensus(std::vector<const Graph*> factors,
                                 StreamingOptions opt)
    : factors_(std::move(factors)), opt_(opt) {
  if (factors_.empty()) {
    throw std::invalid_argument("StreamingCensus needs at least one factor");
  }
  if (factors_.size() > kMaxFactors) {
    throw std::invalid_argument("StreamingCensus: too many factors");
  }
  radix_.reserve(factors_.size());
  for (const Graph* f : factors_) {
    if (!f->is_undirected()) {
      throw std::invalid_argument(
          "streaming census (Def. 5/6) requires undirected factors — an "
          "undirected product needs every factor undirected");
    }
    radix_.push_back(f->num_vertices());
    n_ *= f->num_vertices();
  }
  plan_shards();
  build_masks();
}

StreamingCensus::StreamingCensus(const Graph& a, const Graph& b,
                                 StreamingOptions opt)
    : StreamingCensus(std::vector<const Graph*>{&a, &b}, opt) {}

StreamingCensus::StreamingCensus(std::span<const Graph> factors,
                                 StreamingOptions opt)
    : StreamingCensus(factor_ptrs(factors), opt) {}

void StreamingCensus::build_masks() {
  const Graph& b = *factors_.back();
  const vid nb = b.num_vertices();
  mask_off_.assign(nb + 1, 0);
  for (vid x = 0; x < nb; ++x) {
    const esz d = b.out_degree(x);
    mask_off_[x + 1] = mask_off_[x] + d * ((d + 63) / 64);
  }
  masks_.assign(mask_off_[nb], 0);
  // Bit q of slot (x, R_x[p]) marks R_x[q] ∈ R_{R_x[p]}: one merge of the
  // two sorted rows per slot.
#pragma omp parallel for schedule(dynamic, 64)
  for (std::int64_t xx = 0; xx < static_cast<std::int64_t>(nb); ++xx) {
    const vid x = static_cast<vid>(xx);
    const auto rx = b.neighbors(x);
    const std::size_t words = (rx.size() + 63) / 64;
    std::uint64_t* mask = masks_.data() + mask_off_[x];
    for (std::size_t p = 0; p < rx.size(); ++p, mask += words) {
      const auto ry = b.neighbors(rx[p]);
      for (std::size_t q = 0, r = 0; q < rx.size() && r < ry.size();) {
        if (rx[q] < ry[r]) {
          ++q;
        } else if (ry[r] < rx[q]) {
          ++r;
        } else {
          mask[q / 64] |= std::uint64_t{1} << (q % 64);
          ++q;
          ++r;
        }
      }
    }
  }
  obs::counter("validate.mask_bytes")
      .add(masks_.size() * sizeof(std::uint64_t));
}

void StreamingCensus::decompose(vid p, vid* coords) const noexcept {
  for (std::size_t i = factors_.size(); i-- > 0;) {
    coords[i] = p % radix_[i];
    p /= radix_[i];
  }
}

esz StreamingCensus::upper_degree(vid p) const {
  const std::size_t k = factors_.size();
  vid coords[kMaxFactors];
  decompose(p, coords);
  // suffix[f] = Π_{i ≥ f} d_i(x_i): the free choices once factor f−1 fixed
  // the comparison.
  esz suffix[kMaxFactors + 1];
  suffix[k] = 1;
  for (std::size_t i = k; i-- > 0;) {
    suffix[i] = suffix[i + 1] * factors_[i]->out_degree(coords[i]);
  }
  // A neighbor tuple composes to an id > p exactly when its first differing
  // coordinate exceeds p's; a tuple can only agree on the prefix 0..f−1 if
  // every prefix factor has a self loop at its coordinate.
  esz total = 0;
  for (std::size_t f = 0; f < k; ++f) {
    const auto row = factors_[f]->neighbors(coords[f]);
    const esz greater = static_cast<esz>(
        row.end() - std::upper_bound(row.begin(), row.end(), coords[f]));
    total += greater * suffix[f + 1];
    if (!factors_[f]->has_edge(coords[f], coords[f])) return total;
  }
  return total;  // all-equal tuple is p itself, not > p
}

void StreamingCensus::plan_shards() {
  shards_.clear();
  if (n_ == 0) return;
  if (opt_.force_shards > 0) {
    const std::uint64_t s = std::min<std::uint64_t>(opt_.force_shards, n_);
    for (std::uint64_t i = 0; i < s; ++i) {
      const vid lo = static_cast<vid>(n_ / s * i + std::min<vid>(i, n_ % s));
      const vid hi =
          static_cast<vid>(n_ / s * (i + 1) + std::min<vid>(i + 1, n_ % s));
      if (lo < hi) shards_.push_back({lo, hi});
    }
    return;
  }
  const std::size_t budget = std::max<std::size_t>(opt_.mem_budget_bytes, 1);
  // Chunked planning keeps the cost scan O(chunk) in memory: per-vertex
  // accumulator cost is one vertex counter, one offset slot, and one edge
  // counter per owned edge (upper_degree is analytic — no enumeration).
  constexpr vid kChunk = 1u << 15;
  std::vector<std::size_t> cost;
  vid lo = 0;
  std::size_t used = sizeof(esz);  // the offsets array's sentinel entry
  for (vid base = 0; base < n_; base += kChunk) {
    const vid end = std::min<vid>(n_, base + kChunk);
    cost.assign(static_cast<std::size_t>(end - base), 0);
#pragma omp parallel for schedule(static)
    for (std::int64_t uu = 0; uu < static_cast<std::int64_t>(end - base);
         ++uu) {
      cost[static_cast<std::size_t>(uu)] =
          sizeof(count_t) + sizeof(esz) +
          sizeof(count_t) *
              static_cast<std::size_t>(upper_degree(base + static_cast<vid>(uu)));
    }
    for (vid u = base; u < end; ++u) {
      const std::size_t c = cost[static_cast<std::size_t>(u - base)];
      if (u > lo && used + c > budget) {
        shards_.push_back({lo, u});
        lo = u;
        used = sizeof(esz);
      }
      used += c;
    }
  }
  shards_.push_back({lo, n_});
}

count_t StreamingCensus::process_shard(ShardRange range,
                                       std::vector<count_t>& vertex,
                                       std::vector<count_t>& edge,
                                       std::vector<esz>& offsets,
                                       ClosedFormCheck* check,
                                       StreamingStats& st) const {
  const vid lo = range.lo;
  const std::int64_t len = static_cast<std::int64_t>(range.hi - range.lo);
  const std::size_t k = factors_.size();

  offsets.assign(static_cast<std::size_t>(len) + 1, 0);
#pragma omp parallel for schedule(static)
  for (std::int64_t uu = 0; uu < len; ++uu) {
    offsets[static_cast<std::size_t>(uu) + 1] =
        upper_degree(lo + static_cast<vid>(uu));
  }
  for (std::int64_t uu = 0; uu < len; ++uu) {
    offsets[static_cast<std::size_t>(uu) + 1] +=
        offsets[static_cast<std::size_t>(uu)];
  }
  vertex.assign(static_cast<std::size_t>(len), 0);
  edge.assign(offsets[static_cast<std::size_t>(len)], 0);

  const kron::KronVectorExpr* const vertex_expr =
      check ? check->vertex_expr : nullptr;
  const kron::KronMatrixExpr* const edge_expr =
      check ? check->edge_expr : nullptr;
  const bool timed =
      check != nullptr && obs::TraceRecorder::instance().enabled();
  double fold_us = 0;

  count_t checks = 0, vsum = 0, esum = 0;
#pragma omp parallel reduction(+ : checks, vsum, esum)
  {
    Tally vertex_tally(check != nullptr), edge_tally(check != nullptr);
    double us = 0;
#pragma omp for schedule(dynamic, 16) nowait
    for (std::int64_t uu = 0; uu < len; ++uu) {
      const vid u = lo + static_cast<vid>(uu);
      vid ucoords[kMaxFactors];
      decompose(u, ucoords);
      // u's factor rows, walked by position (BlockWedges); u is its own
      // tuple only when every factor loops at its coordinate.
      const vid* rows[kMaxFactors];
      std::size_t degs[kMaxFactors], hole[kMaxFactors];
      esz size[kMaxFactors + 1];
      size[k] = 1;
      bool looped = true;
      for (std::size_t f = k; f-- > 0;) {
        const auto row = factors_[f]->neighbors(ucoords[f]);
        rows[f] = row.data();
        degs[f] = row.size();
        size[f] = size[f + 1] * row.size();
        hole[f] = static_cast<std::size_t>(
            std::lower_bound(row.begin(), row.end(), ucoords[f]) - row.begin());
        looped = looped && hole[f] < row.size() && row[hole[f]] == ucoords[f];
      }
      // u owns its edges to the tuples after its own, the last `owned`.
      const esz owned = offsets[static_cast<std::size_t>(uu) + 1] -
                        offsets[static_cast<std::size_t>(uu)];
      const esz first = size[0] - owned;
      // Every counter below is owned by this u alone: vertex[uu] and the
      // owned-edge slice eb = [offsets[uu], offsets[uu+1]) — single-writer,
      // so no atomics, no thread-local copies, no reduction.
      count_t* const eb = edge.data() + offsets[static_cast<std::size_t>(uu)];
      if (size[0] - looped >= 2) {
        BlockWedges w{factors_.data(), k,     rows,  degs,
                      size,            hole,  first, eb,
                      masks_.data() + mask_off_[ucoords[k - 1]],
                      (degs[k - 1] + 63) / 64};
        w.close(0, 0, looped, 0, looped, true);
        vertex[static_cast<std::size_t>(uu)] = w.t;
        checks += w.checks;
        vsum += w.t;
        for (esz i = 0; i < owned; ++i) esum += eb[i];
      }
      if (check == nullptr) continue;
      // u's counts are final and its coordinates still in hand: check t(u),
      // then Δ of each edge u owns.
      const bool sampled = timed && fold_sampled(u);
      const double t0 = sampled ? obs::now_us() : 0.0;
      vertex_tally.add(vertex[static_cast<std::size_t>(uu)],
                       vertex_expr->at_coords(ucoords));
      // A position odometer started just past u walks the owned tuples.
      std::size_t pos[kMaxFactors];
      esz row_ptr[kMaxFactors];
      esz next = first;
      for (std::size_t f = k; owned > 0 && f-- > 0;) {
        pos[f] = static_cast<std::size_t>(next % degs[f]);
        next /= degs[f];
        row_ptr[f] = factors_[f]->matrix().row_ptr()[ucoords[f]];
      }
      esz s[kMaxFactors];
      for (esz i = 0; i < owned; ++i) {
        std::size_t f = 0;
        for (; f < k; ++f) {
          // A factor of the expression that IS the engine's factor shares
          // its CSR, so the row's slot is the expression's slot.
          const std::optional<esz> found =
              &edge_expr->factor(f) == factors_[f]
                  ? row_ptr[f] + pos[f]
                  : edge_expr->slot(f, ucoords[f], rows[f][pos[f]]);
          if (!found) break;
          s[f] = *found;
        }
        edge_tally.add(eb[i], f == k ? edge_expr->at_slots(s) : std::nullopt);
        // Step the odometer, the last position fastest.
        for (f = k - 1; f > 0 && ++pos[f] == degs[f]; --f) pos[f] = 0;
        if (f == 0) ++pos[0];
      }
      if (sampled) us += obs::now_us() - t0;
    }
    if (check != nullptr) {
#pragma omp critical(kronotri_validate_fold)
      {
        vertex_tally.write(check->vertex);
        edge_tally.write(check->edge);
        fold_us += us;
      }
    }
  }
  if (timed) {
    obs::counter("validate.fold_ns")
        .add(static_cast<std::uint64_t>(fold_us * 1e3 *
                                        (1u << kFoldSampleBits)));
  }
  st.vertex_count_sum += vsum;
  st.edge_count_sum += esum;
  return checks;
}

StreamingStats StreamingCensus::run(const ShardConsumer& consumer) const {
  return run_shards(0, shards_.size(), consumer);
}

StreamingStats StreamingCensus::run_shards(std::size_t begin, std::size_t end,
                                           const ShardConsumer& consumer,
                                           ClosedFormCheck* check) const {
  if (begin > end || end > shards_.size()) {
    throw std::out_of_range("StreamingCensus::run_shards: bad range");
  }
  for (std::size_t f = 0; check != nullptr && f < factors_.size(); ++f) {
    if (check->vertex_expr->num_factors() != factors_.size() ||
        check->edge_expr->num_factors() != factors_.size() ||
        check->vertex_expr->factor_size(f) != radix_[f] ||
        check->edge_expr->factor(f).num_vertices() != radix_[f]) {
      throw std::invalid_argument("run_shards: forms of another product");
    }
  }
  StreamingStats st;
  st.num_shards = end - begin;
  std::vector<count_t> vertex, edge;
  std::vector<esz> offsets;
  for (std::size_t s = begin; s < end; ++s) {
    obs::Span span("validate:shard");
    span.arg("shard", s);
    const count_t checks =
        process_shard(shards_[s], vertex, edge, offsets, check, st);
    st.wedge_checks += checks;
    span.arg("wedge_checks", checks);
    obs::counter("validate.shards_executed").add();
    obs::counter("validate.wedge_checks").add(checks);
    st.peak_accumulator_bytes =
        std::max(st.peak_accumulator_bytes,
                 vertex.size() * sizeof(count_t) +
                     edge.size() * sizeof(count_t) + offsets.size() * sizeof(esz));
    st.num_edges += edge.size();
    if (consumer) consumer(Shard{shards_[s], vertex, edge});
  }
  if (begin == 0 && end == shards_.size()) {
    assert(st.vertex_count_sum % 3 == 0);
    st.total_triangles = st.vertex_count_sum / 3;
  }
  return st;
}

}  // namespace kronotri::validate
