#include "validate/streaming_census.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <map>
#include <optional>
#include <stdexcept>

#include "kron/closed_forms.hpp"
#include "kron/multi.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace kronotri::validate {

namespace {

/// A chain of k factors with ≥ 2 vertices each has ≥ 2^k product vertices,
/// so 64 factors already saturates the vid space — a fixed cap lets the hot
/// loops keep per-vertex coordinate state on the stack.
constexpr std::size_t kMaxFactors = 64;

/// Under --trace the fold is timed on one vertex in 2^kFoldSampleBits,
/// those whose Fibonacci hash has its top bits clear, and scaled up: two
/// clock reads on every vertex would cost several percent of the census.
constexpr unsigned kFoldSampleBits = 6;

bool fold_sampled(vid u) {
  return (u * 0x9E3779B97F4A7C15ull) >> (64 - kFoldSampleBits) == 0;
}

std::vector<const Graph*> chain_factor_ptrs(const kron::KronChain& chain) {
  std::vector<const Graph*> fs;
  fs.reserve(chain.num_factors());
  for (std::size_t i = 0; i < chain.num_factors(); ++i) {
    fs.push_back(&chain.factor(i));
  }
  return fs;
}

/// One center's wedge loop, enumerated by factor blocks (file comment): the
/// neighbors sharing coordinates 0..f−1 are a contiguous level-f block, and
/// dropping u itself leaves every block contiguous. A last-factor block is
/// the whole of u's last-factor row R_x in position order, except the one
/// block at u's own prefix, which lacks u's position `gap` when B has a loop
/// at x.
struct BlockWedges {
  const Graph* const* factors;
  std::size_t k;
  std::size_t deg;
  const vid* coords;           ///< coords[i*k + f]: factor-f coordinate of i
  const esz* slots;            ///< slots[i*k + f]: factor-f slot of i
  const std::size_t* ends;     ///< ends[f*deg + i]: end of i's level-f+1 block
  std::size_t split;           ///< first neighbor with id > u
  count_t* eb;                 ///< u's owned-edge counters
  const std::uint64_t* masks;  ///< R_x's row masks, `words` per position
  esz row;                     ///< first slot of R_x
  std::size_t d;               ///< |R_x|
  std::size_t words;           ///< ⌈d/64⌉
  std::size_t gap;             ///< position of x in R_x, if B loops at x
  count_t t = 0;               ///< closed wedges at u
  count_t checks = 0;          ///< product pairs decided

  /// Closes every wedge {i, j}, i < j, with i ∈ [i0, i1) and j ∈ [j0, j1),
  /// two level-f blocks (the same block when `same`).
  void close(std::size_t f, std::size_t i0, std::size_t i1, std::size_t j0,
             std::size_t j1, bool same) {
    if (f + 1 == k) {
      close_last(i0, i1, j0, j1, same);
      return;
    }
    const Graph& g = *factors[f];
    const std::size_t* const end = ends + f * deg;
    for (std::size_t i = i0; i < i1; i = end[i]) {
      const vid x = coords[i * k + f];
      // A block pairs with itself (a self-loop test) only if it holds a
      // pair.
      std::size_t j = same ? i : j0;
      if (same && end[i] == i + 1) ++j;
      for (; j < j1; j = end[j]) {
        ++checks;
        if (g.has_edge(x, coords[j * k + f])) {
          close(f + 1, i, end[i], j, end[j], same && i == j);
        }
      }
    }
  }

  /// The last factor: i's mask row, cut to J's positions, lists i's closed
  /// wedges into J. Position q of R_x is neighbor j0 + q, one less past the
  /// gap when J is the block that lacks it.
  void close_last(std::size_t i0, std::size_t i1, std::size_t j0,
                  std::size_t j1, bool same) {
    const bool gapped = j1 - j0 < d;
    checks += same ? (i1 - i0) * (i1 - i0 - 1) / 2 : (i1 - i0) * (j1 - j0);
    for (std::size_t i = i0; i < i1; ++i) {
      const std::size_t p = slots[i * k + k - 1] - row;
      const std::size_t q0 = same ? p + 1 : 0;
      const std::uint64_t* const mask = masks + p * words;
      count_t closed = 0;
      for (std::size_t w = q0 >> 6; w < words; ++w) {
        std::uint64_t bits = mask[w];
        if (w == q0 >> 6) bits &= ~std::uint64_t{0} << (q0 & 63);
        if (gapped && w == gap >> 6) bits &= ~(std::uint64_t{1} << (gap & 63));
        for (; bits != 0; bits &= bits - 1) {
          const std::size_t q =
              w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
          const std::size_t j = j0 + q - (gapped && q > gap ? 1 : 0);
          ++closed;
          if (j >= split) ++eb[j - split];
        }
      }
      t += closed;
      if (i >= split) eb[i - split] += closed;
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
  weight_.assign(factors_.size(), 1);
  for (std::size_t i = factors_.size() - 1; i-- > 0;) {
    weight_[i] = weight_[i + 1] * radix_[i + 1];
  }
  plan_shards();
  build_masks();
}

StreamingCensus::StreamingCensus(const Graph& a, const Graph& b,
                                 StreamingOptions opt)
    : StreamingCensus(std::vector<const Graph*>{&a, &b}, opt) {}

StreamingCensus::StreamingCensus(const kron::KronChain& chain,
                                 StreamingOptions opt)
    : StreamingCensus(chain_factor_ptrs(chain), opt) {}

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

void StreamingCensus::neighbors_with_coords(vid p, const vid* p_coords,
                                            std::vector<vid>& ids,
                                            std::vector<vid>& coords,
                                            std::vector<esz>& slots) const {
  const std::size_t k = factors_.size();
  ids.clear();
  coords.clear();
  slots.clear();
  std::span<const vid> rows[kMaxFactors];
  esz row_start[kMaxFactors];
  esz deg = 1;
  for (std::size_t i = 0; i < k; ++i) {
    rows[i] = factors_[i]->neighbors(p_coords[i]);
    row_start[i] = factors_[i]->matrix().row_ptr()[p_coords[i]];
    deg *= rows[i].size();
  }
  if (deg == 0) return;
  ids.reserve(deg);
  coords.reserve(deg * k);
  slots.reserve(deg * k);

  // Odometer over the factor rows, left digit most significant; rows are
  // sorted, so composed ids come out ascending. value[i] is the partial sum
  // of the first i digits.
  std::size_t idx[kMaxFactors] = {};
  vid value[kMaxFactors + 1];
  value[0] = 0;
  for (std::size_t i = 0; i < k; ++i) {
    value[i + 1] = value[i] + rows[i][0] * weight_[i];
  }
  for (;;) {
    const vid id = value[k];
    if (id != p) {  // drop the self loop — the census runs on C − I∘C
      ids.push_back(id);
      for (std::size_t i = 0; i < k; ++i) coords.push_back(rows[i][idx[i]]);
      for (std::size_t i = 0; i < k; ++i) {
        slots.push_back(row_start[i] + idx[i]);
      }
    }
    std::size_t i = k;
    while (i > 0 && idx[i - 1] + 1 == rows[i - 1].size()) --i;
    if (i == 0) return;
    ++idx[i - 1];
    for (std::size_t j = i; j < k; ++j) idx[j] = 0;
    for (std::size_t j = i - 1; j < k; ++j) {
      value[j + 1] = value[j] + rows[j][idx[j]] * weight_[j];
    }
  }
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

  const kron::ClosedForms* const forms = check ? check->forms : nullptr;
  const bool timed = forms != nullptr && obs::TraceRecorder::instance().enabled();
  double fold_us = 0;

  count_t checks = 0, vsum = 0, esum = 0;
#pragma omp parallel reduction(+ : checks, vsum, esum)
  {
    std::vector<vid> ids, coords;
    std::vector<esz> slots;
    std::vector<std::size_t> ends;
    Tally vertex_tally(forms != nullptr), edge_tally(forms != nullptr);
    double us = 0;
#pragma omp for schedule(dynamic, 16) nowait
    for (std::int64_t uu = 0; uu < len; ++uu) {
      const vid u = lo + static_cast<vid>(uu);
      vid ucoords[kMaxFactors];
      decompose(u, ucoords);
      neighbors_with_coords(u, ucoords, ids, coords, slots);
      const std::size_t deg = ids.size();
      const std::size_t split = static_cast<std::size_t>(
          std::upper_bound(ids.begin(), ids.end(), u) - ids.begin());
      assert(deg - split == offsets[static_cast<std::size_t>(uu) + 1] -
                                offsets[static_cast<std::size_t>(uu)]);
      // Every counter below is owned by this u alone: vertex[uu] and the
      // owned-edge slice eb = [offsets[uu], offsets[uu+1]) — single-writer,
      // so no atomics, no thread-local copies, no reduction.
      count_t* const eb = edge.data() + offsets[static_cast<std::size_t>(uu)];
      if (deg >= 2) {
        // Block ends for factors 0..k−2: neighbor i stays in i+1's
        // level-(f+1) block when both share coordinates 0..f.
        ends.resize((k - 1) * deg);
        for (std::size_t f = 0; f + 1 < k; ++f) {
          std::size_t* const e = ends.data() + f * deg;
          e[deg - 1] = deg;
          for (std::size_t i = deg - 1; i-- > 0;) {
            const bool joined =
                coords[i * k + f] == coords[(i + 1) * k + f] &&
                (f == 0 || ends[(f - 1) * deg + i] > i + 1);
            e[i] = joined ? e[i + 1] : i + 1;
          }
        }
        const vid x = ucoords[k - 1];
        const auto rx = factors_.back()->neighbors(x);
        const std::size_t gap = static_cast<std::size_t>(
            std::lower_bound(rx.begin(), rx.end(), x) - rx.begin());
        BlockWedges w{factors_.data(), k, deg, coords.data(), slots.data(),
                      ends.data(), split, eb, masks_.data() + mask_off_[x],
                      factors_.back()->matrix().row_ptr()[x], rx.size(),
                      (rx.size() + 63) / 64, gap};
        w.close(0, 0, deg, 0, deg, true);
        vertex[static_cast<std::size_t>(uu)] = w.t;
        checks += w.checks;
        vsum += w.t;
        for (std::size_t i = 0; i < deg - split; ++i) esum += eb[i];
      }
      if (forms == nullptr) continue;
      // u's counts are final and its coordinates still in hand: check t(u),
      // then Δ of each edge u owns.
      const bool sampled = timed && fold_sampled(u);
      const double t0 = sampled ? obs::now_us() : 0.0;
      vertex_tally.add(vertex[static_cast<std::size_t>(uu)],
                       forms->vertex_triangles(ucoords));
      esz s[kMaxFactors];
      for (std::size_t i = split; i < deg; ++i) {
        std::size_t f = 0;
        for (; f < k; ++f) {
          // A factor of the forms that IS the engine's factor shares its
          // CSR, so the odometer's slot is the forms' slot.
          const std::optional<esz> found =
              &forms->factor(f) == factors_[f]
                  ? slots[i * k + f]
                  : forms->slot(f, ucoords[f], coords[i * k + f]);
          if (!found) break;
          s[f] = *found;
        }
        edge_tally.add(eb[i - split],
                       f == k ? forms->edge_triangles(s) : std::nullopt);
      }
      if (sampled) us += obs::now_us() - t0;
    }
    if (forms != nullptr) {
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
    if (check->forms->num_factors() != factors_.size() ||
        check->forms->factor(f).num_vertices() != radix_[f]) {
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
