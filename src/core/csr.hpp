// Compressed-sparse-row matrix with sorted rows.
//
// Canonical storage for adjacency matrices (T = uint8_t, all stored values 1)
// and for count matrices such as the triangle-support matrix Δ
// (T = count_t). Invariants maintained by every constructor:
//   * row_ptr has rows()+1 entries, non-decreasing, row_ptr[rows()] == nnz,
//   * column indices within each row are strictly increasing (no duplicate
//     entries),
//   * col_idx and values have exactly nnz entries.
// Sorted rows give O(log d) membership queries and linear-merge set
// operations, which the triangle kernels rely on.
#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/coo.hpp"
#include "core/types.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace kronotri {

template <typename T>
class CsrMatrix {
 public:
  using value_type = T;

  /// Empty matrix of the given dimensions (all zero).
  CsrMatrix() : CsrMatrix(0, 0) {}
  CsrMatrix(vid rows, vid cols)
      : rows_(rows), cols_(cols), row_ptr_(rows + 1, 0) {}

  /// Entry count below which from_coo() takes the serial sort path — a
  /// counting-sort build pays per-chunk row histograms, which only amortize
  /// once the triplet list is comfortably larger than the scheduling and
  /// allocation overhead.
  static constexpr std::size_t kParallelCooCutoff = 1u << 13;

  /// Builds from triplets. Entries are sorted; duplicates are combined
  /// according to `policy` (kKeep retains the value appearing first in the
  /// triplet list). Zero values are kept (explicit zeros are legal but none
  /// of our generators produce them). Large inputs take a parallel
  /// counting-sort path; the result is bit-identical to from_coo_serial()
  /// regardless of size or thread count.
  static CsrMatrix from_coo(const Coo<T>& coo, DupPolicy policy = DupPolicy::kSum) {
    // Tall sparse inputs (rows outnumbering triplets) would pay the
    // counting sort's O(chunks·rows) histograms for no win — the serial
    // sort of a triplet list that small is near-free.
    if (coo.entries().size() < kParallelCooCutoff ||
        static_cast<std::size_t>(coo.rows()) > coo.entries().size()) {
      return from_coo_serial(coo, policy);
    }
    return from_coo_parallel(coo, policy);
  }

  /// The reference single-threaded build: stable sort by (row, col), then a
  /// linear merge pass. Kept callable on its own as the determinism oracle
  /// of the parallel build (tests).
  static CsrMatrix from_coo_serial(const Coo<T>& coo,
                                   DupPolicy policy = DupPolicy::kSum) {
    CsrMatrix m(coo.rows(), coo.cols());
    std::vector<CooEntry<T>> entries = coo.entries();
    for (const auto& e : entries) {
      if (e.row >= m.rows_ || e.col >= m.cols_) {
        throw std::out_of_range("Coo entry outside matrix dimensions");
      }
    }
    std::stable_sort(entries.begin(), entries.end(),
                     [](const CooEntry<T>& a, const CooEntry<T>& b) {
                       return a.row != b.row ? a.row < b.row : a.col < b.col;
                     });
    m.col_idx_.reserve(entries.size());
    m.values_.reserve(entries.size());
    vid last_row = ~vid{0};
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const auto& e = entries[i];
      if (!m.col_idx_.empty() && last_row == e.row &&
          m.col_idx_.back() == e.col) {
        if (policy == DupPolicy::kSum) m.values_.back() = static_cast<T>(m.values_.back() + e.value);
        continue;
      }
      last_row = e.row;
      ++m.row_ptr_[e.row + 1];
      m.col_idx_.push_back(e.col);
      m.values_.push_back(e.value);
    }
    std::partial_sum(m.row_ptr_.begin(), m.row_ptr_.end(), m.row_ptr_.begin());
    return m;
  }

  /// Builds directly from validated CSR arrays.
  static CsrMatrix from_parts(vid rows, vid cols, std::vector<esz> row_ptr,
                              std::vector<vid> col_idx, std::vector<T> values) {
    if (row_ptr.size() != rows + 1 || row_ptr.front() != 0 ||
        row_ptr.back() != col_idx.size() || col_idx.size() != values.size()) {
      throw std::invalid_argument("inconsistent CSR arrays");
    }
    for (vid r = 0; r < rows; ++r) {
      if (row_ptr[r] > row_ptr[r + 1]) {
        throw std::invalid_argument("row_ptr not monotone");
      }
      for (esz k = row_ptr[r]; k + 1 < row_ptr[r + 1]; ++k) {
        if (col_idx[k] >= col_idx[k + 1]) {
          throw std::invalid_argument("row not strictly sorted");
        }
      }
      if (row_ptr[r] < row_ptr[r + 1] && col_idx[row_ptr[r + 1] - 1] >= cols) {
        throw std::invalid_argument("column index out of range");
      }
    }
    CsrMatrix m(rows, cols);
    m.row_ptr_ = std::move(row_ptr);
    m.col_idx_ = std::move(col_idx);
    m.values_ = std::move(values);
    return m;
  }

  /// n×n identity scaled by `value`.
  static CsrMatrix identity(vid n, T value = T{1}) {
    std::vector<esz> rp(n + 1);
    std::iota(rp.begin(), rp.end(), esz{0});
    std::vector<vid> ci(n);
    std::iota(ci.begin(), ci.end(), vid{0});
    return from_parts(n, n, std::move(rp), std::move(ci),
                      std::vector<T>(n, value));
  }

  [[nodiscard]] vid rows() const noexcept { return rows_; }
  [[nodiscard]] vid cols() const noexcept { return cols_; }
  [[nodiscard]] esz nnz() const noexcept { return row_ptr_.back(); }

  [[nodiscard]] std::span<const vid> row_cols(vid i) const {
    return {col_idx_.data() + row_ptr_[i],
            static_cast<std::size_t>(row_ptr_[i + 1] - row_ptr_[i])};
  }
  [[nodiscard]] std::span<const T> row_vals(vid i) const {
    return {values_.data() + row_ptr_[i],
            static_cast<std::size_t>(row_ptr_[i + 1] - row_ptr_[i])};
  }
  [[nodiscard]] std::span<T> row_vals_mut(vid i) {
    return {values_.data() + row_ptr_[i],
            static_cast<std::size_t>(row_ptr_[i + 1] - row_ptr_[i])};
  }

  [[nodiscard]] esz row_degree(vid i) const {
    return row_ptr_[i + 1] - row_ptr_[i];
  }

  /// Index into col_idx()/values() of entry (i,j), or nnz() when absent.
  [[nodiscard]] esz find(vid i, vid j) const {
    const auto cols_i = row_cols(i);
    const auto it = std::lower_bound(cols_i.begin(), cols_i.end(), j);
    if (it == cols_i.end() || *it != j) return nnz();
    return row_ptr_[i] + static_cast<esz>(it - cols_i.begin());
  }

  [[nodiscard]] bool contains(vid i, vid j) const { return find(i, j) != nnz(); }

  /// Value at (i,j), T{} when absent.
  [[nodiscard]] T at(vid i, vid j) const {
    const esz k = find(i, j);
    return k == nnz() ? T{} : values_[k];
  }

  // Raw array access for kernels.
  [[nodiscard]] const std::vector<esz>& row_ptr() const noexcept { return row_ptr_; }
  [[nodiscard]] const std::vector<vid>& col_idx() const noexcept { return col_idx_; }
  [[nodiscard]] const std::vector<T>& values() const noexcept { return values_; }
  std::vector<T>& values_mut() noexcept { return values_; }

  friend bool operator==(const CsrMatrix& a, const CsrMatrix& b) {
    return a.rows_ == b.rows_ && a.cols_ == b.cols_ &&
           a.row_ptr_ == b.row_ptr_ && a.col_idx_ == b.col_idx_ &&
           a.values_ == b.values_;
  }

  /// Same sparsity pattern (ignores values).
  [[nodiscard]] bool same_structure(const CsrMatrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           row_ptr_ == other.row_ptr_ && col_idx_ == other.col_idx_;
  }

 private:
  /// Counting-sort build: contiguous input chunks keep per-row entry order
  /// equal to triplet order for every chunk count, so the output (including
  /// which duplicate kKeep retains) is independent of the thread count.
  ///   1. per-chunk row histograms (also the bounds check),
  ///   2. row offsets by prefix sum, per-(chunk,row) cursors,
  ///   3. order-preserving parallel scatter into a row-bucketed staging area,
  ///   4. per-row stable sort by column + duplicate combine in place,
  ///   5. prefix sum of deduplicated row lengths + parallel compaction.
  static CsrMatrix from_coo_parallel(const Coo<T>& coo, DupPolicy policy) {
    CsrMatrix m(coo.rows(), coo.cols());
    const auto& entries = coo.entries();
    const std::size_t nz = entries.size();
    const vid rows = m.rows_;
#ifdef _OPENMP
    const std::size_t workers = static_cast<std::size_t>(omp_get_max_threads());
#else
    const std::size_t workers = 1;
#endif
    const std::size_t chunks =
        std::max<std::size_t>(1, std::min(workers, nz / 2048));
    const auto chunk_begin = [&](std::size_t c) { return nz * c / chunks; };

    std::vector<std::vector<esz>> counts(chunks);
    std::size_t bad = 0;
#pragma omp parallel for schedule(static, 1) reduction(+ : bad)
    for (std::int64_t cc = 0; cc < static_cast<std::int64_t>(chunks); ++cc) {
      const auto c = static_cast<std::size_t>(cc);
      counts[c].assign(rows, 0);
      for (std::size_t i = chunk_begin(c); i < chunk_begin(c + 1); ++i) {
        const auto& e = entries[i];
        if (e.row >= m.rows_ || e.col >= m.cols_) {
          ++bad;
          continue;
        }
        ++counts[c][e.row];
      }
    }
    if (bad != 0) {
      throw std::out_of_range("Coo entry outside matrix dimensions");
    }

    // start[r] = first staging slot of row r; counts[c][r] becomes the
    // running cursor for chunk c's slice of row r.
    std::vector<esz> start(rows + 1, 0);
#pragma omp parallel for schedule(static)
    for (std::int64_t rr = 0; rr < static_cast<std::int64_t>(rows); ++rr) {
      const auto r = static_cast<vid>(rr);
      esz total = 0;
      for (std::size_t c = 0; c < chunks; ++c) total += counts[c][r];
      start[r + 1] = total;
    }
    std::partial_sum(start.begin(), start.end(), start.begin());
#pragma omp parallel for schedule(static)
    for (std::int64_t rr = 0; rr < static_cast<std::int64_t>(rows); ++rr) {
      const auto r = static_cast<vid>(rr);
      esz cursor = start[r];
      for (std::size_t c = 0; c < chunks; ++c) {
        const esz len = counts[c][r];
        counts[c][r] = cursor;
        cursor += len;
      }
    }

    std::vector<vid> stage_cols(nz);
    std::vector<T> stage_vals(nz);
#pragma omp parallel for schedule(static, 1)
    for (std::int64_t cc = 0; cc < static_cast<std::int64_t>(chunks); ++cc) {
      const auto c = static_cast<std::size_t>(cc);
      for (std::size_t i = chunk_begin(c); i < chunk_begin(c + 1); ++i) {
        const auto& e = entries[i];
        const esz pos = counts[c][e.row]++;
        stage_cols[pos] = e.col;
        stage_vals[pos] = e.value;
      }
    }

    struct ColVal {
      vid col;
      T value;
    };
#pragma omp parallel
    {
      std::vector<ColVal> scratch;
#pragma omp for schedule(dynamic, 512)
      for (std::int64_t rr = 0; rr < static_cast<std::int64_t>(rows); ++rr) {
        const auto r = static_cast<vid>(rr);
        const esz lo = start[r];
        const std::size_t len = start[r + 1] - lo;
        if (len == 0) continue;
        scratch.resize(len);
        for (std::size_t k = 0; k < len; ++k) {
          scratch[k] = {stage_cols[lo + k], stage_vals[lo + k]};
        }
        std::stable_sort(scratch.begin(), scratch.end(),
                         [](const ColVal& a, const ColVal& b) {
                           return a.col < b.col;
                         });
        esz out = lo;
        for (std::size_t k = 0; k < len; ++k) {
          if (out != lo && stage_cols[out - 1] == scratch[k].col) {
            if (policy == DupPolicy::kSum) {
              stage_vals[out - 1] =
                  static_cast<T>(stage_vals[out - 1] + scratch[k].value);
            }
            continue;
          }
          stage_cols[out] = scratch[k].col;
          stage_vals[out] = scratch[k].value;
          ++out;
        }
        m.row_ptr_[r + 1] = out - lo;  // deduplicated length, scanned below
      }
    }

    std::partial_sum(m.row_ptr_.begin(), m.row_ptr_.end(), m.row_ptr_.begin());
    m.col_idx_.resize(m.row_ptr_.back());
    m.values_.resize(m.row_ptr_.back());
#pragma omp parallel for schedule(static)
    for (std::int64_t rr = 0; rr < static_cast<std::int64_t>(rows); ++rr) {
      const auto r = static_cast<vid>(rr);
      const esz len = m.row_ptr_[r + 1] - m.row_ptr_[r];
      std::copy_n(stage_cols.begin() + start[r], len,
                  m.col_idx_.begin() + m.row_ptr_[r]);
      std::copy_n(stage_vals.begin() + start[r], len,
                  m.values_.begin() + m.row_ptr_[r]);
    }
    return m;
  }

  vid rows_;
  vid cols_;
  std::vector<esz> row_ptr_;
  std::vector<vid> col_idx_;
  std::vector<T> values_;
};

using BoolCsr = CsrMatrix<std::uint8_t>;
using CountCsr = CsrMatrix<count_t>;

}  // namespace kronotri
