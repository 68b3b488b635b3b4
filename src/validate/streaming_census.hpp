// Sharded streaming triangle census over implicit Kronecker products,
// checked against the closed forms in the same pass.
//
// The paper's headline claim is validating per-vertex and per-edge triangle
// statistics at scales where C = A ⊗ B cannot be materialized. This engine
// computes the FULL census of C — t_C[p] for every product vertex and
// Δ_C(e) for every product edge — from the factors, never forming C:
//
//   * Product vertices are partitioned into contiguous shards sized by a
//     memory budget (HavoqGT-style partitioned processing on one node; a
//     shard is also the natural multi-node work unit).
//   * A shard owns its vertices' counters plus the counters of every edge
//     whose MIN endpoint lies in the shard. Every triangle {u,v,w} is seen
//     from each corner as a wedge: for center u, each adjacent pair
//     {a, b} ⊆ N(u), a < b, contributes to t[u] and — exactly when u is the
//     min endpoint — to Δ(u,a) / Δ(u,b). Ownership makes every counter
//     single-writer: shards never exchange contributions, so counts are
//     bit-identical to triangle::CensusWorkspace on the materialized
//     product at any thread count and any shard count.
//   * N(u) is the odometer product of u's factor adjacency rows, and it is
//     walked, never written out: a neighbor is a tuple of row positions
//     (p_0…p_{k−1}), its coordinates and adjacency slots read off the rows,
//     its index in lexicographic coordinate order computed from the
//     positions. Neighbors sharing positions 0..f−1 form one contiguous
//     block, cut by position f into sub-blocks. One factor-f membership
//     test on a pair of blocks (I, J), I ≤ J, decides all |I|·|J| product
//     pairs across them: a failed test skips them, a passed one pairs the
//     sub-blocks at factor f+1 (I = J asks for a self loop). Every closed
//     wedge is still counted by its single writer — a measurement, not the
//     closed form. A thread's state for u is O(k), whatever u's degree.
//   * Once u's wedges are closed, t(u) and the Δ of every edge u owns are
//     final and u's rows are still in hand, so the same worker
//     compares them with the closed forms (kron::TriangleOracle's, for any
//     k and any self loops), a kron::KronVectorExpr at u's coordinates and
//     a kron::KronMatrixExpr at the walked slots, into thread-local
//     tallies, merged once per shard. Sums and maxima do not depend on the
//     merge order: the check is identical at every team size. Under
//     --trace its time, sampled on one vertex in 64, is the counter
//     validate.fold_ns.
//
// Work is one factor test per examined block pair on every factor but the
// last: for A ⊗ B, C(d_A, 2) + d_A tests on A per vertex. The last factor B
// is never searched. Each of its CSR slots (x, R_x[p]) keeps a bitmask over
// the positions q of row R_x, bit q set when B(R_x[p], R_x[q]) = 1, so a
// closed A-pair costs ⌈d_B/64⌉ word ANDs per neighbor plus one step per
// closed wedge. The table is Σ_x d_x·⌈d_x/64⌉ words, O(Σ_x d_x²/64), built
// once per engine and shared read-only by every thread; its bytes are the
// counter validate.mask_bytes (outside mem_budget, which bounds
// accumulators). StreamingStats::wedge_checks still counts product pairs
// decided, one per examined block pair: d_B² per closed A-pair (C(d_B, 2)
// inside a self-looped A-block), against Σ_p C(d(p), 2) unpruned (Table
// VI's plan: 250.2 M → 32.2 M, about 10 per triangle). Enumerating wedges
// is the price of exact per-vertex counts with only shard-local memory (an
// oriented enumeration would need cross-shard writes for the two
// non-minimal corners). Accumulator memory is O(shard vertices +
// shard-owned edges), tracked and reported so callers can assert the
// product was censused under a budget its edge list exceeds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "core/graph.hpp"
#include "core/types.hpp"

namespace kronotri::kron {
class KronMatrixExpr;
class KronVectorExpr;
}  // namespace kronotri::kron

namespace kronotri::validate {

struct StreamingOptions {
  /// Target size of one shard's accumulator blocks (vertex counters +
  /// owned-edge counters + offsets). A shard always holds at least one
  /// vertex, so a single vertex whose owned edges exceed the budget is
  /// processed alone rather than rejected.
  std::size_t mem_budget_bytes = 64ull << 20;

  /// Force exactly this many (equal-vertex-range) shards instead of
  /// deriving boundaries from the budget; 0 = use the budget.
  std::uint64_t force_shards = 0;

  /// Restrict the run to work unit `unit` of `units`: the report layer
  /// plans the full shard list as usual (budget-derived boundaries are
  /// identical in every process) and then processes only the unit's
  /// contiguous slice of shard indices — the decomposition the
  /// multi-process runner forks over. units == 0 disables (full run).
  std::uint64_t unit = 0;
  std::uint64_t units = 0;
};

/// Contiguous product-vertex range [lo, hi) processed as one unit.
struct ShardRange {
  vid lo = 0;
  vid hi = 0;
};

/// Aggregates of one full census run.
struct StreamingStats {
  count_t total_triangles = 0;   ///< τ(C) on the loop-free simple part
  count_t vertex_count_sum = 0;  ///< Σ_p t_C[p] = 3·τ
  count_t edge_count_sum = 0;    ///< Σ_e Δ_C(e) = 3·τ
  count_t wedge_checks = 0;      ///< product pairs decided, one per
                                 ///< examined block pair (see file comment)
  esz num_edges = 0;             ///< undirected non-loop edges of C streamed
  std::size_t num_shards = 0;
  std::size_t peak_accumulator_bytes = 0;  ///< max over shards, blocks only
};

/// Measured counts of one kind (t at vertices or Δ at edges) checked
/// against their closed forms.
struct CountCheck {
  count_t checked = 0;
  count_t mismatches = 0;
  count_t max_abs_err = 0;
  std::map<count_t, count_t> histogram;  ///< measured count → frequency

  /// Adds a check of other counts: sums, maxima and histogram sums, so
  /// merging is exact in any order.
  void merge(const CountCheck& other);
};

/// Closed forms to check the census against in its wedge pass (t_C and Δ_C
/// of a product of the census's factor sizes), and the result.
struct ClosedFormCheck {
  const kron::KronVectorExpr* vertex_expr = nullptr;
  const kron::KronMatrixExpr* edge_expr = nullptr;
  CountCheck vertex;  ///< every vertex of the checked shards
  CountCheck edge;    ///< every edge they own
};

class StreamingCensus {
 public:
  /// Census of C = A ⊗ B. Factors must be undirected (same Def. 5/6
  /// precondition as triangle::CensusWorkspace; throws
  /// std::invalid_argument otherwise) and must outlive the engine. Self
  /// loops in the factors are fine — the census runs on C − I∘C.
  StreamingCensus(const Graph& a, const Graph& b, StreamingOptions opt = {});

  /// Census of a k-factor chain C = A₁ ⊗ … ⊗ A_k (1 ≤ k ≤ kMaxFactors),
  /// under the same preconditions. kron::TriangleOracle::factors() is such
  /// a chain; streaming the oracle's own factors lets the closed-form
  /// check read its slots off the neighbor odometer.
  explicit StreamingCensus(std::span<const Graph> factors,
                           StreamingOptions opt = {});

  [[nodiscard]] const StreamingOptions& options() const noexcept {
    return opt_;
  }
  [[nodiscard]] vid num_vertices() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_factors() const noexcept {
    return factors_.size();
  }

  /// Shard boundaries this engine will process (fixed at construction,
  /// independent of thread count).
  [[nodiscard]] const std::vector<ShardRange>& shards() const noexcept {
    return shards_;
  }

  /// One processed shard's counters, valid only inside the run() consumer
  /// callback.
  struct Shard {
    ShardRange range;
    std::span<const count_t> vertex;  ///< t_C[lo..hi)
    /// Δ_C of every owned edge (u, v), u ∈ [lo, hi) ascending, then v > u
    /// ascending.
    std::span<const count_t> edge;
  };

  using ShardConsumer = std::function<void(const Shard&)>;

  /// Runs the full census, shard by shard in ascending vertex order,
  /// invoking `consumer` (if any) once per shard on the spawning thread.
  /// Deterministic: identical counts, shard boundaries and stats at every
  /// OMP thread count.
  StreamingStats run(const ShardConsumer& consumer = {}) const;

  /// run() over shards [begin, end) only — the multi-process runner's work
  /// unit. Per-shard counts equal the shards' slice of a full run, so
  /// disjoint ranges merge additively; total_triangles is only set when
  /// the range covers every shard. Given a `check`, also compares every
  /// count with its expressions (of this engine's factor sizes, else
  /// std::invalid_argument) and adds the result to it.
  StreamingStats run_shards(std::size_t begin, std::size_t end,
                            const ShardConsumer& consumer = {},
                            ClosedFormCheck* check = nullptr) const;

  // -- exposed for tests / the report layer --------------------------------

  /// #neighbors of p with id > p (loop excluded) in O(k log d), analytic —
  /// no neighbor enumeration. This is the shard planner's per-vertex
  /// owned-edge count.
  [[nodiscard]] esz upper_degree(vid p) const;

 private:
  explicit StreamingCensus(std::vector<const Graph*> factors,
                           StreamingOptions opt);

  void plan_shards();
  /// Fills masks_ and mask_off_ from the last factor (file comment).
  void build_masks();
  /// Census of one shard into the accumulators, checked into `check` when
  /// non-null; adds the shard's count sums to `st` and returns its wedge
  /// checks.
  count_t process_shard(ShardRange range, std::vector<count_t>& vertex,
                        std::vector<count_t>& edge, std::vector<esz>& offsets,
                        ClosedFormCheck* check, StreamingStats& st) const;

  /// Decomposes p into per-factor coordinates (mixed radix, left factor
  /// most significant), writing into coords[0..k).
  void decompose(vid p, vid* coords) const noexcept;

  std::vector<const Graph*> factors_;
  std::vector<vid> radix_;   ///< per-factor vertex counts
  vid n_ = 1;
  StreamingOptions opt_;
  std::vector<ShardRange> shards_;
  /// Last-factor row bitmasks: slot (x, R_x[p])'s ⌈d_x/64⌉ words start at
  /// masks_[mask_off_[x] + p·⌈d_x/64⌉].
  std::vector<std::uint64_t> masks_;
  std::vector<esz> mask_off_;  ///< num_vertices(B) + 1 entries
};

}  // namespace kronotri::validate
