// Sharded streaming triangle census over implicit Kronecker products.
//
// The paper's headline claim is validating per-vertex and per-edge triangle
// statistics at scales where C = A ⊗ B cannot be materialized. This engine
// computes the FULL census of C — t_C[p] for every product vertex and
// Δ_C(e) for every product edge — directly from the factor representation,
// without ever forming C's edge list:
//
//   * Product vertices are partitioned into contiguous shards sized by a
//     memory budget (HavoqGT-style partitioned processing on one node; a
//     shard is also the natural multi-node work unit).
//   * A shard owns its vertices' counters plus the counters of every edge
//     whose MIN endpoint lies in the shard. Every triangle {u,v,w} is seen
//     from each corner as a wedge: for center u, each adjacent pair
//     {a, b} ⊆ N(u), a < b, contributes to t[u] and — exactly when u is the
//     min endpoint — to Δ(u,a) / Δ(u,b). Edge (a,b) is counted by center
//     min(a,b). Ownership makes every counter single-writer: shards never
//     exchange contributions (the engine is communication-free, the same
//     discipline that makes the PR-2 census atomic-free), so counts are
//     bit-identical to triangle::CensusWorkspace on the materialized
//     product at any thread count and any shard count.
//   * Wedges are enumerated from the factors: N(u) is the odometer product
//     of the factor adjacency rows (sorted, with per-factor coordinates
//     kept alongside), and a wedge {a, b} closes iff every factor has the
//     corresponding coordinate edge — sorted-row membership queries,
//     O(log d) each, never touching C.
//   * The queries are pruned by factor blocks. N(u) comes out in
//     lexicographic coordinate order, so the neighbors sharing coordinates
//     0..f−1 are one contiguous block, cut by coordinate f into sub-blocks.
//     One factor-f test on a pair of blocks (I, J), I ≤ J, decides all
//     |I|·|J| product pairs across them: a failed test skips them, a passed
//     one pairs the sub-blocks at factor f+1 (I = J asks for a self loop).
//     Every closed wedge is still enumerated and counted by its single
//     writer — the same measurement with an earlier exit, not the closed
//     form.
//
// Work is one factor test per examined block pair: for A ⊗ B, C(d_A, 2) +
// d_A tests on A per vertex, then d_B² tests on B per closed A-pair (and
// C(d_B, 2) inside a self-looped A-block), against Σ_p C(d(p), 2) pair tests
// unpruned. On sparse factors most A-pairs fail and skip their d_B² pairs
// at once (Table VI's plan: 250.2 M → 32.2 M tests, about 10 per
// triangle). Enumerating wedges at all is the price of exact per-vertex
// counts with only shard-local memory (an oriented enumeration would need
// cross-shard writes for the two non-minimal corners). Accumulator memory
// is O(shard vertices + shard-owned edges), tracked and reported so callers
// can assert the product was censused under a budget its edge list exceeds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/graph.hpp"
#include "core/types.hpp"

namespace kronotri::kron {
class KronGraphView;
class KronChain;
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

/// Balanced contiguous index subrange [lo, hi) of `total` items for work
/// unit `unit` of `units` (empty for the tail units when total < units).
inline std::pair<std::size_t, std::size_t> unit_index_range(
    std::size_t total, std::uint64_t unit, std::uint64_t units) {
  return {static_cast<std::size_t>(total * unit / units),
          static_cast<std::size_t>(total * (unit + 1) / units)};
}

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
  count_t wedge_checks = 0;      ///< factor-membership tests, one per
                                 ///< examined block pair (see file comment)
  esz num_edges = 0;             ///< undirected non-loop edges of C streamed
  std::size_t num_shards = 0;
  std::size_t peak_accumulator_bytes = 0;  ///< max over shards, blocks only
};

class StreamingCensus {
 public:
  /// Census of C = A ⊗ B. Factors must be undirected (same Def. 5/6
  /// precondition as triangle::CensusWorkspace; throws
  /// std::invalid_argument otherwise) and must outlive the engine. Self
  /// loops in the factors are fine — the census runs on C − I∘C.
  StreamingCensus(const Graph& a, const Graph& b, StreamingOptions opt = {});

  /// Same product, spelled as the implicit view the rest of the library
  /// passes around.
  explicit StreamingCensus(const kron::KronGraphView& view,
                           StreamingOptions opt = {});

  /// Census of a k-factor chain C = A₁ ⊗ … ⊗ A_k (k ≥ 1). The chain must
  /// outlive the engine.
  explicit StreamingCensus(const kron::KronChain& chain,
                           StreamingOptions opt = {});

  [[nodiscard]] vid num_vertices() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_factors() const noexcept {
    return factors_.size();
  }

  /// Shard boundaries this engine will process (fixed at construction,
  /// independent of thread count).
  [[nodiscard]] const std::vector<ShardRange>& shards() const noexcept {
    return shards_;
  }

  /// One processed shard, valid only inside the run() consumer callback.
  class Shard {
   public:
    [[nodiscard]] vid lo() const noexcept { return range_.lo; }
    [[nodiscard]] vid hi() const noexcept { return range_.hi; }

    /// t_C[lo..hi) — exact triangle participation of the shard's vertices.
    [[nodiscard]] std::span<const count_t> vertex_counts() const noexcept {
      return {vertex_.data(), vertex_.size()};
    }

    [[nodiscard]] esz num_owned_edges() const noexcept {
      return offsets_.back();
    }

    /// Invokes fn(u, v, Δ_C(u,v)) for every edge owned by the shard
    /// (u ∈ [lo, hi), u < v), u ascending and v ascending within u.
    void for_each_owned_edge(
        const std::function<void(vid, vid, count_t)>& fn) const;

   private:
    friend class StreamingCensus;
    Shard(const StreamingCensus& engine, ShardRange range,
          const std::vector<count_t>& vertex, const std::vector<count_t>& edge,
          const std::vector<esz>& offsets)
        : engine_(&engine),
          range_(range),
          vertex_(vertex),
          edge_(edge),
          offsets_(offsets) {}

    const StreamingCensus* engine_;
    ShardRange range_;
    const std::vector<count_t>& vertex_;
    const std::vector<count_t>& edge_;
    const std::vector<esz>& offsets_;
  };

  using ShardConsumer = std::function<void(const Shard&)>;

  /// Runs the full census, shard by shard in ascending vertex order,
  /// invoking `consumer` (if any) once per shard on the spawning thread.
  /// Deterministic: identical counts, shard boundaries and stats at every
  /// OMP thread count.
  StreamingStats run(const ShardConsumer& consumer = {}) const;

  /// Runs only shards [begin, end) of shards() — the multi-process
  /// runner's work unit. Per-shard counts are identical to the shards'
  /// slice of a full run() (ownership makes shards independent), so
  /// disjoint subranges merge additively. total_triangles is only
  /// computed when the range covers every shard: a partial
  /// vertex_count_sum need not be divisible by 3.
  StreamingStats run_shards(std::size_t begin, std::size_t end,
                            const ShardConsumer& consumer = {}) const;

  // -- exposed for tests / the report layer --------------------------------

  /// #neighbors of p with id > p (loop excluded) in O(k log d), analytic —
  /// no neighbor enumeration. This is the shard planner's per-vertex
  /// owned-edge count.
  [[nodiscard]] esz upper_degree(vid p) const;

 private:
  explicit StreamingCensus(std::vector<const Graph*> factors,
                           StreamingOptions opt);

  void plan_shards();
  void process_shard(ShardRange range, std::vector<count_t>& vertex,
                     std::vector<count_t>& edge, std::vector<esz>& offsets,
                     count_t& wedge_checks) const;

  /// Decomposes p into per-factor coordinates (mixed radix, left factor
  /// most significant), writing into coords[0..k).
  void decompose(vid p, vid* coords) const noexcept;

  /// Materializes the sorted neighbor list of p (self excluded) with the
  /// per-factor coordinates of each neighbor kept alongside: ids[i] is the
  /// product id, coords[i*k .. i*k+k) its factor coordinates.
  void neighbors_with_coords(vid p, const vid* p_coords, std::vector<vid>& ids,
                             std::vector<vid>& coords) const;

  std::vector<const Graph*> factors_;
  std::vector<vid> radix_;   ///< per-factor vertex counts
  std::vector<vid> weight_;  ///< mixed-radix weights (suffix products)
  vid n_ = 1;
  StreamingOptions opt_;
  std::vector<ShardRange> shards_;
};

}  // namespace kronotri::validate
