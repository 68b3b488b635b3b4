// EdgeSink — where generated edges go.
//
// The streaming half of the pipeline facade: generation produces batches of
// EdgeRecords (kron::EdgeStream::next_batch) and pushes them into a sink, so
// writers and analyses consume C = A ⊗ B directly from the factor
// representation without ever materializing the product. Sinks are
// deliberately dumb — consume() takes a batch, finish() flushes — so one
// sink instance per partition composes with stream_parallel().
//
// The public consume()/finish() pair is non-virtual; implementations
// override do_consume()/do_finish(). The base class owns the consumed_
// bookkeeping and makes finish() idempotent: with TeeSink composition the
// same child is easily finished twice (once by the tee, once by a caller
// that also holds it), so the first finish() runs do_finish() and later
// calls are no-ops. Debug builds assert that no batch arrives after
// finish().
#pragma once

#include <cassert>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/graph.hpp"
#include "kron/oracle.hpp"
#include "kron/stream.hpp"

namespace kronotri::api {

class EdgeSink {
 public:
  virtual ~EdgeSink() = default;

  /// Consumes one batch of edges. Called repeatedly; batches are never
  /// interleaved on a single sink (each partition owns its sink).
  void consume(std::span<const kron::EdgeRecord> batch) {
    assert(!finished_ && "EdgeSink::consume() after finish()");
    consumed_ += batch.size();
    do_consume(batch);
  }

  /// Flushes. Idempotent: the first call runs do_finish(), every later
  /// call returns immediately.
  void finish() {
    if (finished_) return;
    finished_ = true;
    do_finish();
  }

  [[nodiscard]] bool finished() const noexcept { return finished_; }

  /// Total edges consumed so far.
  [[nodiscard]] esz edges_consumed() const noexcept { return consumed_; }

 protected:
  virtual void do_consume(std::span<const kron::EdgeRecord> batch) = 0;
  virtual void do_finish() {}

  esz consumed_ = 0;

 private:
  bool finished_ = false;
};

/// Fans every batch out to N child sinks, so ONE stream pass feeds N
/// consumers — the composition primitive behind api::run()'s single-pass
/// multi-analysis execution. Owns its children; finish() finishes each
/// child (idempotently, so a child finished elsewhere is fine). The tee's
/// own edges_consumed() counts the batches it saw once, not per child.
class TeeSink : public EdgeSink {
 public:
  explicit TeeSink(std::vector<std::unique_ptr<EdgeSink>> children)
      : children_(std::move(children)) {}

  [[nodiscard]] std::size_t num_children() const noexcept {
    return children_.size();
  }
  [[nodiscard]] EdgeSink& child(std::size_t i) { return *children_[i]; }
  [[nodiscard]] const EdgeSink& child(std::size_t i) const {
    return *children_[i];
  }

 protected:
  void do_consume(std::span<const kron::EdgeRecord> batch) override {
    for (const auto& c : children_) c->consume(batch);
  }
  void do_finish() override {
    for (const auto& c : children_) c->finish();
  }

 private:
  std::vector<std::unique_ptr<EdgeSink>> children_;
};

/// Writes "u v" text lines (the io::write_edge_list body format) to an
/// ostream the caller owns.
class TextEdgeSink : public EdgeSink {
 public:
  explicit TextEdgeSink(std::ostream& os) : os_(&os) {}

 protected:
  void do_consume(std::span<const kron::EdgeRecord> batch) override;
  void do_finish() override;

 private:
  std::ostream* os_;
  std::string buffer_;
};

/// Writes raw native-endian u64 pairs — the compact exchange format for
/// piping partitions between processes.
class BinaryEdgeSink : public EdgeSink {
 public:
  explicit BinaryEdgeSink(std::ostream& os) : os_(&os) {}

 protected:
  void do_consume(std::span<const kron::EdgeRecord> batch) override;
  void do_finish() override;

 private:
  std::ostream* os_;
};

/// Collects edges in memory (COO triplets); to_graph() builds the explicit
/// Graph — the materialization path expressed as a sink.
class CooCollectorSink : public EdgeSink {
 public:
  [[nodiscard]] const std::vector<std::pair<vid, vid>>& edges() const noexcept {
    return edges_;
  }
  std::vector<std::pair<vid, vid>>& edges() noexcept { return edges_; }

  /// Builds the graph on `n` vertices from the collected directed entries.
  [[nodiscard]] Graph to_graph(vid n, bool symmetrize = false) const;

 protected:
  void do_consume(std::span<const kron::EdgeRecord> batch) override;

 private:
  std::vector<std::pair<vid, vid>> edges_;
};

/// Accumulates the out-degree of every product vertex — a full degree
/// census of C performed during generation. Each partition's counter array
/// is its own heap allocation, touched by exactly one worker until
/// merge(); the class alignment only keeps the sink objects themselves
/// (the consumed_ counter and vector header) off a shared cache line when
/// sinks are allocated back-to-back.
class alignas(64) DegreeCensusSink : public EdgeSink {
 public:
  explicit DegreeCensusSink(vid num_vertices) : degrees_(num_vertices, 0) {}

  [[nodiscard]] const std::vector<count_t>& degrees() const noexcept {
    return degrees_;
  }

  /// Merges another partition's census into this one (for fan-in after
  /// stream_parallel).
  void merge(const DegreeCensusSink& other);

 protected:
  void do_consume(std::span<const kron::EdgeRecord> batch) override;

 private:
  std::vector<count_t> degrees_;
};

/// Annotates every edge with its exact triangle count Δ_C(e) from the
/// oracle and accumulates the total plus a histogram — the "validation
/// during generation" workflow of the paper as a sink.
class TriangleCensusSink : public EdgeSink {
 public:
  /// The oracle must outlive the sink.
  explicit TriangleCensusSink(const kron::TriangleOracle& oracle)
      : oracle_(&oracle) {}

  /// Σ Δ(e) over consumed stored entries (each undirected edge contributes
  /// once per stored direction; divide by 2 for loop-free products).
  [[nodiscard]] count_t triangle_sum() const noexcept { return sum_; }
  [[nodiscard]] const std::map<count_t, count_t>& histogram() const noexcept {
    return histogram_;
  }

  void merge(const TriangleCensusSink& other);

 protected:
  void do_consume(std::span<const kron::EdgeRecord> batch) override;

 private:
  const kron::TriangleOracle* oracle_;
  count_t sum_ = 0;
  std::map<count_t, count_t> histogram_;
};

}  // namespace kronotri::api
