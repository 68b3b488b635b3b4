#include "api/sink.hpp"

#include <charconv>
#include <ostream>

namespace kronotri::api {

namespace {

void append_u64(std::string& buf, std::uint64_t v) {
  char tmp[20];
  const auto [end, ec] = std::to_chars(tmp, tmp + sizeof(tmp), v);
  buf.append(tmp, end);
}

}  // namespace

void TextEdgeSink::do_consume(std::span<const kron::EdgeRecord> batch) {
  for (const auto& e : batch) {
    append_u64(buffer_, e.u);
    buffer_.push_back(' ');
    append_u64(buffer_, e.v);
    buffer_.push_back('\n');
  }
  if (buffer_.size() >= 1u << 20) {
    os_->write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }
}

void TextEdgeSink::do_finish() {
  if (!buffer_.empty()) {
    os_->write(buffer_.data(), static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
  }
  os_->flush();
}

void BinaryEdgeSink::do_consume(std::span<const kron::EdgeRecord> batch) {
  static_assert(sizeof(kron::EdgeRecord) == 2 * sizeof(vid),
                "EdgeRecord must be two packed u64s for the binary format");
  os_->write(reinterpret_cast<const char*>(batch.data()),
             static_cast<std::streamsize>(batch.size() *
                                          sizeof(kron::EdgeRecord)));
}

void BinaryEdgeSink::do_finish() { os_->flush(); }

void CooCollectorSink::do_consume(std::span<const kron::EdgeRecord> batch) {
  edges_.reserve(edges_.size() + batch.size());
  for (const auto& e : batch) edges_.emplace_back(e.u, e.v);
}

Graph CooCollectorSink::to_graph(vid n, bool symmetrize) const {
  return Graph::from_edges(n, edges_, symmetrize);
}

void DegreeCensusSink::do_consume(std::span<const kron::EdgeRecord> batch) {
  count_t* const d = degrees_.data();
  for (const auto& e : batch) ++d[e.u];
}

void DegreeCensusSink::merge(const DegreeCensusSink& other) {
  consumed_ += other.consumed_;
  for (std::size_t v = 0; v < degrees_.size(); ++v) {
    degrees_[v] += other.degrees_[v];
  }
}

void TriangleCensusSink::do_consume(std::span<const kron::EdgeRecord> batch) {
  for (const auto& e : batch) {
    const auto d = oracle_->edge_triangles(e.u, e.v);
    if (!d) continue;  // self-loop slots are not undirected edges
    sum_ += *d;
    ++histogram_[*d];
  }
}

void TriangleCensusSink::merge(const TriangleCensusSink& other) {
  consumed_ += other.consumed_;
  sum_ += other.sum_;
  for (const auto& [k, v] : other.histogram_) histogram_[k] += v;
}

}  // namespace kronotri::api
