// Random graph generators.
//
// Erdős–Rényi and Barabási–Albert are baselines; Holme–Kim (BA with triad
// formation) is the library's stand-in for the paper's web-NotreDame
// factor: it produces scale-free graphs with tunable, high triangle density
// — the two properties the §VI experiment needs from its factor. The
// paper's web-NotreDame data set is not shipped, so a seeded generator of
// the same vertex count stands in for it. All generators are deterministic
// in `seed`.
#pragma once

#include <cstdint>

#include "core/graph.hpp"
#include "triangle/labeled.hpp"

namespace kronotri::gen {

/// G(n, p) — every undirected pair independently with probability p
/// (geometric skipping, O(|E|)). No self loops.
Graph erdos_renyi(vid n, double p, std::uint64_t seed);

/// G(n, m) — exactly m distinct undirected edges, uniform. No self loops.
Graph erdos_renyi_m(vid n, esz m, std::uint64_t seed);

/// Barabási–Albert preferential attachment: each new vertex attaches to
/// `m` distinct existing vertices chosen proportionally to degree.
Graph barabasi_albert(vid n, vid m, std::uint64_t seed);

/// Holme–Kim: BA with probability `p_triad` of closing a triangle with a
/// random neighbor of the previous target after each attachment — power-law
/// degrees AND high clustering.
Graph holme_kim(vid n, vid m, double p_triad, std::uint64_t seed);

/// Uniform random labeling with `num_labels` colors.
triangle::Labeling random_labels(vid n, std::uint32_t num_labels,
                                 std::uint64_t seed);

/// Random orientation surgery: keeps each undirected edge of `g` as
/// reciprocal with probability `p_reciprocal`, otherwise keeps one random
/// direction — produces directed test graphs with both edge kinds (Def. 8).
Graph randomly_orient(const Graph& g, double p_reciprocal, std::uint64_t seed);

}  // namespace kronotri::gen
