// R-MAT / stochastic-Kronecker generator (Chakrabarti–Zhan–Faloutsos [4]).
//
// This is the baseline the paper's Rem. 1 argues against: stochastic
// Kronecker graphs (the Graph500 generator family [1]) have very few
// triangles relative to real-world graphs because edges are sampled
// independently. tests/test_clustering.cpp pins that claim: at equal vertex
// count this generator leaves a far larger share of vertices in no triangle
// than a non-stochastic Kronecker product does.
#pragma once

#include <cstdint>

#include "core/graph.hpp"

namespace kronotri::gen {

struct RmatParams {
  double a = 0.57;  ///< Graph500 defaults
  double b = 0.19;
  double c = 0.19;
  double d = 0.05;
};

/// 2^scale vertices, edge_factor·2^scale sampled edge slots (duplicates
/// collapse, self loops dropped, result symmetrized — the undirected
/// Graph500 convention).
Graph rmat(unsigned scale, esz edge_factor, const RmatParams& params,
           std::uint64_t seed);

}  // namespace kronotri::gen
