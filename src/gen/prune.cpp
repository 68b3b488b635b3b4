#include "gen/prune.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "triangle/census.hpp"
#include "util/prng.hpp"

namespace kronotri::gen {

namespace {

struct Tri {
  vid u;           // degree-minimal vertex (enumeration order key)
  esz e0, e1, e2;  // undirected edge ids
  bool alive = true;
};

}  // namespace

Graph prune_to_one_triangle(const Graph& g, std::uint64_t seed) {
  if (!g.is_undirected()) {
    throw std::invalid_argument("prune_to_one_triangle: graph must be undirected");
  }
  // Strips self loops and numbers the undirected edges (row-major, u < v).
  const triangle::CensusWorkspace ws(g);
  const BoolCsr& s = ws.structure();
  const vid n = s.rows();
  const std::vector<esz>& id = ws.edge_ids().slot_id;
  const esz m = ws.num_edges();

  // Spanning forest by BFS: tree edges are protected.
  std::vector<bool> in_tree(m, false);
  {
    std::vector<bool> seen(n, false);
    std::vector<vid> queue;
    for (vid root = 0; root < n; ++root) {
      if (seen[root]) continue;
      seen[root] = true;
      queue.assign(1, root);
      while (!queue.empty()) {
        const vid x = queue.back();
        queue.pop_back();
        const auto row = s.row_cols(x);
        for (std::size_t k = 0; k < row.size(); ++k) {
          const vid y = row[k];
          if (!seen[y]) {
            seen[y] = true;
            in_tree[id[s.row_ptr()[x] + k]] = true;
            queue.push_back(y);
          }
        }
      }
    }
  }

  // Enumerate all triangles once into per-thread lists, then order them by
  // their degree-minimal vertex. Each u's triangles come from one thread in
  // enumeration order, so the stable sort yields the serial order whatever
  // the team — and with it the RNG tie-breaks below.
  std::vector<Tri> tris;
  {
    std::vector<std::vector<Tri>> local(triangle::census_workers());
    ws.for_each_triangle(local, [](std::vector<Tri>& out, vid u, vid, vid,
                                   esz e0, esz e1, esz e2) {
      out.push_back({u, e0, e1, e2});
    });
    for (const std::vector<Tri>& part : local) {
      tris.insert(tris.end(), part.begin(), part.end());
    }
    std::stable_sort(tris.begin(), tris.end(),
                     [](const Tri& x, const Tri& y) { return x.u < y.u; });
  }
  std::vector<std::vector<std::size_t>> tris_of_edge(m);
  for (std::size_t t = 0; t < tris.size(); ++t) {
    tris_of_edge[tris[t].e0].push_back(t);
    tris_of_edge[tris[t].e1].push_back(t);
    tris_of_edge[tris[t].e2].push_back(t);
  }
  std::vector<count_t> alive_count(m, 0);
  for (esz e = 0; e < m; ++e) {
    alive_count[e] = tris_of_edge[e].size();
  }

  std::vector<bool> edge_alive(m, true);
  util::Xoshiro256 rng(seed);

  auto kill_triangle = [&](std::size_t t) {
    if (!tris[t].alive) return;
    tris[t].alive = false;
    --alive_count[tris[t].e0];
    --alive_count[tris[t].e1];
    --alive_count[tris[t].e2];
  };

  // Greedy: while some edge closes > 1 triangle, delete the non-tree edge
  // (of one of its excess triangles) that currently closes the most.
  for (esz e = 0; e < m; ++e) {
    while (edge_alive[e] && alive_count[e] > 1) {
      // Candidate deletions: non-tree alive edges of e's alive triangles
      // (excluding protected tree edges; e itself is a candidate when it is
      // not a tree edge).
      esz best = m;
      count_t best_damage = 0;
      for (const std::size_t t : tris_of_edge[e]) {
        if (!tris[t].alive) continue;
        for (const esz f : {tris[t].e0, tris[t].e1, tris[t].e2}) {
          if (in_tree[f] || !edge_alive[f]) continue;
          const count_t damage = alive_count[f];
          if (best == m || damage > best_damage ||
              (damage == best_damage && rng.bernoulli(0.5))) {
            best = f;
            best_damage = damage;
          }
        }
      }
      if (best == m) {
        // Cannot happen: every triangle has a non-tree edge.
        throw std::logic_error("prune: no deletable edge found");
      }
      edge_alive[best] = false;
      for (const std::size_t t : tris_of_edge[best]) kill_triangle(t);
    }
  }

  std::vector<std::pair<vid, vid>> kept;
  kept.reserve(m);
  for (esz e = 0; e < m; ++e) {
    if (edge_alive[e]) kept.push_back(ws.edge_ids().ends[e]);
  }
  return Graph::from_edges(n, kept, /*symmetrize=*/true);
}

}  // namespace kronotri::gen
