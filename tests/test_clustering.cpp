// Clustering-coefficient tests (the motivating consumers of t and Δ, §I).
#include <gtest/gtest.h>

#include <algorithm>

#include "api/registry.hpp"
#include "gen/classic.hpp"
#include "gen/random.hpp"
#include "helpers.hpp"
#include "kron/formulas.hpp"
#include "kron/product.hpp"
#include "triangle/clustering.hpp"
#include "triangle/count.hpp"

namespace {

using namespace kronotri;

TEST(Clustering, CliqueIsFullyClustered) {
  const auto c = triangle::local_clustering(gen::clique(6));
  for (const double v : c) EXPECT_DOUBLE_EQ(v, 1.0);
  EXPECT_DOUBLE_EQ(triangle::global_clustering(gen::clique(6)), 1.0);
  EXPECT_DOUBLE_EQ(triangle::average_clustering(gen::clique(6)), 1.0);
}

TEST(Clustering, TriangleFreeGraphsAreZero) {
  EXPECT_DOUBLE_EQ(triangle::global_clustering(gen::cycle(8)), 0.0);
  EXPECT_DOUBLE_EQ(triangle::average_clustering(gen::star(7)), 0.0);
}

TEST(Clustering, DegreeOneVerticesContributeZero) {
  const auto c = triangle::local_clustering(gen::path(4));
  for (const double v : c) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(Clustering, HubCycleValues) {
  // Hub: 4 triangles over C(4,2)=6 wedges = 2/3; cycle vertices: 2 triangles
  // over C(3,2)=3 wedges = 2/3.
  const auto c = triangle::local_clustering(gen::hub_cycle());
  for (const double v : c) EXPECT_NEAR(v, 2.0 / 3.0, 1e-12);
}

TEST(Clustering, SelfLoopsDoNotCount) {
  const Graph k4 = gen::clique(4);
  const auto plain = triangle::local_clustering(k4);
  const auto looped = triangle::local_clustering(k4.with_all_self_loops());
  EXPECT_EQ(plain, looped);
}

TEST(Clustering, HolmeKimBeatsErdosRenyiAtEqualDensity) {
  const Graph hk = gen::holme_kim(500, 3, 0.8, 3);
  const double density =
      static_cast<double>(hk.num_undirected_edges()) /
      static_cast<double>(500 * 499 / 2);
  const Graph er = gen::erdos_renyi(500, density, 4);
  EXPECT_GT(triangle::average_clustering(hk),
            3.0 * triangle::average_clustering(er));
}

TEST(Clustering, Rem1EdgeIndependenceLeavesTypicalVerticesTriangleFree) {
  // Rem. 1: R-MAT samples its edges (quasi-)independently, so closing a
  // typical vertex triplet is unlikely and its triangles gather in the hub
  // core; a non-stochastic product of a triangle-rich factor keeps them
  // spread out. At 4,096 vertices each, R-MAT leaves 52.1% of its vertices
  // in no triangle and F ⊗ F 17.9%. Average clustering is not compared:
  // which of the two is larger flips between R-MAT scales 12 and 17.
  const auto& registry = api::GeneratorRegistry::builtin();
  const Graph f = registry.build("hk:n=64,m=2,p=0.9,seed=53");
  const Graph product = kron::kron_graph(f, f);
  const Graph rmat = registry.build("rmat:scale=12,ef=8,seed=54");
  ASSERT_EQ(product.num_vertices(), rmat.num_vertices());
  const auto triangle_free_share = [](const Graph& g) {
    const auto t = triangle::participation_vertices(g);
    return static_cast<double>(std::count(t.begin(), t.end(), count_t{0})) /
           static_cast<double>(t.size());
  };
  EXPECT_GT(triangle_free_share(rmat), 2.0 * triangle_free_share(product));

  // Rem. 3: self loops on one factor raise every local count, so the
  // product's triangles are tunable from the factors.
  EXPECT_GT(kron::total_triangles(f, f.with_all_self_loops()),
            kron::total_triangles(f, f));
}

TEST(Clustering, GlobalCoefficientDefinition) {
  const Graph g = kt_test::random_undirected(30, 0.25, 5);
  const double gc = triangle::global_clustering(g);
  EXPECT_GE(gc, 0.0);
  EXPECT_LE(gc, 1.0);
}

}  // namespace
