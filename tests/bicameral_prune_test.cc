// Property test for the residual-structure pruning of the bicameral finder:
// the production kernel (seed anchors on SCC-compacted states, flat tables)
// and the full-state-space reference in tests/oracles (every vertex
// anchored, n·(budget+1) states, nested tables — but the shared seed-only
// selection contract) must return exactly the same result — same presence,
// same edges, same cost/delay/type — on randomized residual graphs spanning
// the no-negative-arc, single-SCC and many-SCC regimes, with and without a
// reused workspace. Equality hinges on the flat kernel being
// execution-equivalent to the full-state-space kernel at every seed anchor;
// this is the executable form of the equivalence argument in DESIGN.md §3.

#include <gtest/gtest.h>

#include "core/bicameral.h"
#include "graph/cycles.h"
#include "graph/generators.h"
#include "oracles/bicameral_reference.h"
#include "util/rng.h"

namespace krsp::core {
namespace {

using graph::Cost;
using graph::EdgeId;
using util::Rational;

// Random flow set: any duplicate-free edge subset is a valid ResidualGraph
// flow set (rebuild only reverses and negates the chosen edges), and random
// subsets produce far more varied negative-arc structure than actual
// disjoint-path solutions would.
std::vector<EdgeId> random_flow_subset(util::Rng& rng,
                                       const graph::Digraph& g,
                                       double keep_prob) {
  std::vector<EdgeId> flow;
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (rng.bernoulli(keep_prob)) flow.push_back(e);
  return flow;
}

BicameralQuery random_query(util::Rng& rng) {
  BicameralQuery q;
  q.cap = static_cast<Cost>(rng.uniform_int(1, 40));
  q.ratio = Rational(-static_cast<std::int64_t>(rng.uniform_int(0, 4)),
                     static_cast<std::int64_t>(rng.uniform_int(1, 6)));
  q.enforce_cap = rng.uniform_int(0, 4) != 0;  // 20% uncapped ablation mode
  return q;
}

// Runs production find (fresh and with a reused workspace) and the
// reference on the same residual/query and checks exact agreement.
void expect_modes_identical(const ResidualGraph& residual,
                            const BicameralQuery& q, const char* context,
                            BicameralWorkspace& ws) {
  BicameralStats pruned_stats;
  BicameralStats reference_stats;
  const BicameralCycleFinder finder;

  const auto pruned = finder.find(residual, q, &pruned_stats);
  const auto reference =
      bicameral_find_reference(residual, q, {}, &reference_stats);
  const auto reused = finder.find(residual, q, nullptr, &ws);

  ASSERT_TRUE(same_found_cycle(pruned, reference)) << context;
  ASSERT_TRUE(same_found_cycle(pruned, reused)) << context;
  if (pruned.has_value()) {
    // Returned cycles are genuine and self-consistent.
    EXPECT_TRUE(graph::is_simple_cycle(residual.digraph(), pruned->edges))
        << context;
    EXPECT_EQ(residual.cycle_cost(pruned->edges), pruned->cost) << context;
    EXPECT_EQ(residual.cycle_delay(pruned->edges), pruned->delay) << context;
    const auto type = BicameralCycleFinder::classify(
        pruned->cost, pruned->delay, q.cap, q.ratio, q.enforce_cap);
    ASSERT_TRUE(type.has_value()) << context;
    EXPECT_EQ(*type, pruned->type) << context;
  }

  // Pruning only removes work, never adds it.
  EXPECT_LE(pruned_stats.anchors_scanned, reference_stats.anchors_scanned)
      << context;
  EXPECT_EQ(reference_stats.sccs_skipped, 0) << context;
}

TEST(BicameralPrune, NoNegativeArcResidualsReturnNothing) {
  util::Rng rng(0xabc1);
  BicameralWorkspace ws;
  for (int trial = 0; trial < 40; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(4, 12));
    gen::WeightRange w;
    w.cost_min = trial % 3 == 0 ? 0 : 1;  // exercise zero-cost layers too
    const auto g = gen::erdos_renyi(rng, n, 0.35, w);
    // Empty flow set: every residual arc keeps its non-negative weights.
    const ResidualGraph residual(g, {});
    ASSERT_TRUE(residual.negative_arcs().empty());
    const BicameralQuery q = random_query(rng);
    BicameralStats stats;
    EXPECT_FALSE(
        BicameralCycleFinder().find(residual, q, &stats).has_value());
    // The seed fast path answers without scanning a single anchor.
    EXPECT_EQ(stats.anchors_scanned, 0);
    expect_modes_identical(residual, q, "no-negative-arc", ws);
  }
}

TEST(BicameralPrune, DenseSingleSccInstancesMatch) {
  util::Rng rng(0xabc2);
  BicameralWorkspace ws;
  for (int trial = 0; trial < 90; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(6, 12));
    gen::WeightRange w;
    w.cost_max = static_cast<Cost>(rng.uniform_int(2, 10));
    w.delay_max = static_cast<Cost>(rng.uniform_int(2, 10));
    if (trial % 4 == 0) w.cost_min = 0;
    const auto g = gen::erdos_renyi(rng, n, 0.5, w);
    const ResidualGraph residual(g, random_flow_subset(rng, g, 0.4));
    expect_modes_identical(residual, random_query(rng), "dense", ws);
  }
}

TEST(BicameralPrune, SparseManySccInstancesMatch) {
  util::Rng rng(0xabc3);
  BicameralWorkspace ws;
  for (int trial = 0; trial < 90; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(8, 16));
    gen::WeightRange w;
    w.cost_max = static_cast<Cost>(rng.uniform_int(2, 8));
    w.delay_max = static_cast<Cost>(rng.uniform_int(2, 8));
    const auto g = gen::erdos_renyi(rng, n, 0.12, w);
    const ResidualGraph residual(g, random_flow_subset(rng, g, 0.3));
    expect_modes_identical(residual, random_query(rng), "sparse", ws);
  }
}

TEST(BicameralPrune, WorkspaceReuseAcrossShapesIsStable) {
  // One workspace across residuals of very different sizes and budgets:
  // the grown tables must never leak stale state into later finds.
  util::Rng rng(0xabc4);
  BicameralWorkspace ws;
  for (int trial = 0; trial < 30; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(4, 14));
    const double p = trial % 2 == 0 ? 0.5 : 0.15;
    const auto g = gen::erdos_renyi(rng, n, p, {});
    const ResidualGraph residual(g, random_flow_subset(rng, g, 0.4));
    expect_modes_identical(residual, random_query(rng), "reuse", ws);
  }
}

}  // namespace
}  // namespace krsp::core
