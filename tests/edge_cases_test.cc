// Miscellaneous boundary conditions across the public API: degenerate
// weights, tight budgets, parallel arcs, large-k, and polynomial-oracle
// cross-checks at sizes beyond the brute-force suites.
#include <gtest/gtest.h>

#include "core/solver.h"
#include "flow/dinic.h"
#include "graph/generators.h"
#include "oracles/min_cost_flow.h"
#include "paths/pareto.h"
#include "paths/rsp.h"
#include "util/rng.h"

namespace krsp {
namespace {

using core::Instance;
using core::KrspSolver;
using core::SolverOptions;
using core::SolveStatus;

TEST(EdgeCases, AllZeroCostInstance) {
  // C_OPT = 0: the ratio guarantee is vacuous; the solver must still meet
  // the delay bound and not blow up on the zero lower bound.
  Instance inst;
  inst.graph.resize(4);
  inst.graph.add_edge(0, 1, 0, 5);
  inst.graph.add_edge(1, 3, 0, 5);
  inst.graph.add_edge(0, 2, 0, 1);
  inst.graph.add_edge(2, 3, 0, 1);
  inst.graph.add_edge(0, 3, 0, 1);
  inst.s = 0;
  inst.t = 3;
  inst.k = 2;
  inst.delay_bound = 4;
  const auto s = KrspSolver().solve(inst);
  ASSERT_TRUE(s.has_paths());
  EXPECT_EQ(s.cost, 0);
  EXPECT_LE(s.delay, 4);
}

TEST(EdgeCases, AllZeroDelayInstance) {
  // D = 0 with all-zero delays: every structural solution is feasible, so
  // the min-cost flow answer is optimal.
  Instance inst;
  inst.graph.resize(4);
  inst.graph.add_edge(0, 1, 3, 0);
  inst.graph.add_edge(1, 3, 4, 0);
  inst.graph.add_edge(0, 2, 1, 0);
  inst.graph.add_edge(2, 3, 2, 0);
  inst.s = 0;
  inst.t = 3;
  inst.k = 2;
  inst.delay_bound = 0;
  const auto s = KrspSolver().solve(inst);
  EXPECT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_EQ(s.cost, 10);
  EXPECT_EQ(s.delay, 0);
}

TEST(EdgeCases, ParallelArcsUsedAsDistinctPaths) {
  Instance inst;
  inst.graph.resize(2);
  inst.graph.add_edge(0, 1, 1, 1);
  inst.graph.add_edge(0, 1, 2, 2);
  inst.graph.add_edge(0, 1, 3, 3);
  inst.s = 0;
  inst.t = 1;
  inst.k = 3;
  inst.delay_bound = 6;
  const auto s = KrspSolver().solve(inst);
  ASSERT_TRUE(s.has_paths());
  EXPECT_EQ(s.paths.paths().size(), 3u);
  EXPECT_EQ(s.cost, 6);
  EXPECT_EQ(s.delay, 6);
}

TEST(EdgeCases, ExactlyTightBudgetSolvable) {
  util::Rng rng(569);
  int solved = 0;
  for (int trial = 0; trial < 10; ++trial) {
    core::RandomInstanceOptions opt;
    opt.k = 2;
    opt.delay_slack = 0.0;  // D = tightest possible
    const auto inst = core::random_er_instance(rng, 10, 0.35, opt);
    if (!inst) continue;
    SolverOptions sopt;
    sopt.mode = SolverOptions::Mode::kExactWeights;
    const auto s = KrspSolver(sopt).solve(*inst);
    ASSERT_TRUE(s.has_paths()) << inst->summary();
    ++solved;
    EXPECT_EQ(s.delay, inst->delay_bound);  // no slack to give back
  }
  EXPECT_GT(solved, 5);
}

TEST(EdgeCases, LargeKNearConnectivityLimit) {
  util::Rng rng(571);
  const auto g = gen::erdos_renyi(rng, 12, 0.6);
  const int max_k = flow::max_edge_disjoint_paths(g, 0, 11);
  ASSERT_GE(max_k, 3);
  Instance inst;
  inst.graph = g;
  inst.s = 0;
  inst.t = 11;
  inst.k = max_k;  // every disjoint path must be used
  const auto min_delay = core::min_possible_delay(inst);
  ASSERT_TRUE(min_delay.has_value());
  inst.delay_bound = *min_delay * 5 / 4;
  const auto s = KrspSolver().solve(inst);
  ASSERT_TRUE(s.has_paths());
  EXPECT_EQ(static_cast<int>(s.paths.paths().size()), max_k);
  // k+1 must fail structurally.
  inst.k = max_k + 1;
  inst.delay_bound = 1000000;
  EXPECT_EQ(KrspSolver().solve(inst).status,
            SolveStatus::kNoKDisjointPaths);
}

TEST(EdgeCases, SelfLoopEdgesNeverUsed) {
  Instance inst;
  inst.graph.resize(3);
  inst.graph.add_edge(0, 0, 0, 0);  // self loop, free
  inst.graph.add_edge(0, 1, 1, 1);
  inst.graph.add_edge(1, 1, 0, 0);
  inst.graph.add_edge(1, 2, 1, 1);
  inst.s = 0;
  inst.t = 2;
  inst.k = 1;
  inst.delay_bound = 5;
  const auto s = KrspSolver().solve(inst);
  ASSERT_TRUE(s.has_paths());
  EXPECT_EQ(s.paths.paths()[0].size(), 2u);
  EXPECT_TRUE(s.paths.is_valid(inst));
}

// Polynomial-oracle cross-check at n = 25: RSP FPTAS vs exact Pareto
// frontier (both poly, no brute force involved).
TEST(EdgeCases, FptasVsParetoAtMediumSize) {
  util::Rng rng(577);
  int compared = 0;
  for (int trial = 0; trial < 8; ++trial) {
    gen::WeightRange w;
    w.cost_max = 30;
    w.delay_max = 30;
    const auto g = gen::erdos_renyi(rng, 25, 0.12, w);
    const graph::Delay D = 60;
    const auto exact = paths::rsp_via_frontier(g, 0, 24, D);
    const auto approx = paths::rsp_fptas(g, 0, 24, D, 0.25);
    ASSERT_EQ(exact.has_value(), approx.has_value());
    if (!exact) continue;
    ++compared;
    EXPECT_LE(approx->delay, D);
    EXPECT_LE(static_cast<double>(approx->cost),
              1.25 * static_cast<double>(exact->cost) + 1e-9);
  }
  EXPECT_GT(compared, 3);
}

TEST(EdgeCases, McfHandlesZeroCapacityArcs) {
  flow::MinCostFlow mcf(2);
  mcf.add_arc(0, 1, 0, 1);  // useless arc
  mcf.add_arc(0, 1, 1, 5);
  const auto cost = mcf.solve(0, 1, 1);
  ASSERT_TRUE(cost.has_value());
  EXPECT_EQ(*cost, 5);
}

TEST(EdgeCases, HugeWeightsNoOverflow) {
  // Weights near 1e9: combined Lagrangian weights reach ~1e18 — inside
  // int64 but only barely; the solver must stay exact.
  Instance inst;
  inst.graph.resize(4);
  inst.graph.add_edge(0, 1, 1000000000, 1);
  inst.graph.add_edge(1, 3, 1000000000, 1);
  inst.graph.add_edge(0, 2, 1, 1000000000);
  inst.graph.add_edge(2, 3, 1, 1000000000);
  inst.s = 0;
  inst.t = 3;
  inst.k = 2;
  inst.delay_bound = 2000000002;
  const auto s = KrspSolver().solve(inst);
  ASSERT_TRUE(s.has_paths());
  EXPECT_EQ(s.delay, 2000000002);
  EXPECT_EQ(s.cost, 2000000002);
}

}  // namespace
}  // namespace krsp
