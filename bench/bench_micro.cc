// Experiment E8 — substrate microbenchmarks (google-benchmark).
//
// Throughput of the building blocks: Dijkstra, Bellman–Ford, Dinic, MCMF
// (fresh networks, and phase 1 on a reused workspace), residual
// construction, auxiliary-graph construction, the bicameral product-graph
// search, the exact-mode cost-guess search, and the simplex.
#include <benchmark/benchmark.h>

#include "core/aux_graph.h"
#include "core/bicameral.h"
#include "core/phase1.h"
#include "core/residual.h"
#include "core/solver.h"
#include "core/workspace.h"
#include "flow/dinic.h"
#include "flow/disjoint.h"
#include "graph/generators.h"
#include "lp/simplex.h"
#include "oracles/bicameral_reference.h"
#include "paths/bellman_ford.h"
#include "paths/dijkstra.h"
#include "util/rng.h"

namespace {

using namespace krsp;

graph::Digraph make_graph(int n) {
  util::Rng rng(12345);
  return gen::erdos_renyi(rng, n, std::min(0.9, 6.0 / n));
}

void BM_Dijkstra(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        paths::dijkstra(g, 0, paths::EdgeWeight::cost()));
  }
}
BENCHMARK(BM_Dijkstra)->Arg(64)->Arg(256)->Arg(1024);

void BM_BellmanFord(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        paths::bellman_ford(g, 0, paths::EdgeWeight::cost()));
  }
}
BENCHMARK(BM_BellmanFord)->Arg(64)->Arg(256);

void BM_DinicUnitCaps(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        flow::max_edge_disjoint_paths(g, 0, g.num_vertices() - 1));
  }
}
BENCHMARK(BM_DinicUnitCaps)->Arg(64)->Arg(256)->Arg(1024);

void BM_MinCostKFlow(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(flow::min_weight_disjoint_paths(
        g, 0, g.num_vertices() - 1, 3, 1, 1));
  }
}
BENCHMARK(BM_MinCostKFlow)->Arg(64)->Arg(256)->Arg(1024);

// Phase 1 (Lemma 5) on a 64x64 grid, D halfway between the delays of the
// min-delay and the min-cost 2-flows, so the Lagrangian λ search runs. One
// SolveWorkspace serves every iteration, as a batch-engine worker's does:
// this times MCMF calls on a built network, where BM_MinCostKFlow builds a
// fresh network per call.
void BM_Phase1Lagrangian(benchmark::State& state) {
  util::Rng rng(4096);
  core::Instance inst;
  inst.graph = gen::grid(rng, 64, 64);
  inst.s = 0;
  inst.t = inst.graph.num_vertices() - 1;
  inst.k = 2;
  const auto& g = inst.graph;
  const auto min_delay = flow::min_weight_disjoint_paths(
      g, inst.s, inst.t, inst.k, 1, g.total_cost() + 1);
  const auto min_cost = flow::min_weight_disjoint_paths(
      g, inst.s, inst.t, inst.k, g.total_delay() + 1, 1);
  if (!min_delay || !min_cost ||
      min_cost->total_delay - min_delay->total_delay < 2) {
    state.SkipWithError("grid has no lambda-search budget");
    return;
  }
  inst.delay_bound = (min_delay->total_delay + min_cost->total_delay) / 2;
  core::SolveWorkspace ws;
  int mcmf_calls = 0;
  for (auto _ : state) {
    const auto p1 = core::phase1_lagrangian(inst, {}, &ws.mcmf);
    mcmf_calls = p1.mcmf_calls;
    benchmark::DoNotOptimize(p1.cost);
  }
  state.counters["mcmf_calls"] = mcmf_calls;
}
BENCHMARK(BM_Phase1Lagrangian)->Unit(benchmark::kMillisecond);

// One exact-weights solve per iteration with a reused SolveWorkspace, on
// perfbench tight-cancel-shaped instances (ER n=32, p=0.15, k=2, slack
// 0.15, phase-1 answer over D) drawn from a fixed seed, cycling through
// the pool. Nearly all of it is the cost-guess search: one cancellation
// run per guess, each starting from the phase-1 paths, whose first-round
// anchor scans the per-solve AnchorScanMemo replays.
void BM_ExactGuessSearch(benchmark::State& state) {
  util::Rng rng(1);
  core::RandomInstanceOptions opt;
  opt.k = 2;
  opt.delay_slack = 0.15;
  std::vector<core::Instance> pool;
  while (pool.size() < 16) {
    auto inst = core::random_er_instance(rng, 32, 0.15, opt);
    if (!inst) continue;
    const auto p1 = core::phase1_lagrangian(*inst);
    if (p1.status == core::Phase1Status::kApprox &&
        p1.delay > inst->delay_bound)
      pool.push_back(std::move(*inst));
  }
  core::SolverOptions options;
  options.mode = core::SolverOptions::Mode::kExactWeights;
  const core::KrspSolver solver(options);
  core::SolveWorkspace ws;
  std::size_t next = 0;
  std::int64_t guesses = 0;
  for (auto _ : state) {
    const auto s = solver.solve(pool[next], {}, &ws);
    next = (next + 1) % pool.size();
    guesses += s.telemetry.guess_attempts;
    benchmark::DoNotOptimize(s.cost);
  }
  state.counters["guesses_per_solve"] = benchmark::Counter(
      static_cast<double>(guesses), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_ExactGuessSearch)->Unit(benchmark::kMillisecond);

void BM_ResidualBuild(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)));
  const auto f =
      flow::min_weight_disjoint_paths(g, 0, g.num_vertices() - 1, 2, 1, 0);
  std::vector<graph::EdgeId> edges;
  if (f)
    for (const auto& p : f->paths)
      edges.insert(edges.end(), p.begin(), p.end());
  for (auto _ : state) {
    core::ResidualGraph residual(g, edges);
    benchmark::DoNotOptimize(residual.digraph().num_edges());
  }
}
BENCHMARK(BM_ResidualBuild)->Arg(64)->Arg(256);

void BM_AuxGraphBuild(benchmark::State& state) {
  const auto g = make_graph(32);
  const auto budget = state.range(0);
  for (auto _ : state) {
    core::AuxiliaryGraph aux(g, 0, budget, true);
    benchmark::DoNotOptimize(aux.digraph().num_edges());
  }
}
BENCHMARK(BM_AuxGraphBuild)->Arg(8)->Arg(32)->Arg(128);

// Bicameral search over capped/uncapped queries × production/reference
// kernels. range(0) = n; range(1): 0 = capped, 1 = uncapped; range(2):
// 0 = production find, 1 = the full-state-space reference in tests/oracles.
void BM_BicameralSearch(benchmark::State& state) {
  util::Rng rng(777);
  const auto g = gen::erdos_renyi(rng, static_cast<int>(state.range(0)),
                                  std::min(0.9, 5.0 / state.range(0)));
  const auto f =
      flow::min_weight_disjoint_paths(g, 0, g.num_vertices() - 1, 2, 1, 0);
  if (!f) {
    state.SkipWithError("instance lacks 2 disjoint paths");
    return;
  }
  std::vector<graph::EdgeId> edges;
  for (const auto& p : f->paths) edges.insert(edges.end(), p.begin(), p.end());
  const core::ResidualGraph residual(g, edges);
  core::BicameralQuery q;
  q.cap = 20;
  q.ratio = util::Rational(-1, 4);
  q.enforce_cap = state.range(1) == 0;
  const bool reference = state.range(2) != 0;
  const core::BicameralCycleFinder finder;
  for (auto _ : state) {
    benchmark::DoNotOptimize(reference
                                 ? core::bicameral_find_reference(residual, q)
                                 : finder.find(residual, q));
  }
}
BENCHMARK(BM_BicameralSearch)
    ->ArgNames({"n", "uncapped", "reference"})
    // Pruned kernel across sizes, capped (the production query shape).
    ->Args({12, 0, 0})
    ->Args({20, 0, 0})
    ->Args({32, 0, 0})
    // Reference counterparts.
    ->Args({12, 0, 1})
    ->Args({20, 0, 1})
    ->Args({32, 0, 1})
    // Uncapped (budget schedule runs to the total-cost clamp) both ways.
    ->Args({20, 1, 0})
    ->Args({20, 1, 1})
    ->Args({32, 1, 0})
    ->Args({32, 1, 1});

void BM_SimplexNetworkLp(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)));
  lp::LpModel model;
  for (const auto& e : g.edges())
    model.add_variable(static_cast<double>(e.cost), 0.0, 1.0);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    std::vector<lp::LinearTerm> terms;
    for (const graph::EdgeId e : g.out_edges(v)) terms.push_back({e, 1.0});
    for (const graph::EdgeId e : g.in_edges(v)) terms.push_back({e, -1.0});
    const double rhs = v == 0 ? 2 : (v == g.num_vertices() - 1 ? -2 : 0);
    model.add_constraint(std::move(terms), lp::Relation::kEq, rhs);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::SimplexSolver().solve(model));
  }
}
BENCHMARK(BM_SimplexNetworkLp)->Arg(16)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
