// Experiment E4 — cycle-cancellation dynamics (Lemma 12 / Lemma 13).
//
// On trade-off-chain instances (engineered delay overshoot after phase 1)
// measures: iteration counts, cycle type mix, monotonicity of the ratio
// trace r_i (Lemma 12 predicts non-decreasing), and finder work counters.
#include <iostream>

#include "core/cycle_cancel.h"
#include "core/phase1.h"
#include "core/solver.h"
#include "graph/generators.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

constexpr const char* kUsage =
    "usage: bench_iterations [--trials=15] [--seed=4]\n";

int run(const krsp::util::Cli& cli) {
  using namespace krsp;
  const int trials = static_cast<int>(cli.get_int("trials", 15));
  util::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 4)));
  cli.reject_unknown();

  std::cout << "E4: cancellation dynamics on tradeoff-chain workloads ("
            << trials << " instances per row)\n\n";

  util::Table table({"chains", "hops", "runs", "mean iters", "max iters",
                     "type-0", "type-1", "type-2", "r_i monotone %",
                     "mean anchors", "mean budgets"});
  struct Shape {
    int chains, hops;
  };
  for (const auto [chains, hops] : {Shape{2, 3}, Shape{3, 3}, Shape{3, 5}}) {
    util::Stats iters, anchors, budgets;
    std::int64_t t0 = 0, t1 = 0, t2 = 0;
    int monotone = 0, runs = 0, attempts = 0;
    while (runs < trials && attempts < trials * 30) {
      ++attempts;
      core::Instance inst;
      inst.graph = gen::tradeoff_chains(rng, chains, hops, 6, 5);
      inst.s = 0;
      inst.t = 1;
      inst.k = chains;
      // Budget halfway between all-slow and all-fast.
      const auto lo = core::min_possible_delay(inst);
      if (!lo) continue;
      inst.delay_bound = (*lo + 5 * hops * chains) / 2;
      const auto p1 = core::phase1_lagrangian(inst);
      if (p1.status != core::Phase1Status::kApprox ||
          p1.delay <= inst.delay_bound)
        continue;
      // Cap = feasible-alternative cost (a certified upper bound on OPT).
      const auto cap = p1.feasible_alternative->total_cost(inst.graph);
      const auto r = core::cancel_cycles(inst, p1.paths, cap);
      if (r.status != core::CancelStatus::kSuccess) continue;
      ++runs;
      iters.add(static_cast<double>(r.telemetry.iterations));
      t0 += r.telemetry.type_counts[0];
      t1 += r.telemetry.type_counts[1];
      t2 += r.telemetry.type_counts[2];
      if (r.telemetry.ratio_monotone) ++monotone;
      anchors.add(static_cast<double>(r.telemetry.finder_stats.anchors_scanned));
      budgets.add(static_cast<double>(r.telemetry.finder_stats.budgets_tried));
    }
    table.row()
        .cell(chains)
        .cell(hops)
        .cell(runs)
        .cell_fp(iters.count() ? iters.mean() : 0.0, 1)
        .cell_fp(iters.count() ? iters.max() : 0.0, 0)
        .cell(t0)
        .cell(t1)
        .cell(t2)
        .cell_fp(runs ? 100.0 * monotone / runs : 0.0, 1)
        .cell_fp(anchors.count() ? anchors.mean() : 0.0, 0)
        .cell_fp(budgets.count() ? budgets.mean() : 0.0, 1);
  }
  table.print();
  std::cout << "\nExpected shape: iteration counts are small (far below the "
               "Lemma-13 pseudo-polynomial bound |D|*Sum(c)*Sum(d)); the "
               "ratio trace is monotone in 100% of runs (Lemma 12).\n";
  return 0;
}

int main(int argc, char** argv) {
  return krsp::util::run_main(argc, argv, kUsage, run);
}
