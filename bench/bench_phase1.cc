// Experiment E3 — phase-1 (Lemma 5) guarantee.
//
// Empirical distribution of α = delay/D and the Lemma-5 score
// delay/D + cost/C_LP across random instances with tightening budgets.
// Lemma 5 predicts score <= 2 always; the table also cross-checks that the
// Lagrangian bound never exceeds the true optimum.
#include <iostream>

#include "baselines/brute_force.h"
#include "core/phase1.h"
#include "graph/generators.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

constexpr const char* kUsage =
    "usage: bench_phase1 [--trials=80] [--n=10] [--seed=3]\n";

int run(const krsp::util::Cli& cli) {
  using namespace krsp;
  const int trials = static_cast<int>(cli.get_int("trials", 80));
  const int n = static_cast<int>(cli.get_int("n", 10));
  util::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 3)));
  cli.reject_unknown();

  std::cout << "E3: phase-1 (Lemma 5) — score = delay/D + cost/C_LP "
               "(bounded by 2), alpha = delay/D; n = "
            << n << ", " << trials << " instances per slack\n\n";

  util::Table table({"delay slack", "approx runs", "mean alpha", "max alpha",
                     "mean score", "max score", "LB<=OPT violations",
                     "mean OPT/LB gap", "exact early-out %"});
  for (const double slack : {0.05, 0.15, 0.3, 0.6, 0.9}) {
    util::Stats alpha, score, gap;
    int approx_runs = 0, exact = 0, violations = 0, done = 0;
    while (done < trials) {
      core::RandomInstanceOptions ropt;
      ropt.k = 2;
      ropt.delay_slack = slack;
      const auto inst = core::random_er_instance(rng, n, 0.35, ropt);
      if (!inst) continue;
      const auto p1 = core::phase1_lagrangian(*inst);
      if (p1.status == core::Phase1Status::kNoKDisjointPaths ||
          p1.status == core::Phase1Status::kInfeasible)
        continue;
      ++done;
      if (p1.status == core::Phase1Status::kOptimal) {
        ++exact;
        continue;
      }
      ++approx_runs;
      const auto best = baselines::brute_force_krsp(*inst);
      KRSP_CHECK(best.has_value());
      if (p1.cost_lower_bound > util::Rational(best->cost)) ++violations;
      const double lb = std::max(1e-9, p1.cost_lower_bound.to_double());
      alpha.add(static_cast<double>(p1.delay) /
                std::max(1.0, static_cast<double>(inst->delay_bound)));
      score.add(static_cast<double>(p1.delay) /
                    std::max(1.0, static_cast<double>(inst->delay_bound)) +
                static_cast<double>(p1.cost) / lb);
      gap.add(static_cast<double>(best->cost) / lb);
    }
    table.row()
        .cell_fp(slack, 2)
        .cell(approx_runs)
        .cell_fp(alpha.count() ? alpha.mean() : 0.0)
        .cell_fp(alpha.count() ? alpha.max() : 0.0)
        .cell_fp(score.count() ? score.mean() : 0.0)
        .cell_fp(score.count() ? score.max() : 0.0)
        .cell(violations)
        .cell_fp(gap.count() ? gap.mean() : 0.0)
        .cell_fp(100.0 * exact / trials, 1);
  }
  table.print();
  std::cout << "\nExpected shape: max score <= 2 in every row, zero LB "
               "violations; looser budgets are increasingly solved exactly "
               "by the min-cost flow alone.\n";
  return 0;
}

int main(int argc, char** argv) {
  return krsp::util::run_main(argc, argv, kUsage, run);
}
