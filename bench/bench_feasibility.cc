// Experiment E7 — feasibility and infeasibility detection.
//
// The solver must (a) report kNoKDisjointPaths exactly when the graph lacks
// k disjoint s-t paths (Dinic oracle), and (b) report kInfeasible exactly
// when the min-delay k-flow misses D. Sweeps connectivity and budget
// tightness; any mismatch is a correctness bug and the row would show it.
#include <iostream>

#include "core/solver.h"
#include "flow/dinic.h"
#include "graph/generators.h"
#include "util/cli.h"
#include "util/table.h"

constexpr const char* kUsage =
    "usage: bench_feasibility [--trials=40] [--seed=7]\n";

int run(const krsp::util::Cli& cli) {
  using namespace krsp;
  const int trials = static_cast<int>(cli.get_int("trials", 40));
  util::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 7)));
  cli.reject_unknown();

  std::cout << "E7: feasibility detection over " << trials
            << " random ER instances per row (n = 10)\n\n";

  util::Table table({"density p", "k", "budget", "solved", "infeasible",
                     "no-k-paths", "oracle mismatches"});
  for (const double p : {0.10, 0.20, 0.35}) {
    for (const int k : {2, 3}) {
      for (const char* tightness : {"tight-1", "exact", "loose"}) {
        int solved = 0, infeasible = 0, nok = 0, mismatches = 0;
        for (int trial = 0; trial < trials; ++trial) {
          core::Instance inst;
          inst.graph = gen::erdos_renyi(rng, 10, p);
          inst.s = 0;
          inst.t = 9;
          inst.k = k;
          const bool oracle_connected =
              flow::max_edge_disjoint_paths(inst.graph, 0, 9) >= k;
          const auto min_delay = core::min_possible_delay(inst);
          if (min_delay) {
            if (std::string(tightness) == "tight-1")
              inst.delay_bound = std::max<graph::Delay>(0, *min_delay - 1);
            else if (std::string(tightness) == "exact")
              inst.delay_bound = *min_delay;
            else
              inst.delay_bound = *min_delay * 2;
          } else {
            inst.delay_bound = 100;
          }
          const auto s = core::KrspSolver().solve(inst);
          switch (s.status) {
            case core::SolveStatus::kNoKDisjointPaths:
              ++nok;
              if (oracle_connected) ++mismatches;
              break;
            case core::SolveStatus::kInfeasible:
              ++infeasible;
              if (!oracle_connected || !min_delay ||
                  *min_delay <= inst.delay_bound)
                ++mismatches;
              break;
            default:
              if (s.has_paths()) {
                ++solved;
                if (!oracle_connected || s.delay > inst.delay_bound)
                  ++mismatches;
              } else {
                ++mismatches;  // kFailed counts against us
              }
          }
        }
        table.row()
            .cell_fp(p, 2)
            .cell(k)
            .cell(tightness)
            .cell(solved)
            .cell(infeasible)
            .cell(nok)
            .cell(mismatches);
      }
    }
  }
  table.print();
  std::cout << "\nExpected shape: zero oracle mismatches everywhere; "
               "tight-1 rows are all infeasible-or-no-k, loose rows all "
               "solved-or-no-k.\n";
  return 0;
}

int main(int argc, char** argv) {
  return krsp::util::run_main(argc, argv, kUsage, run);
}
