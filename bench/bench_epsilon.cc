// Experiment E5 — the ε trade-off of Theorem 4.
//
// Fixed Waxman-style instance family with large weights (so scaling
// actually engages); sweep ε and report solution quality (vs the exact-
// weights solver as reference) and wall time. Theorem 4 predicts
// delay <= (1+ε)D, cost <= (2+ε)C_OPT, runtime growing as ε shrinks.
#include <fstream>
#include <iostream>

#include "core/solver.h"
#include "graph/generators.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

constexpr const char* kUsage =
    "usage: bench_epsilon [--trials=10] [--n=12] [--seed=5] "
    "[--csv=out.csv]\n";

int run(const krsp::util::Cli& cli) {
  using namespace krsp;
  const int trials = static_cast<int>(cli.get_int("trials", 10));
  const int n = static_cast<int>(cli.get_int("n", 12));
  const std::string csv_path = cli.get_string("csv", "");
  util::Rng rng(static_cast<std::uint64_t>(cli.get_int("seed", 5)));
  cli.reject_unknown();
  std::ofstream csv;
  if (!csv_path.empty()) {
    csv.open(csv_path);
    KRSP_CHECK_MSG(csv.good(), "cannot open " << csv_path);
    csv << "eps,instance,cost,ref_cost,delay,delay_bound,ms\n";
  }

  // Pre-draw instances with chunky weights so every ε row sees the same
  // set. Keep only instances where the cancellation phase actually engages
  // (phase 1 alone is neither optimal nor already delay-feasible) — those
  // are the ones ε matters for.
  gen::WeightRange w;
  w.cost_min = 20;
  w.cost_max = 400;
  w.delay_min = 20;
  w.delay_max = 400;
  std::vector<core::Instance> instances;
  std::vector<core::Solution> reference;
  {
    core::SolverOptions ropt;
    ropt.mode = core::SolverOptions::Mode::kExactWeights;
    const core::KrspSolver ref_solver(ropt);
    int attempts = 0;
    while (static_cast<int>(instances.size()) < trials &&
           attempts++ < trials * 100) {
      core::RandomInstanceOptions io;
      io.k = 2;
      io.delay_slack = 0.1;
      auto inst = core::random_er_instance(rng, n, 0.35, io, w);
      if (!inst) continue;
      auto ref = ref_solver.solve(*inst);
      if (!ref.has_paths()) continue;
      if (ref.telemetry.guess_attempts == 0) continue;  // phase-1-only solve
      instances.push_back(std::move(*inst));
      reference.push_back(std::move(ref));
    }
    KRSP_CHECK_MSG(!instances.empty(), "no cancellation-engaging instances");
  }

  std::cout << "E5: epsilon sweep (Theorem 4), n = " << n << ", weights up "
            << "to 400, " << trials << " instances, reference = exact-"
            << "weights solver\n\n";

  util::Table table({"eps", "mean cost/ref", "max cost/ref", "max delay/D",
                     "mean ms", "mean guesses"});
  for (const double eps : {2.0, 1.0, 0.5, 0.25, 0.125}) {
    core::SolverOptions opt;
    opt.mode = core::SolverOptions::Mode::kScaled;
    opt.eps1 = opt.eps2 = eps;
    const core::KrspSolver solver(opt);
    util::Stats ratio, dd, ms, guesses;
    for (std::size_t i = 0; i < instances.size(); ++i) {
      const auto s = solver.solve(instances[i]);
      KRSP_CHECK(s.has_paths());
      if (csv.is_open())
        csv << eps << ',' << i << ',' << s.cost << ',' << reference[i].cost
            << ',' << s.delay << ',' << instances[i].delay_bound << ','
            << s.telemetry.wall_seconds * 1e3 << '\n';
      ratio.add(static_cast<double>(s.cost) /
                std::max(1.0, static_cast<double>(reference[i].cost)));
      dd.add(static_cast<double>(s.delay) /
             std::max(1.0, static_cast<double>(instances[i].delay_bound)));
      ms.add(s.telemetry.wall_seconds * 1e3);
      guesses.add(static_cast<double>(s.telemetry.guess_attempts));
    }
    table.row()
        .cell_fp(eps, 3)
        .cell_fp(ratio.mean())
        .cell_fp(ratio.max())
        .cell_fp(dd.max())
        .cell_fp(ms.mean(), 2)
        .cell_fp(guesses.mean(), 1);
  }
  table.print();
  std::cout << "\nExpected shape: quality approaches the exact-weights "
               "reference as eps shrinks (cost/ref -> 1, delay/D <= 1+eps); "
               "runtime grows as eps shrinks.\n";
  return 0;
}

int main(int argc, char** argv) {
  return krsp::util::run_main(argc, argv, kUsage, run);
}
