// Experiment F1 — Figure 1 of the paper.
//
// Reproduces the gadget of Section 3.1: cycle cancellation *without* the
// bicameral cost cap outputs cost C_OPT*(D+1)-1 (ratio ~ D+1), while the
// capped algorithm returns the optimum. One row per delay bound D.
#include <iostream>
#include <sstream>

#include "baselines/os_cycle_cancel.h"
#include "baselines/unsafe_cc.h"
#include "core/solver.h"
#include "graph/generators.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

std::vector<krsp::graph::Delay> parse_list(const std::string& csv) {
  std::vector<krsp::graph::Delay> values;
  std::istringstream is(csv);
  std::string token;
  while (std::getline(is, token, ',')) values.push_back(std::stoll(token));
  return values;
}

}  // namespace

constexpr const char* kUsage =
    "usage: bench_fig1 [--c_opt=5] [--d_values=2,4,8,16,32,64]\n";

int run(const krsp::util::Cli& cli) {
  using namespace krsp;
  const auto c_opt = cli.get_int("c_opt", 5);
  const auto d_values = parse_list(cli.get_string("d_values", "2,4,8,16,32,64"));
  cli.reject_unknown();

  std::cout << "F1: Figure-1 gadget — bicameral cap vs uncapped best-ratio "
               "cycle cancellation (C_OPT = "
            << c_opt << ")\n\n";

  util::Table table({"D", "C_OPT", "capped cost", "capped ratio",
                     "uncapped cost", "uncapped ratio", "OS-CC [18] cost",
                     "paper predicts"});
  for (const auto D : d_values) {
    const auto fig = gen::figure1_gadget(D, c_opt);
    core::Instance inst;
    inst.graph = fig.graph;
    inst.s = fig.s;
    inst.t = fig.t;
    inst.k = fig.k;
    inst.delay_bound = fig.delay_bound;

    // Exact-weights mode: delay strictly within D, as in the paper's
    // Lemma 3 (the scaled mode may legitimately trade delay <= (1+eps)D for
    // cost 0 on this gadget once D is large enough for scaling to engage).
    core::SolverOptions copt;
    copt.mode = core::SolverOptions::Mode::kExactWeights;
    const auto capped = core::KrspSolver(copt).solve(inst);
    const auto uncapped = baselines::unsafe_cycle_cancel(inst);
    // The prior-art comparator (zero-cost reverse edges, min cost-per-
    // delay-reduction cycles) falls into the same trap on this gadget.
    const auto os = baselines::os_cycle_cancel(inst);
    KRSP_CHECK(capped.has_paths() && uncapped.has_paths() && os.has_paths());

    std::ostringstream predicted;
    predicted << "C_OPT*(D+1)-1 = " << fig.bad_cost;
    table.row()
        .cell(D)
        .cell(fig.optimal_cost)
        .cell(capped.cost)
        .cell_fp(static_cast<double>(capped.cost) /
                     static_cast<double>(fig.optimal_cost),
                 2)
        .cell(uncapped.cost)
        .cell_fp(static_cast<double>(uncapped.cost) /
                     static_cast<double>(fig.optimal_cost),
                 2)
        .cell(os.cost)
        .cell(predicted.str());
  }
  table.print();
  std::cout << "\nExpected shape: capped ratio stays at 1 (<= 2 in general); "
               "uncapped ratio grows linearly in D.\n";
  return 0;
}

int main(int argc, char** argv) {
  return krsp::util::run_main(argc, argv, kUsage, run);
}
