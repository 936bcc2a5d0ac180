// Experiment E13 — the bicameral kernel against its pre-rewrite reference.
//
// Production BicameralCycleFinder::find (seed anchors only, SCC-compacted
// states, flat rolling tables, one workspace across rounds as the engine
// runs it) is timed against bicameral_find_reference from tests/oracles
// (every vertex anchored over the full n·(budget+1) state space, nested
// tables cleared per anchor, the same seed-only selection) on the residual
// graph and query of every round of Algorithm 1's cancellation loop on
// Erdős–Rényi instances. The replay applies production's cycle with
// ResidualGraph::apply_cycle and re-decomposes the flow with
// decompose_unit_flow, as cancel_cycles does. Every round's two cycles
// must be identical, and the replay must end on cancel_cycles' own paths,
// so the speedup cannot come from changed semantics.
//
// --smoke shrinks the suite for CI; scripts/check_bench.py compares the
// emitted JSON against the committed BENCH_kernel.json baseline and fails
// on regression. Gate metrics are ratios of two kernels timed on the same
// host and thread (speedup, pruned fraction, memory ratio); the JSON also
// records the host shape (nproc, build type) they were measured on.
#include <chrono>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "api/krsp.h"
#include "flow/decompose.h"
#include "flow/disjoint.h"
#include "harness.h"
#include "oracles/bicameral_reference.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace krsp;
using Clock = std::chrono::steady_clock;

struct Workload {
  core::Instance instance;
  core::PathSet start;        // min-cost k disjoint paths (delay-infeasible)
  graph::Cost guess = 0;      // cost of a delay-feasible alternative (>= C_OPT)
};

// Builds instances whose min-cost start violates the delay bound, so
// cancel_cycles has real work, with a cost guess that Lemma 11 guarantees
// succeeds (the min-delay path set is delay-feasible and costs `guess`).
std::vector<Workload> build_suite(int instances, int n, int k,
                                  std::uint64_t seed) {
  std::vector<Workload> suite;
  util::Rng rng(seed);
  int attempts = 0;
  while (static_cast<int>(suite.size()) < instances && attempts < 200) {
    ++attempts;
    core::RandomInstanceOptions io;
    io.k = k;
    io.delay_slack = 0.15;
    auto inst = core::random_er_instance(rng, n, 6.0 / n, io);
    if (!inst) continue;
    const auto start = flow::min_weight_disjoint_paths(
        inst->graph, inst->s, inst->t, inst->k, 1, 0);
    if (!start) continue;
    if (start->total_delay <= inst->delay_bound) continue;  // nothing to do
    const auto feasible = flow::min_weight_disjoint_paths(
        inst->graph, inst->s, inst->t, inst->k, 0, 1);
    if (!feasible) continue;
    Workload w;
    w.instance = std::move(*inst);
    w.start = core::PathSet(start->paths);
    w.guess = core::PathSet(feasible->paths).total_cost(w.instance.graph);
    suite.push_back(std::move(w));
  }
  return suite;
}

struct Replay {
  double pruned_ms = 0;    // production find, summed over rounds
  double ablation_ms = 0;  // reference find, summed over rounds
  int rounds = 0;
  bool identical = true;   // every round's two cycles equal
  core::BicameralStats pruned_stats;
  core::BicameralStats ablation_stats;
  core::PathSet paths;     // where the replay ends
};

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Algorithm 1's loop (cancel_cycles with default options), with both
// finders asked each round's query and production's cycle applied.
Replay replay(const Workload& w) {
  const core::Instance& inst = w.instance;
  const core::BicameralCycleFinder finder;
  core::BicameralWorkspace ws;
  std::optional<core::ResidualGraph> residual;
  Replay out;
  out.paths = w.start;
  graph::Cost cost = out.paths.total_cost(inst.graph);
  graph::Delay delay = out.paths.total_delay(inst.graph);
  while (delay > inst.delay_bound && cost < w.guess) {
    core::BicameralQuery query;
    query.cap = w.guess;
    query.ratio = util::Rational(inst.delay_bound - delay, w.guess - cost);
    if (!residual) {
      residual.emplace(inst.graph, out.paths.all_edges());
    } else {
      residual->rebuild(out.paths.all_edges());
    }
    const auto t0 = Clock::now();
    const auto cycle = finder.find(*residual, query, &out.pruned_stats, &ws);
    const auto t1 = Clock::now();
    const auto reference = core::bicameral_find_reference(
        *residual, query, {}, &out.ablation_stats);
    const auto t2 = Clock::now();
    out.pruned_ms += ms_between(t0, t1);
    out.ablation_ms += ms_between(t1, t2);
    out.identical = out.identical && core::same_found_cycle(cycle, reference);
    ++out.rounds;
    if (!cycle) break;
    const auto edges = residual->apply_cycle(cycle->edges);
    out.paths = core::PathSet(
        flow::decompose_unit_flow(inst.graph, edges, inst.s, inst.t, inst.k)
            .paths);
    cost = out.paths.total_cost(inst.graph);
    delay = out.paths.total_delay(inst.graph);
  }
  return out;
}

}  // namespace

constexpr const char* kUsage =
    "usage: bench_kernel [--n=256] [--instances=4] [--k=3] [--reps=3] "
    "[--seed=13] [--out=BENCH_kernel.json] [--smoke]\n";

int run(const krsp::util::Cli& cli) {
  const bool smoke = cli.get_bool("smoke", false);
  const int n = static_cast<int>(cli.get_int("n", smoke ? 64 : 256));
  const int instances =
      static_cast<int>(cli.get_int("instances", smoke ? 2 : 4));
  const int k = static_cast<int>(cli.get_int("k", 3));
  const int reps = static_cast<int>(cli.get_int("reps", smoke ? 2 : 3));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 13));
  const std::string out_path = cli.get_string("out", "");
  cli.reject_unknown();

  const auto suite = build_suite(instances, n, k, seed);
  if (static_cast<int>(suite.size()) < instances) {
    std::cerr << "FAIL: only " << suite.size() << "/" << instances
              << " delay-infeasible-start instances found\n";
    return 1;
  }
  std::cout << "E13: bicameral find vs the full-state-space reference on "
               "every cancellation round, "
            << suite.size() << " ER instance(s), n=" << n << ", k=" << k
            << ", best of " << reps << " rep(s)\n\n";

  util::Table table({"instance", "rounds", "pruned ms", "ablation ms",
                     "speedup", "identical"});
  double pruned_ms = 0, ablation_ms = 0;
  int rounds = 0;
  bool all_identical = true;
  core::BicameralStats pruned_stats_total;
  std::int64_t ablation_peak_bytes = 0;

  for (std::size_t i = 0; i < suite.size(); ++i) {
    const auto& w = suite[i];
    core::BicameralWorkspace ws;
    const auto result =
        core::cancel_cycles(w.instance, w.start, w.guess, {}, &ws);
    if (result.status != core::CancelStatus::kSuccess) {
      std::cerr << "FAIL: instance " << i
                << " did not cancel to feasibility (guess should certify "
                   "success)\n";
      return 1;
    }

    // Best of reps per kernel; every rep replays the same rounds.
    Replay best = replay(w);
    for (int rep = 1; rep < reps; ++rep) {
      const Replay again = replay(w);
      best.pruned_ms = std::min(best.pruned_ms, again.pruned_ms);
      best.ablation_ms = std::min(best.ablation_ms, again.ablation_ms);
      best.identical = best.identical && again.identical;
    }
    const bool same = best.identical && best.rounds ==
                                            result.telemetry.iterations &&
                      best.paths.paths() == result.paths.paths();
    all_identical = all_identical && same;

    pruned_ms += best.pruned_ms;
    ablation_ms += best.ablation_ms;
    rounds += best.rounds;
    const auto& fs = best.pruned_stats;
    pruned_stats_total.anchors_scanned += fs.anchors_scanned;
    pruned_stats_total.anchors_pruned += fs.anchors_pruned;
    pruned_stats_total.sccs_skipped += fs.sccs_skipped;
    pruned_stats_total.peak_dp_bytes =
        std::max(pruned_stats_total.peak_dp_bytes, fs.peak_dp_bytes);
    ablation_peak_bytes =
        std::max(ablation_peak_bytes, best.ablation_stats.peak_dp_bytes);

    table.row()
        .cell(static_cast<std::int64_t>(i))
        .cell(static_cast<std::int64_t>(best.rounds))
        .cell_fp(best.pruned_ms, 2)
        .cell_fp(best.ablation_ms, 2)
        .cell_fp(best.ablation_ms / best.pruned_ms, 2)
        .cell(same ? "yes" : "NO");
  }
  table.print();

  const double pruned_frac =
      static_cast<double>(pruned_stats_total.anchors_pruned) /
      static_cast<double>(pruned_stats_total.anchors_pruned +
                          pruned_stats_total.anchors_scanned);
  std::cout << "\ntotals: " << rounds << " rounds, pruned " << pruned_ms
            << " ms, ablation " << ablation_ms << " ms, speedup "
            << ablation_ms / pruned_ms << "x\n";
  std::cout << "anchors pruned: " << 100.0 * pruned_frac
            << "%, SCCs skipped: " << pruned_stats_total.sccs_skipped
            << ", peak DP bytes: " << pruned_stats_total.peak_dp_bytes
            << " (pruned) vs " << ablation_peak_bytes << " (ablation)\n";

  bench::GateReport report(
      "E13",
      server::wire::ObjectWriter()
          .field("n", std::int64_t{n})
          .field("instances", static_cast<std::int64_t>(suite.size()))
          .field("k", std::int64_t{k})
          .field("reps", std::int64_t{reps})
          .field("seed", seed)
          .field("smoke", smoke)
          .done(),
      all_identical);
  const auto peak = pruned_stats_total.peak_dp_bytes;
  report.section("rounds", rounds)
      .section("wall_ms", server::wire::ObjectWriter()
                              .field("pruned_serial", pruned_ms)
                              .field("ablation_serial", ablation_ms)
                              .done())
      .section("memory", server::wire::ObjectWriter()
                             .field("pruned_peak_dp_bytes", peak)
                             .field("ablation_peak_dp_bytes",
                                    ablation_peak_bytes)
                             .done())
      .section("telemetry",
               server::wire::ObjectWriter()
                   .field("sccs_skipped", pruned_stats_total.sccs_skipped)
                   .done())
      .gate("speedup_serial", ablation_ms / pruned_ms, 1.5)
      .gate("anchors_pruned_frac", pruned_frac, 0.5)
      .gate("dp_bytes_ratio",
            peak > 0 ? static_cast<double>(ablation_peak_bytes) /
                           static_cast<double>(peak)
                     : 0.0,
            1.0);
  if (!report.write(out_path)) return 1;

  if (!all_identical) {
    std::cerr << "FAIL: production and reference cycles diverged, or the "
                 "replay left cancel_cycles' path\n";
    return 1;
  }
  std::cout << "every round bit-identical\n";
  return 0;
}

int main(int argc, char** argv) {
  return krsp::util::run_main(argc, argv, kUsage, run);
}
