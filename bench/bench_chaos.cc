// Experiment E11 — resilience under sustained seeded chaos.
//
// Across random Waxman instances: provision k = 3 disjoint restricted
// shortest paths, then drive the resilience controller through a seeded
// campaign of edge failures, SRLG failures, delay degradations, and
// recoveries. Every event is followed by a full invariant audit (edge
// disjointness, delay bound, no failed edge in use, cost bookkeeping) — a
// campaign that completes is a zero-violation campaign. Reports
// availability, the local-repair vs full-re-solve split, time-to-repair,
// anytime-degradation frequency, and the cost drift of the incrementally
// maintained paths against a fresh-solve optimum on the degraded network.
#include <iostream>

#include "core/solver.h"
#include "graph/generators.h"
#include "resilience/chaos.h"
#include "util/cli.h"
#include "util/stats.h"
#include "util/table.h"

constexpr const char* kUsage =
    "usage: bench_chaos [--trials=8] [--n=24] [--events=200] [--seed=7] "
    "[--deadline-ms=0] [--sim]\n";

int run(const krsp::util::Cli& cli) {
  using namespace krsp;
  const int trials = static_cast<int>(cli.get_int("trials", 8));
  const int n = static_cast<int>(cli.get_int("n", 24));
  const int events = static_cast<int>(cli.get_int("events", 200));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
  const double deadline_ms = cli.get_double("deadline-ms", 0.0);
  const bool replay_sim = cli.get_bool("sim", false);
  cli.reject_unknown();

  util::Rng rng(seed);
  core::SolverOptions solver_options;
  // Exact weights: the audit delay cap is D itself, so "delay <= D after
  // every event" is checked literally, not up to (1+eps1).
  solver_options.mode = core::SolverOptions::Mode::kExactWeights;
  solver_options.deadline_seconds = deadline_ms * 1e-3;

  util::Stats avail_full, avail_any, repair_mean_ms, repair_max_ms, drift;
  std::int64_t local_repairs = 0, full_resolves = 0, reduced_k = 0,
               outages = 0, degraded_events = 0, audits = 0,
               total_events = 0;
  util::Stats sim_delivery, sim_p95;

  int used = 0, attempts = 0;
  while (used < trials && attempts++ < trials * 30) {
    core::RandomInstanceOptions opt;
    opt.k = 3;
    opt.delay_slack = 0.3;
    const auto inst = core::make_random_instance(rng, opt, [&](util::Rng& r) {
      gen::WaxmanParams p;
      p.beta = 0.8;
      p.delay_scale = 25;
      return gen::waxman(r, n, p);
    });
    if (!inst) continue;

    resilience::ChaosOptions chaos;
    chaos.events = events;
    chaos.seed = seed + static_cast<std::uint64_t>(used) * 1000003ULL;
    chaos.replay_sim = replay_sim;
    const auto report =
        resilience::run_chaos_campaign(*inst, solver_options, chaos);
    const bool provisioned =
        report.provision_status == core::SolveStatus::kOptimal ||
        report.provision_status == core::SolveStatus::kApprox ||
        report.provision_status == core::SolveStatus::kApproxDelayOver;
    if (!provisioned) continue;
    ++used;

    avail_full.add(100.0 * report.availability_full);
    avail_any.add(100.0 * report.availability_any);
    if (report.repair_ms.count() > 0) {
      repair_mean_ms.add(report.repair_ms.mean());
      repair_max_ms.add(report.repair_ms.max());
    }
    if (report.cost_drift.count() > 0) drift.add(report.cost_drift.mean());
    local_repairs += report.stats.local_repairs;
    full_resolves += report.stats.full_resolves;
    reduced_k += report.stats.reduced_k_steps;
    outages += report.stats.outages_entered;
    degraded_events += report.degraded_events;
    audits += report.stats.audits;
    total_events += report.events;
    if (report.sim_delivery_rate >= 0) {
      sim_delivery.add(100.0 * report.sim_delivery_rate);
      sim_p95.add(report.sim_mean_p95_latency);
    }
  }

  std::cout << "E11: chaos campaigns over " << used << " Waxman instances "
            << "(n = " << n << ", k = 3, " << events << " events each, "
            << "deadline = ";
  if (deadline_ms > 0) {
    std::cout << deadline_ms << " ms";
  } else {
    std::cout << "off";
  }
  std::cout << ")\n"
            << "Every event audited; " << audits
            << " audits across " << total_events
            << " events, zero invariant violations (a violation aborts the "
               "campaign).\n\n";

  util::Table table(
      {"metric", "mean", "min", "max"});
  table.row()
      .cell("availability, full k (% of events)")
      .cell_fp(avail_full.mean(), 1)
      .cell_fp(avail_full.min(), 1)
      .cell_fp(avail_full.max(), 1);
  table.row()
      .cell("availability, >= 1 path (% of events)")
      .cell_fp(avail_any.mean(), 1)
      .cell_fp(avail_any.min(), 1)
      .cell_fp(avail_any.max(), 1);
  table.row()
      .cell("repair time per event (ms)")
      .cell_fp(repair_mean_ms.count() ? repair_mean_ms.mean() : 0.0, 3)
      .cell_fp(repair_mean_ms.count() ? repair_mean_ms.min() : 0.0, 3)
      .cell_fp(repair_max_ms.count() ? repair_max_ms.max() : 0.0, 3);
  table.row()
      .cell("cost drift vs fresh solve (ratio)")
      .cell_fp(drift.count() ? drift.mean() : 0.0, 3)
      .cell_fp(drift.count() ? drift.min() : 0.0, 3)
      .cell_fp(drift.count() ? drift.max() : 0.0, 3);
  table.print();

  std::cout << "\nRepair ladder totals: " << local_repairs
            << " local repairs, " << full_resolves << " full re-solves ("
            << (full_resolves > 0
                    ? static_cast<double>(local_repairs) /
                          static_cast<double>(full_resolves)
                    : 0.0)
            << " local:resolve), " << reduced_k << " reduced-k steps, "
            << outages << " outages entered, " << degraded_events
            << " events with an anytime degradation step.\n";
  if (sim_delivery.count() > 0) {
    std::cout << "Packet replay of surviving paths: "
              << sim_delivery.mean() << "% mean delivery, mean p95 latency "
              << sim_p95.mean() << " ticks.\n";
  }
  std::cout << "Expected shape: local repairs dominate full re-solves, full-k"
               " availability stays high under churn, and cost drift stays "
               "a small constant factor above the fresh-solve optimum.\n";
  return 0;
}

int main(int argc, char** argv) {
  return krsp::util::run_main(argc, argv, kUsage, run);
}
