#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "core/repair.h"
#include "core/solver.h"
#include "graph/generators.h"
#include "resilience/audit.h"
#include "resilience/chaos.h"
#include "resilience/controller.h"
#include "util/check.h"
#include "util/rng.h"

namespace krsp::resilience {
namespace {

core::SolverOptions exact_options() {
  core::SolverOptions options;
  options.mode = core::SolverOptions::Mode::kExactWeights;
  return options;
}

// s=0, t=3; three parallel two-hop routes A (cheap), B (mid), C (pricey).
// Same fixture as core_repair_test so the scripted scenarios line up.
core::Instance triple_route() {
  core::Instance inst;
  inst.graph.resize(5);
  inst.graph.add_edge(0, 1, 1, 2);  // e0  A
  inst.graph.add_edge(1, 3, 1, 2);  // e1  A
  inst.graph.add_edge(0, 2, 2, 2);  // e2  B
  inst.graph.add_edge(2, 3, 2, 2);  // e3  B
  inst.graph.add_edge(0, 4, 5, 2);  // e4  C
  inst.graph.add_edge(4, 3, 5, 2);  // e5  C
  inst.s = 0;
  inst.t = 3;
  inst.k = 2;
  inst.delay_bound = 8;
  return inst;
}

// k=1, two routes: cheap-slow (violates D) and pricey-fast. The min-cost
// flow lands on the slow route, so phase 1 must iterate and cancellation
// must run — the pipeline a deadline can actually cut short.
core::Instance two_route_tension() {
  core::Instance inst;
  inst.graph.resize(4);
  inst.graph.add_edge(0, 1, 1, 5);  // cheap slow
  inst.graph.add_edge(1, 3, 1, 5);
  inst.graph.add_edge(0, 2, 6, 1);  // pricey fast
  inst.graph.add_edge(2, 3, 6, 1);
  inst.s = 0;
  inst.t = 3;
  inst.k = 1;
  inst.delay_bound = 5;
  return inst;
}

TEST(Deadline, UnboundedByDefault) {
  const util::Deadline d;
  EXPECT_FALSE(d.bounded());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining_seconds()));
  // <= 0 seconds also means unbounded (the SolverOptions convention).
  EXPECT_FALSE(util::Deadline::after_seconds(0.0).bounded());
  EXPECT_FALSE(util::Deadline::after_seconds(-1.0).bounded());
}

TEST(Deadline, ClippingTakesTheEarlier) {
  const auto generous = util::Deadline::after_seconds(3600.0);
  const auto clipped = generous.clipped_after_seconds(0.001);
  EXPECT_TRUE(clipped.bounded());
  EXPECT_LE(clipped.remaining_seconds(), generous.remaining_seconds());
  // Clipping an unbounded deadline bounds it.
  EXPECT_TRUE(util::Deadline().clipped_after_seconds(1.0).bounded());
}

TEST(Phase1, ExpiredDeadlineStillBracketsExactly) {
  const auto inst = two_route_tension();
  const auto full = core::phase1_lagrangian(inst);
  ASSERT_EQ(full.status, core::Phase1Status::kApprox);
  EXPECT_FALSE(full.deadline_hit);

  const auto cut = core::phase1_lagrangian(
      inst, util::Deadline::after_seconds(1e-9));
  // Feasibility classification is exact regardless of the budget.
  EXPECT_EQ(cut.status, core::Phase1Status::kApprox);
  EXPECT_TRUE(cut.deadline_hit);
  EXPECT_TRUE(cut.paths.is_valid(inst));
  // The certified bound from the last λ is valid, if looser.
  EXPECT_GE(full.cost_lower_bound, cut.cost_lower_bound);
  EXPECT_GT(cut.cost_lower_bound, util::Rational(0));
  // The delay-feasible bracket endpoint always exists on kApprox.
  ASSERT_TRUE(cut.feasible_alternative.has_value());
  EXPECT_LE(cut.feasible_alternative->total_delay(inst.graph),
            inst.delay_bound);
}

TEST(CycleCancel, ExpiredDeadlineReturnsValidAnytimePaths) {
  const auto inst = two_route_tension();
  const core::PathSet slow({{0, 1}});  // delay 10 > D: needs cancellation
  core::CycleCancelOptions options;
  options.deadline = util::Deadline::after_seconds(1e-9);
  const auto r = core::cancel_cycles(inst, slow, 100, options);
  EXPECT_EQ(r.status, core::CancelStatus::kDeadlineExpired);
  EXPECT_EQ(r.paths.size(), 1);
  std::string why;
  EXPECT_TRUE(r.paths.is_valid(inst, &why)) << why;
}

TEST(Solver, ExpiredDeadlineWalksTheLadderNeverHangs) {
  const auto inst = two_route_tension();
  for (const auto mode : {core::SolverOptions::Mode::kExactWeights,
                          core::SolverOptions::Mode::kScaled}) {
    core::SolverOptions options;
    options.mode = mode;
    const core::KrspSolver solver(options);

    const auto full = solver.solve(inst);
    ASSERT_TRUE(full.has_paths());
    EXPECT_EQ(full.telemetry.degradation, core::DegradationStep::kNone);
    EXPECT_FALSE(full.telemetry.deadline_expired);
    EXPECT_EQ(full.cost, 12);  // pricey fast route

    // An already-expired deadline stops the guess search before its first
    // guess, in either mode: the certified phase-1 alternative is served.
    const auto cut =
        solver.solve(inst, util::Deadline::after_seconds(1e-9));
    ASSERT_TRUE(cut.has_paths());
    EXPECT_TRUE(cut.telemetry.deadline_expired);
    EXPECT_EQ(cut.telemetry.degradation,
              core::DegradationStep::kPhase1Feasible);
    EXPECT_TRUE(cut.telemetry.used_feasible_fallback);
    EXPECT_EQ(cut.telemetry.guess_attempts, 0);
    // The anytime result is still structurally valid and delay-feasible.
    EXPECT_TRUE(cut.paths.is_valid(inst));
    EXPECT_LE(cut.delay, inst.delay_bound);
  }
}

TEST(Solver, DeadlineCutAfterAGuessReportsTheModesOwnStep) {
  // Deadlines swept across the guess search: wherever one lands, a cut
  // search that kept a successful guess reports its own mode's step, and
  // one that kept none serves F_hi. Which deadlines cut where is timing;
  // the mapping from outcome to step is not.
  util::Rng rng(41);
  core::RandomInstanceOptions io;
  io.k = 2;
  io.delay_slack = 0.1;
  for (int draw = 0; draw < 3; ++draw) {
    const auto inst = core::random_er_instance(rng, 24, 0.25, io);
    ASSERT_TRUE(inst.has_value());
    for (const auto& [mode, partial] :
         {std::pair{core::SolverOptions::Mode::kExactWeights,
                    core::DegradationStep::kExactPartial},
          std::pair{core::SolverOptions::Mode::kScaled,
                    core::DegradationStep::kScaledResult}}) {
      core::SolverOptions options;
      options.mode = mode;
      const core::KrspSolver solver(options);
      for (const double seconds : {1e-5, 1e-4, 3e-4, 1e-3, 3e-3}) {
        const auto r =
            solver.solve(*inst, util::Deadline::after_seconds(seconds));
        ASSERT_TRUE(r.has_paths());
        const auto step = r.telemetry.degradation;
        if (step == core::DegradationStep::kNone) continue;
        EXPECT_TRUE(r.telemetry.deadline_expired);
        if (r.telemetry.cost_guess_used > 0) {
          EXPECT_EQ(step, partial) << "deadline " << seconds << " s";
        } else {
          EXPECT_EQ(step, core::DegradationStep::kPhase1Feasible)
              << "deadline " << seconds << " s";
          EXPECT_TRUE(r.telemetry.used_feasible_fallback);
        }
        EXPECT_LE(r.delay, audited_delay_cap(*inst, options));
      }
    }
  }
}

TEST(Solver, ScaledModeRespectsSharedDeadline) {
  const auto inst = two_route_tension();
  core::SolverOptions options;  // default kScaled
  const core::KrspSolver solver(options);
  const auto cut =
      solver.solve(inst, util::Deadline::after_seconds(1e-9));
  EXPECT_TRUE(cut.telemetry.deadline_expired);
  if (cut.has_paths()) {
    EXPECT_TRUE(cut.paths.is_valid(inst));
    EXPECT_LE(cut.delay, audited_delay_cap(inst, options));
  }
}

TEST(Audit, DelayCapFollowsSolverMode) {
  const auto inst = triple_route();  // D = 8
  EXPECT_EQ(audited_delay_cap(inst, exact_options()), 8);
  core::SolverOptions scaled;
  scaled.mode = core::SolverOptions::Mode::kScaled;
  scaled.eps1 = 0.25;
  EXPECT_EQ(audited_delay_cap(inst, scaled), 10);  // floor(1.25 * 8)
  core::SolverOptions p1;
  p1.mode = core::SolverOptions::Mode::kPhase1Only;
  EXPECT_EQ(audited_delay_cap(inst, p1), 16);
}

TEST(Audit, ThrowsOnBookkeepingDrift) {
  const auto inst = triple_route();
  const core::PathSet served({{0, 1}, {2, 3}});  // A + B: cost 6, delay 8
  const std::unordered_set<graph::EdgeId> none;
  const auto report = audit_served_paths(inst, served, none, 8, 6, 8);
  EXPECT_EQ(report.paths_served, 2);
  EXPECT_EQ(report.cost, 6);
  EXPECT_THROW(audit_served_paths(inst, served, none, 8, 7, 8),
               util::CheckError);
  EXPECT_THROW(audit_served_paths(inst, served, none, 7, 6, 8),
               util::CheckError);  // over the cap
}

TEST(Audit, ThrowsWhenServedPathUsesFailedEdge) {
  const auto inst = triple_route();
  const core::PathSet served({{0, 1}, {2, 3}});
  const std::unordered_set<graph::EdgeId> failed = {3};  // B's second hop
  EXPECT_THROW(audit_served_paths(inst, served, failed, 8, 6, 8),
               util::CheckError);
}

TEST(Controller, ScriptedFailRecoverLadder) {
  ResilienceController c(triple_route(), exact_options());
  ASSERT_EQ(c.provision(), core::SolveStatus::kOptimal);
  EXPECT_EQ(c.level(), ServiceLevel::kFull);
  EXPECT_EQ(c.served_cost(), 6);  // A + B

  // A's first hop fails: local repair swaps A for C, k paths survive.
  NetworkEvent fail0;
  fail0.type = EventType::kEdgeFail;
  fail0.edge = 0;
  auto out = c.apply(fail0);
  ASSERT_TRUE(out.repair.has_value());
  EXPECT_EQ(*out.repair, core::RepairOutcome::kLocalRepair);
  EXPECT_EQ(out.level, ServiceLevel::kDegraded);
  EXPECT_EQ(out.paths_served, 2);
  EXPECT_EQ(c.served_cost(), 14);  // B + C

  // B's second hop fails too: only route C remains intact — the repair
  // ladder bottoms out at reduced-k service.
  NetworkEvent fail3;
  fail3.type = EventType::kEdgeFail;
  fail3.edge = 3;
  out = c.apply(fail3);
  ASSERT_TRUE(out.repair.has_value());
  EXPECT_EQ(*out.repair, core::RepairOutcome::kInfeasible);
  EXPECT_EQ(out.level, ServiceLevel::kReducedK);
  EXPECT_EQ(out.paths_served, 1);
  EXPECT_EQ(out.degradation, core::DegradationStep::kReducedK);
  EXPECT_EQ(c.served_cost(), 10);  // C alone

  // e0 recovers: mandatory climb-back re-provisions to full service.
  NetworkEvent rec0;
  rec0.type = EventType::kEdgeRecover;
  rec0.edge = 0;
  out = c.apply(rec0);
  EXPECT_TRUE(out.reoptimized);
  EXPECT_EQ(out.level, ServiceLevel::kFull);
  EXPECT_EQ(out.paths_served, 2);
  EXPECT_EQ(c.served_cost(), 12);  // A + C

  // e3 recovers: opportunistic re-optimization adopts the cheaper A + B.
  NetworkEvent rec3;
  rec3.type = EventType::kEdgeRecover;
  rec3.edge = 3;
  out = c.apply(rec3);
  EXPECT_TRUE(out.reoptimized);
  EXPECT_EQ(out.level, ServiceLevel::kFull);
  EXPECT_EQ(c.served_cost(), 6);

  const auto& stats = c.stats();
  EXPECT_EQ(stats.events, 4);
  EXPECT_EQ(stats.local_repairs, 1);
  EXPECT_EQ(stats.recoveries, 2);
  EXPECT_EQ(stats.reopt_adopted, 2);
  EXPECT_EQ(stats.audits, 5);  // provision + 4 events
}

TEST(Controller, SrlgFailureTakesOutBothServedRoutes) {
  ResilienceController c(triple_route(), exact_options());
  ASSERT_EQ(c.provision(), core::SolveStatus::kOptimal);

  // Both first hops of the served routes A and B die together: no two
  // disjoint routes remain, and both served paths are broken — outage.
  NetworkEvent srlg;
  srlg.type = EventType::kSrlgFail;
  srlg.group = {0, 2};
  const auto out = c.apply(srlg);
  EXPECT_EQ(out.level, ServiceLevel::kOutage);
  EXPECT_EQ(out.paths_served, 0);
  EXPECT_EQ(out.degradation, core::DegradationStep::kOutage);
  EXPECT_EQ(c.stats().edge_failures, 2);
  EXPECT_EQ(c.stats().outages_entered, 1);

  // One recovery is enough to climb back to full service (A + C).
  NetworkEvent rec;
  rec.type = EventType::kEdgeRecover;
  rec.edge = 0;
  const auto back = c.apply(rec);
  EXPECT_TRUE(back.reoptimized);
  EXPECT_EQ(back.level, ServiceLevel::kFull);
  EXPECT_EQ(c.served_cost(), 12);
}

TEST(Controller, DelayDegradationForcesReprovision) {
  ResilienceController c(triple_route(), exact_options());
  ASSERT_EQ(c.provision(), core::SolveStatus::kOptimal);
  EXPECT_EQ(c.served_delay(), 8);  // A + B, exactly at D

  // A's first hop degrades 2 -> 5: served delay 11 > 8, but B + C still
  // fits the bound, so the controller re-provisions around the slow link.
  NetworkEvent slow;
  slow.type = EventType::kDelayDegrade;
  slow.edge = 0;
  slow.new_delay = 5;
  const auto out = c.apply(slow);
  EXPECT_EQ(out.level, ServiceLevel::kFull);
  EXPECT_LE(c.served_delay(), 8);
  EXPECT_EQ(c.served_cost(), 14);  // B + C
  EXPECT_EQ(c.stats().delay_changes, 1);

  // The link recovers its nominal delay; re-optimization takes A + B back.
  NetworkEvent heal;
  heal.type = EventType::kEdgeRecover;
  heal.edge = 0;
  const auto back = c.apply(heal);
  EXPECT_TRUE(back.reoptimized);
  EXPECT_EQ(c.served_cost(), 6);
}

TEST(Chaos, CampaignCompletesWithZeroViolations) {
  util::Rng rng(99);
  core::RandomInstanceOptions opt;
  opt.k = 3;
  opt.delay_slack = 0.3;
  const auto inst = core::make_random_instance(rng, opt, [&](util::Rng& r) {
    gen::WaxmanParams p;
    p.beta = 0.8;
    p.delay_scale = 25;
    return gen::waxman(r, 16, p);
  });
  ASSERT_TRUE(inst.has_value());

  ChaosOptions chaos;
  chaos.events = 220;
  chaos.seed = 2026;
  // Every event audits the controller state; an invariant violation throws
  // CheckError, so reaching the assertions below IS the acceptance check.
  const auto report =
      run_chaos_campaign(*inst, exact_options(), chaos);
  EXPECT_GE(report.events, 200);
  EXPECT_EQ(report.stats.audits, report.events + 1);  // + provisioning
  EXPECT_EQ(report.stats.events, report.events);
  EXPECT_GT(report.availability_any, 0.0);
  EXPECT_GT(report.stats.edge_failures, 0);
  EXPECT_GT(report.stats.recoveries, 0);
  EXPECT_GT(report.stats.delay_changes, 0);
}

TEST(Chaos, SameSeedSameCampaign) {
  util::Rng rng(41);
  core::RandomInstanceOptions opt;
  opt.k = 2;
  opt.delay_slack = 0.4;
  const auto inst = core::make_random_instance(rng, opt, [&](util::Rng& r) {
    gen::WaxmanParams p;
    p.beta = 0.8;
    p.delay_scale = 25;
    return gen::waxman(r, 12, p);
  });
  ASSERT_TRUE(inst.has_value());

  ChaosOptions chaos;
  chaos.events = 80;
  chaos.seed = 7;
  const auto a = run_chaos_campaign(*inst, exact_options(), chaos);
  const auto b = run_chaos_campaign(*inst, exact_options(), chaos);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.availability_full, b.availability_full);
  EXPECT_EQ(a.availability_any, b.availability_any);
  EXPECT_EQ(a.stats.local_repairs, b.stats.local_repairs);
  EXPECT_EQ(a.stats.full_resolves, b.stats.full_resolves);
  EXPECT_EQ(a.stats.reduced_k_steps, b.stats.reduced_k_steps);
  EXPECT_EQ(a.stats.outages_entered, b.stats.outages_entered);
  EXPECT_EQ(a.stats.reopt_adopted, b.stats.reopt_adopted);
  EXPECT_EQ(a.degraded_events, b.degraded_events);
}

TEST(Chaos, SimReplayReportsDeliveredQos) {
  util::Rng rng(5);
  core::RandomInstanceOptions opt;
  opt.k = 2;
  opt.delay_slack = 0.5;
  const auto inst = core::make_random_instance(rng, opt, [&](util::Rng& r) {
    gen::WaxmanParams p;
    p.beta = 0.8;
    p.delay_scale = 25;
    return gen::waxman(r, 12, p);
  });
  ASSERT_TRUE(inst.has_value());

  ChaosOptions chaos;
  chaos.events = 40;
  chaos.seed = 3;
  chaos.replay_sim = true;
  chaos.sim_horizon = 5000;
  const auto report = run_chaos_campaign(*inst, exact_options(), chaos);
  // Replay only runs when paths survived the campaign's end; when it did,
  // the delivery rate is a sane fraction.
  if (report.sim_delivery_rate >= 0) {
    EXPECT_LE(report.sim_delivery_rate, 1.0);
    EXPECT_GT(report.sim_delivery_rate, 0.0);
  }
}

}  // namespace
}  // namespace krsp::resilience
