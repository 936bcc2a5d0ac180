#include "core/solver.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "core/scaling.h"
#include "core/workspace.h"
#include "util/timer.h"

namespace krsp::core {

namespace {

graph::Cost ceil_of(const util::Rational& r) {
  KRSP_CHECK(r >= util::Rational(0));
  return (r.num() + r.den() - 1) / r.den();
}

Solution from_phase1(const Phase1Result& p1) {
  Solution s;
  s.telemetry.phase1_mcmf_calls = p1.mcmf_calls;
  s.telemetry.lambda = p1.lambda;
  s.telemetry.cost_lower_bound = p1.cost_lower_bound;
  s.telemetry.deadline_expired = p1.deadline_hit;
  switch (p1.status) {
    case Phase1Status::kNoKDisjointPaths:
      s.status = SolveStatus::kNoKDisjointPaths;
      return s;
    case Phase1Status::kInfeasible:
      s.status = SolveStatus::kInfeasible;
      return s;
    case Phase1Status::kOptimal:
      s.status = SolveStatus::kOptimal;
      s.telemetry.phase1_was_optimal = true;
      break;
    case Phase1Status::kApprox:
      s.status = SolveStatus::kApprox;
      break;
  }
  s.paths = p1.paths;
  s.cost = p1.cost;
  s.delay = p1.delay;
  return s;
}

/// Phase 1 gets `fraction` of the remaining budget (exact feasibility
/// answers are cheap; the guess loops are where time goes).
util::Deadline stage_deadline(const util::Deadline& total, double fraction) {
  if (!total.bounded()) return total;
  const double remaining = std::max(0.0, total.remaining_seconds());
  return total.clipped_after_seconds(remaining * fraction);
}

/// The cost-guess search Lemma 3 (exact) and Theorem 4 (scaled) share:
/// phase 1, then — when its answer misses D — `run(p1, guess,
/// deadline_cut)` for each guessed cap Ĉ, then F_hi or the cheaper of the
/// best run and F_hi. `run` returns the successful run's paths in original
/// weights, or nullopt; a deadline cut after a success reports
/// `partial_step`.
template <typename Run>
Solution guess_search(const Instance& inst, const SolverOptions& options,
                      const util::Deadline& deadline, SolveWorkspace* ws,
                      DegradationStep partial_step, Run&& run) {
  const auto p1 = phase1_lagrangian(
      inst, stage_deadline(deadline, options.phase1_deadline_fraction),
      ws != nullptr ? &ws->mcmf : nullptr);
  Solution s = from_phase1(p1);
  if (s.status != SolveStatus::kApprox) return s;  // optimal or no solution
  if (s.delay <= inst.delay_bound) return s;       // Lemma 5 already met D

  // Search the cap Ĉ over [max(1,⌈C_LP⌉), cost(F_hi)]. Success is monotone
  // above C_OPT; a minimal succeeding Ĉ† adjacent to a failure satisfies
  // Ĉ† <= C_OPT + 1, certifying cost <= 2·(C_OPT + 1).
  KRSP_CHECK(p1.feasible_alternative.has_value());
  const PathSet& f_hi = *p1.feasible_alternative;
  const graph::Cost c_hi = f_hi.total_cost(inst.graph);
  const graph::Cost lo0 =
      std::max<graph::Cost>(1, ceil_of(p1.cost_lower_bound));
  const graph::Cost hi0 = std::max(lo0, c_hi);

  std::optional<CycleCancelResult> best;
  graph::Cost best_guess = 0;
  bool deadline_cut = false;
  const auto attempt = [&](graph::Cost guess) -> bool {
    if (deadline.expired()) {
      // Abandon the search, serve the best anytime result below.
      deadline_cut = true;
      return false;
    }
    ++s.telemetry.guess_attempts;
    auto r = run(p1, guess, deadline_cut);
    if (!r) return false;
    if (!best || guess < best_guess) {
      best = std::move(r);
      best_guess = guess;
    }
    return true;
  };

  if (options.guess == SolverOptions::GuessStrategy::kBinarySearch) {
    graph::Cost lo = lo0, hi = hi0;
    if (attempt(hi)) {
      while (lo < hi && !deadline_cut) {
        const graph::Cost mid = lo + (hi - lo) / 2;
        if (attempt(mid))
          hi = mid;
        else
          lo = mid + 1;
      }
    }
  } else {
    graph::Cost guess = lo0;
    // Saturating doubling: guess * 2 would wrap for guesses past
    // INT64_MAX/2 (huge cost bounds), so jump straight to hi0 instead.
    while (!attempt(guess) && guess < hi0 && !deadline_cut)
      guess = guess > hi0 / 2 ? hi0 : std::max<graph::Cost>(guess * 2, 1);
  }

  if (deadline_cut) s.telemetry.deadline_expired = true;
  s.status = SolveStatus::kApprox;
  // Deadline expiry, or an internal limit tripping where theory guarantees
  // success at Ĉ = c_hi >= C_OPT, leaves no run: fall back to the certified
  // delay-feasible phase-1 alternative. Otherwise F_hi is itself a valid
  // answer; keep the cheaper of the two.
  if (best) {
    if (deadline_cut) s.telemetry.degradation = partial_step;
    s.telemetry.cost_guess_used = best_guess;
    s.telemetry.cancel = std::move(best->telemetry);
    if (best->cost <= c_hi) {
      s.paths = std::move(best->paths);
      s.cost = best->cost;
      s.delay = best->delay;
      return s;
    }
  } else if (deadline_cut) {
    s.telemetry.degradation = DegradationStep::kPhase1Feasible;
  }
  s.telemetry.used_feasible_fallback = true;
  s.paths = f_hi;
  s.cost = c_hi;
  s.delay = f_hi.total_delay(inst.graph);
  return s;
}

}  // namespace

const char* degradation_step_name(DegradationStep step) {
  switch (step) {
    case DegradationStep::kNone:
      return "none";
    case DegradationStep::kScaledResult:
      return "scaled-result";
    case DegradationStep::kExactPartial:
      return "exact-partial";
    case DegradationStep::kPhase1Feasible:
      return "phase1-feasible";
    case DegradationStep::kReducedK:
      return "reduced-k";
    case DegradationStep::kOutage:
      return "outage";
  }
  return "unknown";
}

Solution KrspSolver::solve(const Instance& inst) const {
  return solve(inst, util::Deadline::after_seconds(options_.deadline_seconds));
}

Solution KrspSolver::solve(const Instance& inst,
                           const util::Deadline& deadline) const {
  return solve(inst, deadline, nullptr);
}

Solution KrspSolver::solve(const Instance& inst, const util::Deadline& deadline,
                           SolveWorkspace* ws) const {
  inst.validate();
  if (ws != nullptr) ++ws->solves_started;
  // However the solve ends (a DpLimitError included), oversized DP tables
  // go back to the allocator instead of staying with the workspace.
  const auto release_excess = [ws] {
    if (ws != nullptr) ws->finder.release_excess();
  };
  const util::WallTimer timer;
  Solution s;
  try {
    switch (options_.mode) {
      case SolverOptions::Mode::kExactWeights:
        s = solve_exact_weights(inst, deadline, ws);
        break;
      case SolverOptions::Mode::kScaled:
        s = solve_scaled(inst, deadline, ws);
        break;
      case SolverOptions::Mode::kPhase1Only:
        s = solve_phase1_only(inst, deadline, ws);
        break;
    }
  } catch (...) {
    release_excess();
    throw;
  }
  release_excess();
  s.telemetry.wall_seconds = timer.seconds();
  return s;
}

Solution KrspSolver::solve_phase1_only(const Instance& inst,
                                       const util::Deadline& deadline,
                                       SolveWorkspace* ws) const {
  const auto p1 =
      phase1_lagrangian(inst, deadline, ws != nullptr ? &ws->mcmf : nullptr);
  Solution s = from_phase1(p1);
  if (s.status == SolveStatus::kApprox && s.delay > inst.delay_bound)
    s.status = SolveStatus::kApproxDelayOver;
  return s;
}

Solution KrspSolver::solve_exact_weights(const Instance& inst,
                                         const util::Deadline& deadline,
                                         SolveWorkspace* ws) const {
  CycleCancelOptions cancel_options = options_.cancel;
  cancel_options.deadline = deadline;
  // Every guess restarts cancellation from p1.paths, so every first round
  // scans the same residual graph: later guesses replay the anchor scans
  // earlier ones recorded instead of recomputing them.
  std::optional<AnchorScanMemo> memo;
  // A cut-short search still certifies cost <= cost(start) + Ĉ† for the
  // best cap that succeeded — just not minimality of Ĉ†.
  return guess_search(
      inst, options_, deadline, ws, DegradationStep::kExactPartial,
      [&](const Phase1Result& p1, graph::Cost guess,
          bool& deadline_cut) -> std::optional<CycleCancelResult> {
        if (!memo) memo.emplace();
        auto r = cancel_cycles(inst, p1.paths, guess, cancel_options,
                               ws != nullptr ? &ws->finder : nullptr, &*memo);
        if (r.status == CancelStatus::kDeadlineExpired) deadline_cut = true;
        if (r.status != CancelStatus::kSuccess) return std::nullopt;
        return r;
      });
}

Solution KrspSolver::solve_scaled(const Instance& inst,
                                  const util::Deadline& deadline,
                                  SolveWorkspace* ws) const {
  // Internal ε2/2 keeps the flooring loss within the advertised (2+ε2).
  const double eps1 = options_.eps1;
  const double eps2 = options_.eps2 / 2.0;
  const auto delay_limit = static_cast<graph::Delay>(
      std::floor((1.0 + options_.eps1) * static_cast<double>(inst.delay_bound)));

  KrspSolver inner_solver{[&] {
    SolverOptions o = options_;
    o.mode = SolverOptions::Mode::kExactWeights;
    return o;
  }()};

  // Phase 1 on the *original* weights settles feasibility questions exactly
  // and provides the Ĉ search range; each guess solves a scaled instance.
  return guess_search(
      inst, options_, deadline, ws, DegradationStep::kScaledResult,
      [&](const Phase1Result&, graph::Cost guess,
          bool& deadline_cut) -> std::optional<CycleCancelResult> {
        const auto scaled = scale_instance(inst, eps1, eps2, guess);
        // The inner solve shares the same absolute deadline, so a slow
        // guess cannot starve the attempts after it of their own expiry
        // check. It also shares the workspace: the scaled graph differs
        // per guess, but the workspace re-keys itself by topology, and
        // within one inner solve the LARAC iterations still hit the cache.
        Solution inner = inner_solver.solve(scaled.scaled, deadline, ws);
        if (inner.telemetry.deadline_expired) deadline_cut = true;
        if (!inner.has_paths()) return std::nullopt;
        // Edge ids are shared between the scaled and original graphs.
        CycleCancelResult mapped;
        mapped.cost = inner.paths.total_cost(inst.graph);
        mapped.delay = inner.paths.total_delay(inst.graph);
        if (mapped.delay > delay_limit) return std::nullopt;
        const auto threshold = static_cast<graph::Cost>(
            std::ceil((2.0 + options_.eps2) * static_cast<double>(guess)));
        if (mapped.cost > threshold) return std::nullopt;
        mapped.status = CancelStatus::kSuccess;
        mapped.paths = std::move(inner.paths);
        mapped.telemetry = std::move(inner.telemetry.cancel);
        return mapped;
      });
}

}  // namespace krsp::core
