// Identity test for anchor-scan replay across the cost-guess search: the
// production exact and scaled solvers (which hand one AnchorScanMemo to
// every cancellation run of a solve) must match, field for field, a
// test-side guess search that calls cancel_cycles with no memo — same
// paths, cost, delay, chosen guess, attempt count and the full
// CycleCancelTelemetry including every BicameralStats counter. Covers
// binary and doubling guess strategies on 200+ tight Erdős–Rényi draws (the
// shape where every draw cancels) and on the property-sweep families, with
// fresh and reused workspaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>

#include "core/cycle_cancel.h"
#include "core/phase1.h"
#include "core/scaling.h"
#include "core/solver.h"
#include "core/workspace.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace krsp::core {
namespace {

using Strategy = SolverOptions::GuessStrategy;

SolverOptions options_for(SolverOptions::Mode mode, Strategy strategy) {
  SolverOptions o;
  o.mode = mode;
  o.guess = strategy;
  return o;
}

bool needs_cancellation(const Instance& inst) {
  const auto p1 = phase1_lagrangian(inst);
  return p1.status == Phase1Status::kApprox && p1.delay > inst.delay_bound;
}

graph::Cost ceil_of(const util::Rational& r) {
  return (r.num() + r.den() - 1) / r.den();
}

/// Runs `run` over the guesses the solver's strategy visits in [lo0, hi0].
void guess_search(Strategy strategy, graph::Cost lo0, graph::Cost hi0,
                  const std::function<bool(graph::Cost)>& run) {
  if (strategy == Strategy::kBinarySearch) {
    graph::Cost lo = lo0, hi = hi0;
    if (!run(hi)) return;
    while (lo < hi) {
      const graph::Cost mid = lo + (hi - lo) / 2;
      if (run(mid))
        hi = mid;
      else
        lo = mid + 1;
    }
  } else {
    graph::Cost guess = lo0;
    while (!run(guess) && guess < hi0)
      guess = guess > hi0 / 2 ? hi0 : std::max<graph::Cost>(guess * 2, 1);
  }
}

/// The exact-weights solve with its guess search redone by calling
/// cancel_cycles without a memo. Phase-1 fields and the early returns
/// (no search needed) come from the production solve, which never reaches
/// cancel_cycles on those paths.
Solution reference_exact(const Instance& inst, Strategy strategy) {
  const SolverOptions o = options_for(SolverOptions::Mode::kExactWeights,
                                      strategy);
  Solution s = KrspSolver(o).solve(inst);
  const auto p1 = phase1_lagrangian(inst);
  if (p1.status != Phase1Status::kApprox || p1.delay <= inst.delay_bound)
    return s;

  const PathSet& f_hi = *p1.feasible_alternative;
  const graph::Cost c_hi = f_hi.total_cost(inst.graph);
  const graph::Cost lo0 =
      std::max<graph::Cost>(1, ceil_of(p1.cost_lower_bound));
  const graph::Cost hi0 = std::max(lo0, c_hi);

  s.telemetry.guess_attempts = 0;
  s.telemetry.cost_guess_used = 0;
  s.telemetry.used_feasible_fallback = false;
  s.telemetry.cancel = CycleCancelTelemetry{};
  std::optional<CycleCancelResult> best;
  graph::Cost best_guess = 0;
  guess_search(strategy, lo0, hi0, [&](graph::Cost guess) {
    ++s.telemetry.guess_attempts;
    auto r = cancel_cycles(inst, p1.paths, guess, o.cancel);
    if (r.status != CancelStatus::kSuccess) return false;
    if (!best || guess < best_guess) {
      best = std::move(r);
      best_guess = guess;
    }
    return true;
  });

  s.status = SolveStatus::kApprox;
  if (best) {
    s.telemetry.cost_guess_used = best_guess;
    s.telemetry.cancel = best->telemetry;
  }
  if (!best || c_hi < best->cost) {
    s.telemetry.used_feasible_fallback = true;
    s.paths = f_hi;
    s.cost = c_hi;
    s.delay = f_hi.total_delay(inst.graph);
  } else {
    s.paths = best->paths;
    s.cost = best->cost;
    s.delay = best->delay;
  }
  return s;
}

/// The scaled solve with every inner exact solve replaced by
/// reference_exact.
Solution reference_scaled(const Instance& inst, Strategy strategy) {
  const SolverOptions o = options_for(SolverOptions::Mode::kScaled, strategy);
  Solution s = KrspSolver(o).solve(inst);
  const auto p1 = phase1_lagrangian(inst);
  if (p1.status != Phase1Status::kApprox || p1.delay <= inst.delay_bound)
    return s;

  const PathSet& f_hi = *p1.feasible_alternative;
  const graph::Cost c_hi = f_hi.total_cost(inst.graph);
  const graph::Cost lo0 =
      std::max<graph::Cost>(1, ceil_of(p1.cost_lower_bound));
  const graph::Cost hi0 = std::max(lo0, c_hi);
  const auto delay_limit = static_cast<graph::Delay>(
      std::floor((1.0 + o.eps1) * static_cast<double>(inst.delay_bound)));

  s.telemetry.guess_attempts = 0;
  s.telemetry.cost_guess_used = 0;
  s.telemetry.used_feasible_fallback = false;
  s.telemetry.cancel = CycleCancelTelemetry{};
  std::optional<Solution> best;
  graph::Cost best_guess = 0;
  guess_search(strategy, lo0, hi0, [&](graph::Cost guess) {
    ++s.telemetry.guess_attempts;
    const auto scaled = scale_instance(inst, o.eps1, o.eps2 / 2.0, guess);
    Solution mapped = reference_exact(scaled.scaled, strategy);
    if (!mapped.has_paths()) return false;
    mapped.cost = mapped.paths.total_cost(inst.graph);
    mapped.delay = mapped.paths.total_delay(inst.graph);
    if (mapped.delay > delay_limit) return false;
    const auto threshold = static_cast<graph::Cost>(
        std::ceil((2.0 + o.eps2) * static_cast<double>(guess)));
    if (mapped.cost > threshold) return false;
    if (!best || guess < best_guess) {
      best = std::move(mapped);
      best_guess = guess;
    }
    return true;
  });

  s.status = SolveStatus::kApprox;
  if (best) {
    s.telemetry.cost_guess_used = best_guess;
    s.telemetry.cancel = best->telemetry.cancel;
  }
  if (!best || c_hi < best->cost) {
    s.telemetry.used_feasible_fallback = true;
    s.paths = f_hi;
    s.cost = c_hi;
    s.delay = f_hi.total_delay(inst.graph);
  } else {
    s.paths = best->paths;
    s.cost = best->cost;
    s.delay = best->delay;
  }
  return s;
}

void expect_same(const Solution& got, const Solution& want,
                 const std::string& context) {
  EXPECT_EQ(got.status, want.status) << context;
  EXPECT_EQ(got.paths.paths(), want.paths.paths()) << context;
  EXPECT_EQ(got.cost, want.cost) << context;
  EXPECT_EQ(got.delay, want.delay) << context;
  const SolveTelemetry& a = got.telemetry;
  const SolveTelemetry& b = want.telemetry;
  EXPECT_EQ(a.phase1_mcmf_calls, b.phase1_mcmf_calls) << context;
  EXPECT_EQ(a.cost_guess_used, b.cost_guess_used) << context;
  EXPECT_EQ(a.guess_attempts, b.guess_attempts) << context;
  EXPECT_EQ(a.used_feasible_fallback, b.used_feasible_fallback) << context;
  EXPECT_EQ(a.deadline_expired, b.deadline_expired) << context;
  const CycleCancelTelemetry& c = a.cancel;
  const CycleCancelTelemetry& d = b.cancel;
  EXPECT_EQ(c.iterations, d.iterations) << context;
  for (int t = 0; t < 3; ++t)
    EXPECT_EQ(c.type_counts[t], d.type_counts[t]) << context << " type " << t;
  EXPECT_EQ(c.ratio_trace, d.ratio_trace) << context;
  EXPECT_EQ(c.ratio_monotone, d.ratio_monotone) << context;
  const BicameralStats& f = c.finder_stats;
  const BicameralStats& g = d.finder_stats;
  EXPECT_EQ(f.anchors_scanned, g.anchors_scanned) << context;
  EXPECT_EQ(f.walks_examined, g.walks_examined) << context;
  EXPECT_EQ(f.cycles_classified, g.cycles_classified) << context;
  EXPECT_EQ(f.budgets_tried, g.budgets_tried) << context;
  EXPECT_EQ(f.anchors_pruned, g.anchors_pruned) << context;
  EXPECT_EQ(f.sccs_skipped, g.sccs_skipped) << context;
  EXPECT_EQ(f.peak_dp_bytes, g.peak_dp_bytes) << context;
}

/// `count` draws of perfbench's tight-cancel shape (ER n=32, p=0.15, k=2,
/// slack 0.15), kept only when phase 1 misses the delay bound.
std::vector<Instance> tight_draws(std::uint64_t seed, std::size_t count) {
  util::Rng rng(seed);
  RandomInstanceOptions opt;
  opt.k = 2;
  opt.delay_slack = 0.15;
  std::vector<Instance> out;
  while (out.size() < count) {
    auto inst = random_er_instance(rng, 32, 0.15, opt);
    if (inst && needs_cancellation(*inst)) out.push_back(std::move(*inst));
  }
  return out;
}

/// The generator families of property_sweeps_test, several seeds each.
std::vector<Instance> property_instances() {
  const std::vector<std::function<graph::Digraph(util::Rng&)>> families = {
      [](util::Rng& r) { return gen::erdos_renyi(r, 10, 0.25); },
      [](util::Rng& r) { return gen::erdos_renyi(r, 8, 0.5); },
      [](util::Rng& r) {
        gen::WaxmanParams p;
        p.beta = 0.9;
        p.delay_scale = 10;
        return gen::waxman(r, 9, p);
      },
      [](util::Rng& r) { return gen::grid(r, 3, 3); },
      [](util::Rng& r) { return gen::layered_dag(r, 3, 3, 0.5, 2); },
      [](util::Rng& r) { return gen::barabasi_albert(r, 10, 2); },
  };
  std::vector<Instance> out;
  for (std::size_t f = 0; f < families.size(); ++f) {
    util::Rng rng(467 + f);
    for (int trial = 0; trial < 12; ++trial) {
      RandomInstanceOptions opt;
      opt.k = 2;
      opt.delay_slack = trial % 2 == 0 ? 0.1 : 0.4;
      auto inst = make_random_instance(rng, opt, families[f]);
      if (inst) out.push_back(std::move(*inst));
    }
  }
  return out;
}

std::uint64_t replay_count() {
  return obs::Registry::global()
      .counter("krsp_bicameral_anchor_scans_total", "source=\"replay\"")
      .value();
}

void check_exact(const std::vector<Instance>& pool, Strategy strategy,
                 const char* name) {
  const KrspSolver solver(
      options_for(SolverOptions::Mode::kExactWeights, strategy));
  SolveWorkspace reused;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const std::string context = std::string(name) + " #" + std::to_string(i);
    const Solution want = reference_exact(pool[i], strategy);
    expect_same(solver.solve(pool[i]), want, context + " fresh");
    expect_same(solver.solve(pool[i], {}, &reused), want, context + " reused");
  }
}

void check_scaled(const std::vector<Instance>& pool, Strategy strategy,
                  const char* name) {
  const KrspSolver solver(options_for(SolverOptions::Mode::kScaled, strategy));
  SolveWorkspace reused;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const std::string context = std::string(name) + " #" + std::to_string(i);
    const Solution want = reference_scaled(pool[i], strategy);
    expect_same(solver.solve(pool[i]), want, context + " fresh");
    expect_same(solver.solve(pool[i], {}, &reused), want, context + " reused");
  }
}

constexpr std::size_t kTightDraws = 200;
constexpr std::uint64_t kTightSeed = 1;

TEST(BicameralReplay, ExactBinaryMatchesMemolessSearchOnTightDraws) {
  const std::uint64_t replays_before = replay_count();
  check_exact(tight_draws(kTightSeed, kTightDraws), Strategy::kBinarySearch,
              "tight exact binary");
  // The memo was exercised, not bypassed.
  EXPECT_GT(replay_count(), replays_before);
}

TEST(BicameralReplay, ExactDoublingMatchesMemolessSearchOnTightDraws) {
  check_exact(tight_draws(kTightSeed, kTightDraws), Strategy::kDoubling,
              "tight exact doubling");
}

// Scaled solves nest one exact guess search per outer guess, so they run on
// a smaller slice of the same draws.
TEST(BicameralReplay, ScaledBinaryMatchesMemolessSearchOnTightDraws) {
  check_scaled(tight_draws(kTightSeed, 24), Strategy::kBinarySearch,
               "tight scaled binary");
}

TEST(BicameralReplay, ScaledDoublingMatchesMemolessSearchOnTightDraws) {
  check_scaled(tight_draws(kTightSeed, 24), Strategy::kDoubling,
               "tight scaled doubling");
}

TEST(BicameralReplay, MatchesMemolessSearchOnPropertyFamilies) {
  const auto pool = property_instances();
  ASSERT_GE(pool.size(), 40u);
  for (const Strategy strategy :
       {Strategy::kBinarySearch, Strategy::kDoubling}) {
    check_exact(pool, strategy, "property exact");
    check_scaled(pool, strategy, "property scaled");
  }
}

// cancel_cycles itself: runs that share one memo across a guess sequence
// equal memoless runs, and a memo bound to another start drops its entries
// instead of replaying them.
TEST(BicameralReplay, CancelRunsSharingOneMemoMatchMemolessRuns) {
  const auto pool = tight_draws(kTightSeed + 1, 20);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const Instance& inst = pool[i];
    const auto p1 = phase1_lagrangian(inst);
    const graph::Cost hi = p1.feasible_alternative->total_cost(inst.graph);
    AnchorScanMemo memo;
    BicameralWorkspace ws;
    for (graph::Cost guess : {hi, hi / 2, hi / 4 + 1, hi, hi / 3}) {
      const auto with = cancel_cycles(inst, p1.paths, guess, {}, &ws, &memo);
      const auto without = cancel_cycles(inst, p1.paths, guess);
      const std::string context =
          "draw " + std::to_string(i) + " guess " + std::to_string(guess);
      EXPECT_EQ(with.status, without.status) << context;
      EXPECT_EQ(with.paths.paths(), without.paths.paths()) << context;
      const auto& a = with.telemetry.finder_stats;
      const auto& b = without.telemetry.finder_stats;
      EXPECT_EQ(a.anchors_scanned, b.anchors_scanned) << context;
      EXPECT_EQ(a.walks_examined, b.walks_examined) << context;
      EXPECT_EQ(a.cycles_classified, b.cycles_classified) << context;
      EXPECT_EQ(a.peak_dp_bytes, b.peak_dp_bytes) << context;
      EXPECT_LE(memo.stored_bytes(), AnchorScanMemo::kMaxBytes) << context;
    }
    EXPECT_GT(memo.stored_bytes(), 0) << "draw " << i;
    // A different start edge set invalidates every entry.
    memo.bind(inst.graph, p1.feasible_alternative->all_edges());
    EXPECT_EQ(memo.stored_bytes(), 0) << "draw " << i;
  }
}

}  // namespace
}  // namespace krsp::core
