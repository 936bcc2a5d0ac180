#include "core/phase1.h"

#include <limits>
#include <utility>

#include "flow/disjoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace krsp::core {

namespace {

using flow::DisjointPaths;
using util::Int128;
using util::Rational;

constexpr Int128 kInt64Max = std::numeric_limits<std::int64_t>::max();

struct Candidate {
  DisjointPaths flow;
  graph::Cost cost() const { return flow.total_cost; }
  graph::Delay delay() const { return flow.total_delay; }
};

// Resolved once: the registry lookup takes a mutex.
obs::Counter& mcmf_calls_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("krsp_phase1_mcmf_calls_total");
  return c;
}

}  // namespace

Phase1Result phase1_lagrangian(const Instance& inst,
                               const util::Deadline& deadline,
                               flow::McfWorkspace* ws) {
  KRSP_OBS_SPAN("phase1");
  inst.validate();
  Phase1Result out;

  // Σcost and Σdelay in 128 bits: a valid instance may overflow int64.
  Int128 cost_sum = 0;
  Int128 delay_sum = 0;
  for (const auto& e : inst.graph.edges()) {
    cost_sum += e.cost;
    delay_sum += e.delay;
  }
  // With arc weights w_cost·cost + w_delay·delay summing to W over all
  // edges, every label, reduced cost, potential and flow weight the MCMF
  // computes lies in [-2W, 2W] (Johnson potentials are residual distances
  // in [-W, W]), so 2W <= INT64_MAX makes a call exact. Checked before
  // every call, the first included; the weights come in as 128-bit values
  // so the check itself cannot overflow.
  const auto checked_weights = [&](Int128 w_cost, Int128 w_delay) {
    if (cost_sum > kInt64Max || delay_sum > kInt64Max ||
        w_cost * cost_sum + w_delay * delay_sum > kInt64Max / 2)
      throw WeightOverflowError(
          "phase 1: Lagrangian weights overflow 64-bit arithmetic "
          "(w_cost*total_cost + w_delay*total_delay must stay below 2^62)");
    return std::pair{static_cast<std::int64_t>(w_cost),
                     static_cast<std::int64_t>(w_delay)};
  };

  // Phase 1 solves many flows on one graph: bind its topology once.
  flow::McfWorkspace local;
  flow::McfWorkspace& mcf = ws != nullptr ? *ws : local;
  mcf.bind(inst.graph);
  const auto kflow = [&](Int128 w_cost,
                         Int128 w_delay) -> std::optional<Candidate> {
    const auto [wc, wd] = checked_weights(w_cost, w_delay);
    ++out.mcmf_calls;
    mcmf_calls_counter().inc();
    auto f = flow::min_weight_disjoint_paths(mcf, inst.graph, inst.s, inst.t,
                                             inst.k, wc, wd);
    if (!f) return std::nullopt;
    return Candidate{std::move(*f)};
  };

  // Min-cost flow, ignoring delay. Among min-cost flows prefer low delay
  // (lexicographic tie-break) so loose budgets are recognized as optimal.
  auto f_cost = kflow(delay_sum + 1, 1);
  if (!f_cost) {
    out.status = Phase1Status::kNoKDisjointPaths;
    return out;
  }
  if (f_cost->delay() <= inst.delay_bound) {
    out.status = Phase1Status::kOptimal;
    out.paths = PathSet(std::move(f_cost->flow.paths));
    out.cost = f_cost->cost();
    out.delay = f_cost->delay();
    out.cost_lower_bound = Rational(out.cost);
    out.lambda = Rational(0);
    out.feasible_alternative = out.paths;
    return out;
  }

  // Min-delay flow (cost as tie-break). Infeasible if even this misses D.
  auto f_delay = kflow(1, cost_sum + 1);
  KRSP_CHECK(f_delay.has_value());
  if (f_delay->delay() > inst.delay_bound) {
    out.status = Phase1Status::kInfeasible;
    return out;
  }

  // LARAC on λ: F_lo is the infeasible low-cost side, F_hi the feasible
  // higher-cost side. λ is the (exact, rational) slope between them.
  Candidate f_lo = std::move(*f_cost);
  Candidate f_hi = std::move(*f_delay);
  Rational lambda(0);
  constexpr int kMaxIterations = 500;
  for (int iter = 0;; ++iter) {
    KRSP_CHECK_MSG(iter < kMaxIterations, "LARAC failed to converge");
    if (deadline.expired()) {
      out.deadline_hit = true;
      break;
    }
    KRSP_CHECK(f_lo.delay() > f_hi.delay());
    lambda = Rational(f_hi.cost() - f_lo.cost(), f_lo.delay() - f_hi.delay());
    KRSP_CHECK(lambda >= Rational(0));
    const std::int64_t q = lambda.den();
    const std::int64_t p = lambda.num();
    auto f = kflow(q, p);
    KRSP_CHECK(f.has_value());
    const auto combined = [&](const Candidate& c) {
      return q * c.cost() + p * c.delay();
    };
    if (combined(*f) >= combined(f_lo)) break;  // λ* found (line supported)
    if (f->delay() > inst.delay_bound) {
      f_lo = std::move(*f);
    } else {
      f_hi = std::move(*f);
    }
  }

  // Dual value at λ*: the certified LP lower bound on C_OPT.
  const Rational lb = Rational(f_lo.cost()) +
                      lambda * Rational(f_lo.delay() - inst.delay_bound);
  KRSP_CHECK(lb >= Rational(0));

  // Select the candidate minimizing d/D + c/LB (Lemma 5 score). With D > 0
  // and LB > 0 compare exactly; degenerate cases fall back to the feasible
  // candidate, which is then provably optimal or trivially the right answer
  // (see header). Multiplying by D·LB > 0, F_lo scores lower iff
  //   (d_lo - d_hi)·LB.num + (c_lo - c_hi)·LB.den·D < 0.
  // Each term stays below 2^125 in 128 bits: D < Σd here, and the weight
  // check bounds Σc·Σd below 2^62. The two scores themselves, summed as
  // Rationals, can overflow int64 even after reduction.
  const Candidate* chosen = &f_hi;
  if (inst.delay_bound > 0 && !lb.is_zero()) {
    const Int128 lo_minus_hi =
        Int128{f_lo.delay() - f_hi.delay()} * lb.num() +
        Int128{f_lo.cost() - f_hi.cost()} * lb.den() * inst.delay_bound;
    if (lo_minus_hi < 0) chosen = &f_lo;
  }

  out.status = Phase1Status::kApprox;
  out.cost = chosen->cost();
  out.delay = chosen->delay();
  out.cost_lower_bound = lb;
  out.lambda = lambda;
  out.feasible_alternative = PathSet(f_hi.flow.paths);
  // Note: `chosen` may alias f_hi; copy before any move.
  out.paths = PathSet(chosen->flow.paths);
  return out;
}

}  // namespace krsp::core
