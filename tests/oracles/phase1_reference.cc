#include "oracles/phase1_reference.h"

#include <utility>

#include "flow/decompose.h"
#include "flow/disjoint.h"
#include "oracles/min_cost_flow.h"

namespace krsp::core {

namespace {

using util::Rational;

struct Candidate {
  flow::DisjointPaths flow;
  graph::Cost cost() const { return flow.total_cost; }
  graph::Delay delay() const { return flow.total_delay; }
};

std::optional<Candidate> reference_kflow(const Instance& inst,
                                         std::int64_t w_cost,
                                         std::int64_t w_delay) {
  const auto f = flow::reference_unit_flow(inst.graph, inst.s, inst.t, inst.k,
                                           w_cost, w_delay);
  if (!f) return std::nullopt;
  auto decomposition =
      flow::decompose_unit_flow(inst.graph, f->edges, inst.s, inst.t, inst.k);
  Candidate c;
  c.flow.paths = std::move(decomposition.paths);
  for (const auto& p : c.flow.paths) {
    c.flow.total_cost += graph::path_cost(inst.graph, p);
    c.flow.total_delay += graph::path_delay(inst.graph, p);
  }
  return c;
}

}  // namespace

Phase1Result phase1_lagrangian_reference(const Instance& inst) {
  inst.validate();
  Phase1Result out;
  const auto kflow = [&](std::int64_t w_cost, std::int64_t w_delay) {
    ++out.mcmf_calls;
    return reference_kflow(inst, w_cost, w_delay);
  };

  const graph::Cost cost_sum = inst.graph.total_cost();
  const graph::Delay delay_sum = inst.graph.total_delay();
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

  auto f_delay = kflow(1, cost_sum + 1);
  KRSP_CHECK(f_delay.has_value());
  if (f_delay->delay() > inst.delay_bound) {
    out.status = Phase1Status::kInfeasible;
    return out;
  }

  Candidate f_lo = std::move(*f_cost);
  Candidate f_hi = std::move(*f_delay);
  Rational lambda(0);
  constexpr int kMaxIterations = 500;
  for (int iter = 0;; ++iter) {
    KRSP_CHECK_MSG(iter < kMaxIterations, "LARAC failed to converge");
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
    if (combined(*f) >= combined(f_lo)) break;
    if (f->delay() > inst.delay_bound) {
      f_lo = std::move(*f);
    } else {
      f_hi = std::move(*f);
    }
  }

  const Rational lb = Rational(f_lo.cost()) +
                      lambda * Rational(f_lo.delay() - inst.delay_bound);
  KRSP_CHECK(lb >= Rational(0));

  const Candidate* chosen = &f_hi;
  if (inst.delay_bound > 0 && !lb.is_zero()) {
    const auto score = [&](const Candidate& c) {
      return Rational(c.delay(), inst.delay_bound) + Rational(c.cost()) / lb;
    };
    if (score(f_lo) < score(f_hi)) chosen = &f_lo;
  }

  out.status = Phase1Status::kApprox;
  out.cost = chosen->cost();
  out.delay = chosen->delay();
  out.cost_lower_bound = lb;
  out.lambda = lambda;
  out.feasible_alternative = PathSet(f_hi.flow.paths);
  out.paths = PathSet(chosen->flow.paths);
  return out;
}

bool same_phase1_result(const Phase1Result& a, const Phase1Result& b) {
  const auto same_paths = [](const PathSet& x, const PathSet& y) {
    return x.paths() == y.paths();
  };
  if (a.status != b.status || a.cost != b.cost || a.delay != b.delay ||
      a.cost_lower_bound != b.cost_lower_bound || a.lambda != b.lambda ||
      a.mcmf_calls != b.mcmf_calls || a.deadline_hit != b.deadline_hit ||
      !same_paths(a.paths, b.paths) ||
      a.feasible_alternative.has_value() != b.feasible_alternative.has_value())
    return false;
  return !a.feasible_alternative ||
         same_paths(*a.feasible_alternative, *b.feasible_alternative);
}

}  // namespace krsp::core
