#include "flow/disjoint.h"

#include "flow/decompose.h"
#include "obs/trace.h"

namespace krsp::flow {

namespace {

std::optional<DisjointPaths> solve_bound(McfWorkspace& bound,
                                         const graph::Digraph& g,
                                         graph::VertexId s, graph::VertexId t,
                                         int k, std::int64_t w_cost,
                                         std::int64_t w_delay) {
  KRSP_CHECK(w_cost >= 0 && w_delay >= 0);
  const auto flow = bound.solve(g, s, t, k, w_cost, w_delay);
  if (!flow) return std::nullopt;
  auto decomposition = decompose_unit_flow(g, flow->edges, s, t, k);
  // Cycles in a *minimum-weight* flow have zero weight (else the flow were
  // not optimal); drop them — with non-negative edge weights this never
  // increases cost or delay of the path system.
  DisjointPaths result;
  result.paths = std::move(decomposition.paths);
  for (const auto& p : result.paths) {
    result.total_cost += graph::path_cost(g, p);
    result.total_delay += graph::path_delay(g, p);
  }
  return result;
}

}  // namespace

std::optional<DisjointPaths> min_weight_disjoint_paths(
    const graph::Digraph& g, graph::VertexId s, graph::VertexId t, int k,
    std::int64_t w_cost, std::int64_t w_delay, McfWorkspace* ws) {
  KRSP_OBS_SPAN("mcmf");
  McfWorkspace local;
  McfWorkspace& mcf = ws != nullptr ? *ws : local;
  mcf.bind(g);
  return solve_bound(mcf, g, s, t, k, w_cost, w_delay);
}

std::optional<DisjointPaths> min_weight_disjoint_paths(
    McfWorkspace& bound, const graph::Digraph& g, graph::VertexId s,
    graph::VertexId t, int k, std::int64_t w_cost, std::int64_t w_delay) {
  KRSP_OBS_SPAN("mcmf");
  return solve_bound(bound, g, s, t, k, w_cost, w_delay);
}

}  // namespace krsp::flow
