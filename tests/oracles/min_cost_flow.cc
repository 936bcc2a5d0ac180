#include "oracles/min_cost_flow.h"

#include <algorithm>
#include <limits>
#include <queue>

namespace krsp::flow {

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();

}  // namespace

MinCostFlow::MinCostFlow(int num_vertices) : arcs_(num_vertices) {
  KRSP_CHECK(num_vertices >= 0);
}

int MinCostFlow::add_arc(graph::VertexId from, graph::VertexId to,
                         std::int64_t capacity, std::int64_t cost) {
  KRSP_CHECK(from >= 0 && from < num_vertices());
  KRSP_CHECK(to >= 0 && to < num_vertices());
  KRSP_CHECK(capacity >= 0);
  KRSP_CHECK_MSG(cost >= 0, "MinCostFlow requires non-negative arc costs");
  const int fwd = static_cast<int>(arcs_[from].size());
  const int bwd = static_cast<int>(arcs_[to].size()) + (from == to ? 1 : 0);
  arcs_[from].push_back(InternalArc{to, capacity, cost, bwd});
  arcs_[to].push_back(InternalArc{from, 0, -cost, fwd});
  handles_.emplace_back(from, fwd);
  original_cap_.push_back(capacity);
  return static_cast<int>(handles_.size()) - 1;
}

void MinCostFlow::reset_flow() {
  for (std::size_t a = 0; a < handles_.size(); ++a) {
    const auto& [from, idx] = handles_[a];
    InternalArc& fwd = arcs_[from][idx];
    fwd.cap = original_cap_[a];
    arcs_[fwd.to][fwd.rev].cap = 0;
  }
}

void MinCostFlow::set_arc_cost(int arc, std::int64_t cost) {
  KRSP_CHECK(arc >= 0 && arc < static_cast<int>(handles_.size()));
  KRSP_CHECK_MSG(cost >= 0, "MinCostFlow requires non-negative arc costs");
  const auto& [from, idx] = handles_[arc];
  InternalArc& fwd = arcs_[from][idx];
  KRSP_CHECK_MSG(fwd.cap == original_cap_[arc],
                 "set_arc_cost on an arc carrying flow");
  fwd.cost = cost;
  arcs_[fwd.to][fwd.rev].cost = -cost;
}

std::optional<std::int64_t> MinCostFlow::solve(graph::VertexId s,
                                               graph::VertexId t,
                                               std::int64_t amount) {
  KRSP_CHECK(s >= 0 && s < num_vertices() && t >= 0 && t < num_vertices());
  KRSP_CHECK(s != t && amount >= 0);
  const int n = num_vertices();
  potential_.assign(n, 0);
  dist_.resize(n);
  parent_.resize(n);
  auto& potential = potential_;
  auto& dist = dist_;
  auto& parent = parent_;
  std::int64_t remaining = amount;
  std::int64_t total_cost = 0;

  while (remaining > 0) {
    // Dijkstra on reduced costs.
    std::fill(dist.begin(), dist.end(), kInf);
    dist[s] = 0;
    using Item = std::pair<std::int64_t, graph::VertexId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    heap.emplace(0, s);
    while (!heap.empty()) {
      const auto [d, v] = heap.top();
      heap.pop();
      if (d != dist[v]) continue;
      for (int i = 0; i < static_cast<int>(arcs_[v].size()); ++i) {
        const InternalArc& a = arcs_[v][i];
        if (a.cap <= 0 || potential[a.to] == kInf) continue;
        if (potential[v] == kInf) continue;
        const std::int64_t reduced = a.cost + potential[v] - potential[a.to];
        KRSP_DCHECK(reduced >= 0);
        if (d + reduced < dist[a.to]) {
          dist[a.to] = d + reduced;
          parent[a.to] = {v, i};
          heap.emplace(dist[a.to], a.to);
        }
      }
    }
    if (dist[t] == kInf) return std::nullopt;  // maxflow < amount

    for (int v = 0; v < n; ++v)
      if (dist[v] != kInf && potential[v] != kInf) potential[v] += dist[v];
      // Unreached vertices keep stale potentials; they stay unreachable for
      // augmenting paths because residual arcs into them from the reached
      // region would have been relaxed.

    // Bottleneck along the shortest path.
    std::int64_t push = remaining;
    for (graph::VertexId v = t; v != s;) {
      const auto& [pv, pi] = parent[v];
      push = std::min(push, arcs_[pv][pi].cap);
      v = pv;
    }
    for (graph::VertexId v = t; v != s;) {
      auto& [pv, pi] = parent[v];
      InternalArc& a = arcs_[pv][pi];
      a.cap -= push;
      arcs_[a.to][a.rev].cap += push;
      total_cost += a.cost * push;
      v = pv;
    }
    remaining -= push;
  }
  return total_cost;
}

std::int64_t MinCostFlow::flow_on(int arc) const {
  KRSP_CHECK(arc >= 0 && arc < static_cast<int>(handles_.size()));
  const auto& [from, idx] = handles_[arc];
  return original_cap_[arc] - arcs_[from][idx].cap;
}

std::optional<UnitFlowResult> reference_unit_flow(const graph::Digraph& g,
                                                  graph::VertexId s,
                                                  graph::VertexId t, int k,
                                                  std::int64_t w_cost,
                                                  std::int64_t w_delay) {
  KRSP_CHECK(k >= 1);
  MinCostFlow mcf(g.num_vertices());
  std::vector<int> handle(g.num_edges());
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& edge = g.edge(e);
    handle[e] = mcf.add_arc(edge.from, edge.to, 1,
                            w_cost * edge.cost + w_delay * edge.delay);
  }
  const auto cost = mcf.solve(s, t, k);
  if (!cost) return std::nullopt;
  UnitFlowResult result;
  result.weight = *cost;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e)
    if (mcf.flow_on(handle[e]) > 0) result.edges.push_back(e);
  return result;
}

}  // namespace krsp::flow
