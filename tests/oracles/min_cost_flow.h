// Test oracle: general-capacity minimum-cost flow via successive shortest
// paths with Johnson potentials.
//
// This was the production engine behind phase 1 before the unit-capacity
// CSR engine (flow/min_cost_flow.h) replaced it. It stays here as the
// reference the new engine must match bit for bit: the same arc order
// (edge-id order, each arc's reverse appended at its head), the same
// (dist, vertex) pop order and the same strict-improvement relaxation, so
// the two pick the same flow among equal-weight ones. Arc costs must be
// non-negative.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "flow/min_cost_flow.h"
#include "graph/digraph.h"

namespace krsp::flow {

class MinCostFlow {
 public:
  explicit MinCostFlow(int num_vertices);

  /// Adds an arc; returns a handle for flow_on(). cost must be >= 0.
  int add_arc(graph::VertexId from, graph::VertexId to, std::int64_t capacity,
              std::int64_t cost);

  /// Sends exactly `amount` units s→t at minimum cost. Returns the total
  /// cost, or nullopt if the max flow is smaller than `amount`.
  /// Call reset_flow() before solving the same network again.
  std::optional<std::int64_t> solve(graph::VertexId s, graph::VertexId t,
                                    std::int64_t amount);

  /// Restores every arc to its original capacity (drains all flow), making
  /// the instance solvable again without rebuilding the arc structure.
  void reset_flow();

  /// Re-prices arc `arc` (a handle from add_arc). cost must be >= 0.
  /// Call only on a drained network (construction time or after
  /// reset_flow()) so residual reverse arcs never carry stale prices.
  void set_arc_cost(int arc, std::int64_t cost);

  [[nodiscard]] std::int64_t flow_on(int arc) const;

  [[nodiscard]] int num_vertices() const {
    return static_cast<int>(arcs_.size());
  }

 private:
  struct InternalArc {
    graph::VertexId to;
    std::int64_t cap;
    std::int64_t cost;
    int rev;
  };

  std::vector<std::vector<InternalArc>> arcs_;
  std::vector<std::pair<graph::VertexId, int>> handles_;
  std::vector<std::int64_t> original_cap_;
  // Dijkstra scratch reused across solve() calls.
  std::vector<std::int64_t> potential_;
  std::vector<std::int64_t> dist_;
  std::vector<std::pair<graph::VertexId, int>> parent_;
};

/// The previous min_weight_unit_flow: one fresh MinCostFlow per call, every
/// edge a unit-capacity arc of weight w_cost·cost + w_delay·delay.
std::optional<UnitFlowResult> reference_unit_flow(const graph::Digraph& g,
                                                  graph::VertexId s,
                                                  graph::VertexId t, int k,
                                                  std::int64_t w_cost,
                                                  std::int64_t w_delay);

}  // namespace krsp::flow
