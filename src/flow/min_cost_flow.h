// Minimum-weight k-unit flows: the engine behind phase 1 (Lemma 5).
//
// Every graph edge is a unit-capacity arc of weight
// w_cost·cost + w_delay·delay. Min-cost k-flows under these Lagrangian
// weights are integral, so successive shortest paths with Johnson
// potentials compute them exactly in 64-bit integer arithmetic: k rounds
// of Dijkstra on reduced costs, each pushing one unit along a shortest
// residual s→t path. Weights must be non-negative.
//
// The network lives in CSR form inside an McfWorkspace: each vertex's arcs
// in edge-id order, forward and reverse interleaved (an edge's forward arc
// sits at its tail, its reverse arc at its head; a self-loop's forward arc
// comes first), plus one 0/1 flow byte per edge. A solve writes the
// weights in one sequential pass over the edges and reuses the dist,
// potential, parent and heap buffers, so repeat solves on one topology —
// the LARAC iteration, the batch engine's repeat solves — allocate nothing.
//
// Tie-break contract (which flow is returned among equal-weight ones):
// each Dijkstra pops vertices in (dist, vertex id) order, relaxes a
// vertex's arcs in the CSR order above, and updates a label only on a
// strict improvement. Within that contract a vertex that no flow touches
// scans only its forward arcs (none of its reverse arcs is residual; in
// the first round that is every vertex), and the last round stops as soon
// as t is popped (t's parent chain is final then, and the potentials it
// would have produced are never read). Tests pin the result against the
// general-capacity reference kept in tests/oracles.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "flow/radix_heap.h"
#include "graph/digraph.h"

namespace krsp::flow {

/// A minimum-weight k-unit flow: the edges carrying one unit each, in
/// edge-id order, and the total combined weight.
struct UnitFlowResult {
  std::vector<graph::EdgeId> edges;
  std::int64_t weight = 0;
};

/// Reusable network for min-weight unit flows. bind() fixes a topology;
/// solve() then runs on it under any weights and any (s, t, k). Safe to
/// bind a different graph at any time: the endpoints are compared exactly
/// and the CSR is rebuilt on any mismatch. Not thread-safe; intended as
/// per-thread state (core::SolveWorkspace).
class McfWorkspace {
 public:
  /// Binds the workspace to g's topology (vertex count and every edge's
  /// endpoints, compared exactly), rebuilding the CSR if they differ from
  /// the bound ones. O(m) either way.
  void bind(const graph::Digraph& g);

  /// Minimum-weight k edge-disjoint s→t flow on the bound topology under
  /// arc weights w_cost·cost(e) + w_delay·delay(e), or nullopt if fewer
  /// than k edge-disjoint paths exist. `g` must be the graph last bound
  /// (its weights are read here). With W the sum of all arc weights,
  /// 2W must fit in int64: every label, reduced cost and potential lies in
  /// [-2W, 2W]. Phase 1 checks this before each call.
  std::optional<UnitFlowResult> solve(const graph::Digraph& g,
                                      graph::VertexId s, graph::VertexId t,
                                      int k, std::int64_t w_cost,
                                      std::int64_t w_delay);

  /// Solves that ran on an already-built network (telemetry).
  [[nodiscard]] std::uint64_t reuse_hits() const { return reuse_hits_; }
  /// CSR builds (telemetry; also the krsp_mcmf_network_rebuilds_total
  /// counter).
  [[nodiscard]] std::uint64_t rebuilds() const { return rebuilds_; }

 private:
  struct Arc {
    graph::VertexId to;
    std::int32_t handle;  // 2·edge id, +1 for the reverse arc
  };
  // A vertex's Dijkstra label next to its Johnson potential: a relaxation
  // reads both, so they share a cache line.
  struct Label {
    std::int64_t dist;
    std::int64_t potential;
  };
  struct HeapItem {
    std::int64_t dist;
    graph::VertexId v;
    // The pop order of the contract: by dist, ties by vertex id.
    friend bool operator<(const HeapItem& a, const HeapItem& b) {
      return a.dist < b.dist || (a.dist == b.dist && a.v < b.v);
    }
  };

  struct PackedQueue;
  struct WideQueue;

  void rebuild(const graph::Digraph& g);
  /// Writes every arc's weight; returns their sum over the edges
  /// (saturating at UINT64_MAX).
  std::uint64_t write_weights(const graph::Digraph& g, std::int64_t w_cost,
                              std::int64_t w_delay);
  /// k rounds of shortest path + augmentation; false if some round cannot
  /// reach t. Adds the flow's weight to `weight`.
  template <class Queue>
  bool augment_k(Queue queue, graph::VertexId s, graph::VertexId t, int k,
                 std::int64_t& weight);
  /// One Dijkstra round on reduced costs; true iff t was reached.
  template <class Queue>
  bool shortest_path_round(Queue& queue, graph::VertexId s, graph::VertexId t,
                           bool last);

  int n_ = -1;
  // Bound topology: endpoints per edge, compared exactly by bind().
  std::vector<graph::VertexId> from_;
  std::vector<graph::VertexId> to_;
  // Full residual CSR (rows over first_) and its forward-only twin (rows
  // over fwd_first_), which is the residual row of any vertex no flow
  // touches.
  std::vector<int> first_;
  std::vector<Arc> arcs_;
  std::vector<int> fwd_first_;
  std::vector<Arc> fwd_arcs_;
  // Per edge: its weight under the current solve's multipliers (a forward
  // arc costs +weight, a reverse arc -weight) and its flow.
  std::vector<std::int64_t> weight_;
  std::vector<std::uint8_t> flow_;
  std::vector<int> flow_degree_;  // per vertex: incident edges with flow
  // Dijkstra scratch reused across solves.
  std::vector<Label> label_;
  std::vector<std::int32_t> parent_;  // arc handle into each vertex
  std::vector<graph::VertexId> reached_;
  RadixHeap radix_heap_;
  std::vector<HeapItem> wide_heap_;
  bool fresh_ = false;  // built by the last bind(), not yet solved on
  std::uint64_t reuse_hits_ = 0;
  std::uint64_t rebuilds_ = 0;
};

/// Minimum-weight k edge-disjoint flow on a Digraph: every edge gets
/// capacity 1 and weight w_cost·cost(e) + w_delay·delay(e). Returns the
/// used edge ids, or nullopt if fewer than k disjoint paths exist. `ws`
/// (optional) keeps the network across calls; without it each call builds
/// a fresh one. Results are identical either way.
std::optional<UnitFlowResult> min_weight_unit_flow(const graph::Digraph& g,
                                                   graph::VertexId s,
                                                   graph::VertexId t, int k,
                                                   std::int64_t w_cost,
                                                   std::int64_t w_delay,
                                                   McfWorkspace* ws);

inline std::optional<UnitFlowResult> min_weight_unit_flow(
    const graph::Digraph& g, graph::VertexId s, graph::VertexId t, int k,
    std::int64_t w_cost, std::int64_t w_delay) {
  return min_weight_unit_flow(g, s, t, k, w_cost, w_delay, nullptr);
}

}  // namespace krsp::flow
