#include "flow/min_cost_flow.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "flow/radix_heap.h"
#include "obs/metrics.h"

namespace krsp::flow {

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();

// Resolved once: the registry lookup takes a mutex.
obs::Counter& network_rebuilds_counter() {
  static obs::Counter& c =
      obs::Registry::global().counter("krsp_mcmf_network_rebuilds_total");
  return c;
}

}  // namespace

void McfWorkspace::bind(const graph::Digraph& g) {
  const auto edges = g.edges();
  bool same = n_ == g.num_vertices() && from_.size() == edges.size();
  for (std::size_t e = 0; same && e < edges.size(); ++e)
    same = from_[e] == edges[e].from && to_[e] == edges[e].to;
  if (same) return;
  rebuild(g);
}

void McfWorkspace::rebuild(const graph::Digraph& g) {
  const int n = g.num_vertices();
  const int m = g.num_edges();
  KRSP_CHECK_MSG(m <= std::numeric_limits<std::int32_t>::max() / 2,
                 "min-cost flow: too many edges");
  n_ = n;
  from_.resize(m);
  to_.resize(m);
  first_.assign(n + 1, 0);
  fwd_first_.assign(n + 1, 0);
  for (graph::EdgeId e = 0; e < m; ++e) {
    const auto& edge = g.edge(e);
    from_[e] = edge.from;
    to_[e] = edge.to;
    ++first_[edge.from + 1];
    ++first_[edge.to + 1];
    ++fwd_first_[edge.from + 1];
  }
  for (int v = 0; v < n; ++v) {
    first_[v + 1] += first_[v];
    fwd_first_[v + 1] += fwd_first_[v];
  }
  // Filling rows in edge-id order puts each vertex's forward and reverse
  // arcs in edge-id order, a self-loop's forward arc before its reverse.
  arcs_.resize(2 * static_cast<std::size_t>(m));
  fwd_arcs_.resize(m);
  weight_.resize(m);
  std::vector<int> at(first_.begin(), first_.end() - 1);
  std::vector<int> fwd_at(fwd_first_.begin(), fwd_first_.end() - 1);
  for (graph::EdgeId e = 0; e < m; ++e) {
    arcs_[at[from_[e]]++] = Arc{to_[e], 2 * e};
    arcs_[at[to_[e]]++] = Arc{from_[e], 2 * e + 1};
    fwd_arcs_[fwd_at[from_[e]]++] = Arc{to_[e], 2 * e};
  }
  flow_.assign(m, 0);
  flow_degree_.assign(n, 0);
  label_.assign(n, Label{kInf, 0});
  parent_.assign(n, -1);
  reached_.clear();
  reached_.reserve(n);
  fresh_ = true;
  ++rebuilds_;
  network_rebuilds_counter().inc();
}

std::uint64_t McfWorkspace::write_weights(const graph::Digraph& g,
                                          std::int64_t w_cost,
                                          std::int64_t w_delay) {
  const auto edges = g.edges();
  std::uint64_t total = 0;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    const std::int64_t w = w_cost * edges[e].cost + w_delay * edges[e].delay;
    KRSP_CHECK_MSG(w >= 0, "min-cost flow requires non-negative weights");
    weight_[e] = w;
    if (__builtin_add_overflow(total, static_cast<std::uint64_t>(w), &total))
      total = std::numeric_limits<std::uint64_t>::max();
  }
  return total;
}

// (dist, vertex) packed into one word, dist above the vertex bits, in a
// radix heap: integer order on the word is the contract's pop order. Used
// whenever every label fits above the vertex bits.
struct McfWorkspace::PackedQueue {
  RadixHeap& heap;
  int shift;

  void clear() { heap.clear(); }
  [[nodiscard]] bool empty() const { return heap.empty(); }
  void push(std::int64_t dist, graph::VertexId v) {
    const auto bits = static_cast<std::uint64_t>(dist);
    KRSP_DCHECK(dist >= 0 && (bits >> (64 - shift)) == 0);
    heap.push(bits << shift | static_cast<std::uint64_t>(v));
  }
  HeapItem pop() {
    const std::uint64_t key = heap.pop();
    const std::uint64_t vertex_mask = (std::uint64_t{1} << shift) - 1;
    return {static_cast<std::int64_t>(key >> shift),
            static_cast<graph::VertexId>(key & vertex_mask)};
  }
};

// The general fallback: (dist, vertex) pairs in a binary heap.
struct McfWorkspace::WideQueue {
  std::vector<HeapItem>& heap;

  static bool after(const HeapItem& a, const HeapItem& b) { return b < a; }
  void clear() { heap.clear(); }
  [[nodiscard]] bool empty() const { return heap.empty(); }
  void push(std::int64_t dist, graph::VertexId v) {
    heap.push_back({dist, v});
    std::push_heap(heap.begin(), heap.end(), after);
  }
  HeapItem pop() {
    std::pop_heap(heap.begin(), heap.end(), after);
    const HeapItem top = heap.back();
    heap.pop_back();
    return top;
  }
};

template <class Queue>
bool McfWorkspace::shortest_path_round(Queue& queue, graph::VertexId s,
                                       graph::VertexId t, bool last) {
  Label* label = label_.data();
  for (const graph::VertexId v : reached_) label[v].dist = kInf;
  reached_.clear();
  queue.clear();
  label[s].dist = 0;
  reached_.push_back(s);
  queue.push(0, s);
  const std::int64_t* weight = weight_.data();
  while (!queue.empty()) {
    const auto [d, v] = queue.pop();
    if (d != label[v].dist) continue;  // stale entry
    if (last && v == t) break;
    const std::int64_t pv = label[v].potential;
    const auto relax = [&](const Arc& arc, std::int64_t cost) {
      Label& to = label[arc.to];
      const std::int64_t reduced = cost + pv - to.potential;
      KRSP_DCHECK(reduced >= 0);
      if (d + reduced < to.dist) {
        if (to.dist == kInf) reached_.push_back(arc.to);
        to.dist = d + reduced;
        parent_[arc.to] = arc.handle;
        queue.push(d + reduced, arc.to);
      }
    };
    if (flow_degree_[v] == 0) {
      // No incident edge carries flow: every forward arc is residual and
      // no reverse arc is, so the forward-only row is the residual row.
      for (int a = fwd_first_[v]; a < fwd_first_[v + 1]; ++a)
        relax(fwd_arcs_[a], weight[fwd_arcs_[a].handle >> 1]);
    } else {
      for (int a = first_[v]; a < first_[v + 1]; ++a) {
        const Arc& arc = arcs_[a];
        const graph::EdgeId e = arc.handle >> 1;
        const bool reverse = (arc.handle & 1) != 0;
        // Residual iff a forward arc carries no flow or a reverse arc's
        // edge carries one.
        if (flow_[e] != static_cast<std::uint8_t>(reverse)) continue;
        relax(arc, reverse ? -weight[e] : weight[e]);
      }
    }
  }
  if (label[t].dist == kInf) return false;
  // Unreached vertices keep stale potentials; they stay unreachable for
  // augmenting paths because residual arcs into them from the reached
  // region would have been relaxed.
  if (!last)
    for (const graph::VertexId v : reached_)
      label[v].potential += label[v].dist;
  return true;
}

template <class Queue>
bool McfWorkspace::augment_k(Queue queue, graph::VertexId s, graph::VertexId t,
                             int k, std::int64_t& weight) {
  for (int round = 0; round < k; ++round) {
    if (!shortest_path_round(queue, s, t, round == k - 1))
      return false;  // fewer than k edge-disjoint paths
    for (graph::VertexId v = t; v != s;) {
      const std::int32_t handle = parent_[v];
      const graph::EdgeId e = handle >> 1;
      const bool reverse = (handle & 1) != 0;
      flow_[e] = reverse ? 0 : 1;
      weight += reverse ? -weight_[e] : weight_[e];
      const int delta = reverse ? -1 : 1;
      flow_degree_[from_[e]] += delta;
      flow_degree_[to_[e]] += delta;
      v = reverse ? to_[e] : from_[e];
    }
  }
  return true;
}

std::optional<UnitFlowResult> McfWorkspace::solve(const graph::Digraph& g,
                                                  graph::VertexId s,
                                                  graph::VertexId t, int k,
                                                  std::int64_t w_cost,
                                                  std::int64_t w_delay) {
  KRSP_CHECK_MSG(n_ == g.num_vertices() &&
                     from_.size() == static_cast<std::size_t>(g.num_edges()),
                 "min-cost flow: solve on a graph that is not bound");
  KRSP_CHECK(s >= 0 && s < n_ && t >= 0 && t < n_ && s != t);
  KRSP_CHECK(k >= 1);
  if (fresh_) {
    fresh_ = false;
  } else {
    ++reuse_hits_;
  }
  const std::uint64_t total_weight = write_weights(g, w_cost, w_delay);
  std::fill(flow_.begin(), flow_.end(), std::uint8_t{0});
  std::fill(flow_degree_.begin(), flow_degree_.end(), 0);
  for (Label& l : label_) l.potential = 0;

  // Every label lies in [0, W], W the total arc weight (a label is a
  // residual distance minus the previous round's, both sums of distinct
  // edges' weights), so when W fits above the vertex bits the packed keys
  // order exactly like (dist, vertex) pairs.
  const int shift = std::bit_width(static_cast<unsigned>(n_ - 1));
  const bool packed = total_weight < (std::uint64_t{1} << (64 - shift));
  UnitFlowResult result;
  const bool found =
      packed
          ? augment_k(PackedQueue{radix_heap_, shift}, s, t, k, result.weight)
          : augment_k(WideQueue{wide_heap_}, s, t, k, result.weight);
  if (!found) return std::nullopt;
  for (std::size_t e = 0; e < flow_.size(); ++e)
    if (flow_[e] != 0) result.edges.push_back(static_cast<graph::EdgeId>(e));
  return result;
}

std::optional<UnitFlowResult> min_weight_unit_flow(const graph::Digraph& g,
                                                   graph::VertexId s,
                                                   graph::VertexId t, int k,
                                                   std::int64_t w_cost,
                                                   std::int64_t w_delay,
                                                   McfWorkspace* ws) {
  McfWorkspace local;
  McfWorkspace& mcf = ws != nullptr ? *ws : local;
  mcf.bind(g);
  return mcf.solve(g, s, t, k, w_cost, w_delay);
}

}  // namespace krsp::flow
