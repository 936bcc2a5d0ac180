#include "oracles/bicameral_reference.h"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "graph/algorithms.h"
#include "graph/csr.h"
#include "graph/cycles.h"
#include "util/check.h"

namespace krsp::core {

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();

// Type-0 wins outright, then the best ratio per type; the earliest
// candidate wins ties.
struct Tracker {
  std::optional<FoundCycle> type0;
  std::optional<FoundCycle> t1;
  util::Rational t1_ratio{0};
  std::optional<FoundCycle> t2;
  util::Rational t2_ratio{0};

  void consider(FoundCycle found) {
    if (found.type == CycleType::kType0) {
      if (!type0) type0 = std::move(found);
      return;
    }
    const util::Rational r(found.delay, found.cost);
    if (found.type == CycleType::kType1) {
      if (!t1 || r < t1_ratio) {
        t1_ratio = r;
        t1 = std::move(found);
      }
    } else if (!t2 || r > t2_ratio) {
      t2_ratio = r;
      t2 = std::move(found);
    }
  }

  void merge(Tracker&& other) {
    if (other.type0) consider(std::move(*other.type0));
    if (other.t1) consider(std::move(*other.t1));
    if (other.t2) consider(std::move(*other.t2));
  }
};

// Flattened (vertex, layer) product state over the full vertex set.
struct StateSpace {
  int n = 0;
  graph::Cost budget = 0;

  [[nodiscard]] int num_states() const {
    return static_cast<int>(n * (budget + 1));
  }
  [[nodiscard]] int state(graph::VertexId v, graph::Cost layer) const {
    return static_cast<int>(v * (budget + 1) + layer);
  }
};

// Nested tables, one row per round, cleared in full before every anchor.
struct Tables {
  std::vector<std::vector<std::int64_t>> dist;
  std::vector<std::vector<int>> parent_state;
  std::vector<std::vector<graph::EdgeId>> parent_edge;

  Tables(int rounds, int num_states)
      : dist(rounds + 1, std::vector<std::int64_t>(num_states, kInf)),
        parent_state(rounds + 1, std::vector<int>(num_states, -1)),
        parent_edge(rounds + 1, std::vector<graph::EdgeId>(
                                    num_states, graph::kInvalidEdge)) {}

  [[nodiscard]] std::int64_t bytes() const {
    return static_cast<std::int64_t>(dist.size()) *
           static_cast<std::int64_t>(dist[0].size()) *
           static_cast<std::int64_t>(sizeof(std::int64_t) + sizeof(int) +
                                     sizeof(graph::EdgeId));
  }
};

struct Scan {
  const ResidualGraph& residual;
  const graph::CsrView& csr;
  const StateSpace& ss;
  const BicameralQuery& query;
  Tables& tables;
  BicameralStats& stats;

  // One anchored layered Bellman–Ford over the full state space. Closed
  // walks back at the anchor that improve its layer's best delay and have
  // negative delay or cost are decomposed and classified after each round;
  // with the cost cap on, the scan stops at this anchor's first candidate.
  Tracker run(graph::VertexId anchor, graph::Cost start_layer, int rounds) {
    Tracker tracker;
    for (auto& row : tables.dist) std::fill(row.begin(), row.end(), kInf);
    stats.peak_dp_bytes = std::max(stats.peak_dp_bytes, tables.bytes());
    const int start = ss.state(anchor, start_layer);
    tables.dist[0][start] = 0;
    std::vector<std::int64_t> best_seen(ss.budget + 1, kInf);

    for (int j = 1; j <= rounds; ++j) {
      bool any = false;
      const auto& prev = tables.dist[j - 1];
      auto& cur = tables.dist[j];
      for (graph::VertexId u = 0; u < ss.n; ++u) {
        for (graph::Cost l = 0; l <= ss.budget; ++l) {
          const std::int64_t base = prev[ss.state(u, l)];
          if (base == kInf) continue;
          for (const auto& arc : csr.out(u)) {
            const graph::Cost l2 = l + arc.cost;
            if (l2 < 0 || l2 > ss.budget) continue;
            const int to = ss.state(arc.to, l2);
            if (base + arc.delay < cur[to]) {
              cur[to] = base + arc.delay;
              tables.parent_state[j][to] = ss.state(u, l);
              tables.parent_edge[j][to] = arc.id;
              any = true;
            }
          }
        }
      }
      if (!any) break;
      for (graph::Cost l = 0; l <= ss.budget; ++l) {
        const std::int64_t dj = cur[ss.state(anchor, l)];
        if (dj >= best_seen[l]) continue;
        best_seen[l] = dj;
        if (dj >= 0 && l >= start_layer) continue;
        harvest(anchor, j, l, start, tracker);
      }
      if (tracker.type0 || (query.enforce_cap && (tracker.t1 || tracker.t2)))
        break;
    }
    return tracker;
  }

  void harvest(graph::VertexId anchor, int j, graph::Cost l, int start,
               Tracker& tracker) {
    ++stats.walks_examined;
    std::vector<graph::EdgeId> walk;
    int state = ss.state(anchor, l);
    for (int step = j; step > 0; --step) {
      const graph::EdgeId e = tables.parent_edge[step][state];
      KRSP_CHECK(e != graph::kInvalidEdge);
      walk.push_back(e);
      state = tables.parent_state[step][state];
    }
    KRSP_CHECK(state == start);
    std::reverse(walk.begin(), walk.end());
    for (auto& cycle :
         graph::decompose_closed_walk(residual.digraph(), walk)) {
      ++stats.cycles_classified;
      const graph::Cost c = residual.cycle_cost(cycle);
      const graph::Delay d = residual.cycle_delay(cycle);
      const auto type = BicameralCycleFinder::classify(
          c, d, query.cap, query.ratio, query.enforce_cap);
      if (type) tracker.consider(FoundCycle{std::move(cycle), c, d, *type});
    }
  }
};

}  // namespace

std::optional<FoundCycle> bicameral_find_reference(
    const ResidualGraph& residual, const BicameralQuery& query,
    const BicameralCycleFinder::Options& options, BicameralStats* stats) {
  const graph::Digraph& rg = residual.digraph();
  const int n = rg.num_vertices();
  if (residual.negative_arcs().empty()) return std::nullopt;
  BicameralStats local_stats;
  BicameralStats& st = stats != nullptr ? *stats : local_stats;

  // Seeds per sign (0: heads, 1: tails of negative arcs) in SCCs with an
  // internal negative arc; the anchor order puts them first, ascending,
  // then every other vertex ascending.
  const graph::SccPartition scc = graph::scc_partition(rg);
  std::vector<char> comp_has_negative(scc.num_components, 0);
  for (const graph::EdgeId e : residual.negative_arcs()) {
    const auto& edge = rg.edge(e);
    if (scc.component[edge.from] == scc.component[edge.to])
      comp_has_negative[scc.component[edge.from]] = 1;
  }
  std::vector<graph::VertexId> order[2];
  int num_seeds[2];
  for (int sign = 0; sign < 2; ++sign) {
    std::vector<char> seed(n, 0);
    for (const graph::EdgeId e : residual.negative_arcs()) {
      const auto& edge = rg.edge(e);
      const graph::VertexId v = sign == 0 ? edge.to : edge.from;
      seed[v] = comp_has_negative[scc.component[v]];
    }
    for (graph::VertexId v = 0; v < n; ++v)
      if (seed[v]) order[sign].push_back(v);
    num_seeds[sign] = static_cast<int>(order[sign].size());
    for (graph::VertexId v = 0; v < n; ++v)
      if (!seed[v]) order[sign].push_back(v);
  }

  const int rounds_cap =
      options.max_rounds > 0 ? std::min(options.max_rounds, n) : n;
  // Capped: 2·cap (seed-rotation headroom); uncapped: Σ|c|; both clamped to
  // rounds_cap·max|c| and to the int64 range.
  const graph::Cost max_abs_cost = rg.max_abs_cost();
  util::Int128 bound = 0;
  if (query.enforce_cap) {
    bound = 2 * static_cast<util::Int128>(std::max<graph::Cost>(query.cap, 0));
  } else {
    for (const auto& e : rg.edges())
      bound += e.cost < 0 ? -static_cast<util::Int128>(e.cost) : e.cost;
  }
  bound = std::min(bound, static_cast<util::Int128>(rounds_cap) * max_abs_cost);
  bound = std::min(bound, static_cast<util::Int128>(
                              std::numeric_limits<graph::Cost>::max()));
  const auto budget_max = static_cast<graph::Cost>(bound);

  const graph::CsrView csr(rg);
  Tracker global;
  graph::Cost budget =
      std::min(std::max<graph::Cost>(options.initial_budget, 0), budget_max);
  while (true) {
    ++st.budgets_tried;
    const StateSpace ss{n, budget};
    KRSP_CHECK_MSG(static_cast<util::Int128>(n) *
                           (static_cast<util::Int128>(budget) + 1) <=
                       std::numeric_limits<std::int32_t>::max(),
                   "reference bicameral state space exceeds 2^31 states");
    Tables tables(rounds_cap, ss.num_states());
    Scan scan{residual, csr, ss, query, tables, st};
    for (int sign = 0; sign < (budget == 0 ? 1 : 2); ++sign) {
      const graph::Cost start_layer = sign == 0 ? 0 : budget;
      for (int i = 0; i < n; ++i) {
        const graph::VertexId anchor = order[sign][i];
        const int rounds = std::min(
            rounds_cap, scc.component_size(scc.component[anchor]));
        Tracker tracker = scan.run(anchor, start_layer, rounds);
        ++st.anchors_scanned;
        if (i < num_seeds[sign]) global.merge(std::move(tracker));
      }
      if (global.type0) return global.type0;
    }
    if (query.enforce_cap) {
      if (global.t1) return global.t1;
      if (global.t2) return global.t2;
    }
    if (budget >= budget_max) break;
    budget = budget > budget_max / 2 ? budget_max
                                     : std::max<graph::Cost>(1, budget * 2);
  }
  if (global.t1) return global.t1;
  return global.t2;
}

bool same_found_cycle(const std::optional<FoundCycle>& a,
                      const std::optional<FoundCycle>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a.has_value() || (a->edges == b->edges && a->cost == b->cost &&
                            a->delay == b->delay && a->type == b->type);
}

}  // namespace krsp::core
