#include "core/bicameral.h"

#include <algorithm>
#include <exception>
#include <limits>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "graph/algorithms.h"
#include "graph/csr.h"
#include "graph/cycles.h"
#include "obs/trace.h"

namespace krsp::core {

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();

// ---------------------------------------------------------------------------
// Shared per-find structure analysis.
//
// Seed-anchor theorem (the basis of the pruning; proof sketch, full
// statement in DESIGN.md §3):
//   sign 0 (H⁺, start layer 0):  every qualifying cycle has a prefix-valid
//     rotation anchored at the head of one of its negative arcs. The
//     rotation starting at a vertex achieving the minimum cost prefix keeps
//     every prefix in [0, ascent] ⊆ [0, B], and some minimum-achieving
//     vertex is entered by an arc of cost < 0 (walk the cycle backwards
//     through cost-0 arcs from any min-achiever; if the cycle has no
//     negative-cost arc at all, every arc costs 0 — its qualification then
//     rests on a negative-*delay* arc, whose head is a seed and any
//     rotation stays at layer 0).
//   sign 1 (H⁻, start layer B):  the same with tails of negative arcs, by
//     the mirror argument on the maximum cost prefix: the max-achiever's
//     outgoing cycle arc has cost <= 0. Heads would NOT suffice here — in
//     the 2-cycle (a→b, cost +5), (b→a, cost −6) the only valid H⁻ anchor
//     is b, the tail of the negative arc.
// The guarantee holds across the budget SCHEDULE, not per pass: for a
// cycle of total cost T >= 0 the prefix window is rotation-dependent, and
// if the cheapest rotation fits budget B_min, the seed (min-prefix)
// rotation fits B_min + T yet may genuinely need more than B_min. Example:
// the cost-7 cycle (+5, +1, −6, +7) fits budget 7 anchored before the +5
// arc, while its seed rotation — at the −6 arc's head — peaks at 13. The
// capped budget_max therefore carries 2× headroom (see find()), after
// which the doubling schedule reaches every seed rotation: a seed-anchored
// scan harvests every qualifying cycle at SOME budget <= budget_max, so
// the finder returns a qualifying cycle iff one exists. That is exactly
// what Lemmas 11/12 need — any qualifying cycle sustains the cancelling
// progress; no specific cycle is required.
//
// Per-anchor round bound (both modes): the witness cycles of Lemmas 11/12
// (components of optimal ⊕ current) are simple and, like every cycle,
// confined to one SCC, so min(max_rounds, |SCC(anchor)|) rounds reach them
// all.
//
// Execution modes:
//   pruned (default): scans only the seed anchors whose SCC has an internal
//     negative arc; each anchor's DP runs on its own SCC with compacted
//     vertex ids (|scc|·(B+1) states) using flat rolling dist rows and
//     packed parent records (FlatScratch).
//   ablation (disable_pruning): the pre-rewrite execution cost — every
//     vertex is scanned as an anchor over the full n·(B+1) state space with
//     the legacy eagerly-cleared nested-vector tables (LegacyScratch). Both
//     modes select from the SAME candidate set: only seed-anchored
//     trackers are merged. Non-seed scans are timed but their candidates
//     deliberately discarded — a non-seed rotation can fit a smaller
//     budget than the seed rotation of the same cycle (see above), so
//     merging them would surface cycles a doubling pass earlier and the
//     modes would return different (equally qualifying) cycles. Under the
//     seed-only selection contract the modes are bit-identical by
//     construction, and the equality the tests enforce is the meaningful
//     one: the flat compacted kernel is execution-equivalent to the legacy
//     full-state kernel at every shared anchor. Cross-SCC arcs never write
//     intra-SCC states in an anchored scan (a walk that leaves the
//     anchor's SCC cannot return), and the compacted member order
//     (ascending global id) preserves the relative relaxation order of
//     intra-SCC arcs, so first-writer tie-breaking — and hence every
//     harvested walk — matches exactly.
// ---------------------------------------------------------------------------
struct Structure {
  graph::SccPartition scc;
  std::vector<char> comp_has_negative;  // per comp: internal negative arc?
  // Compact intra-SCC adjacency for member position p (= scc.members[p]):
  // arcs[arc_first[p]..arc_first[p+1]) with .to holding the *local* id of
  // the target. Only populated for components with an internal negative arc
  // (the only ones the pruned kernel scans); global CSR order is preserved
  // within each member so relaxation tie-breaks match the legacy scan.
  std::vector<int> arc_first;
  std::vector<graph::CsrView::Arc> arcs;
  // Seed anchors per sign (0: heads, 1: tails of negative arcs), ascending.
  // pruned_seeds additionally drops anchors whose SCC has no internal
  // negative arc — provably barren. The pruned kernel scans pruned_seeds
  // only; the ablation scans every vertex but merges only the pruned_seeds
  // prefix of its anchor order (see the selection-rule comment above).
  std::vector<graph::VertexId> seeds[2];
  std::vector<graph::VertexId> pruned_seeds[2];
  std::int64_t sccs_skipped = 0;  // barren components holding >= 1 seed
  std::vector<char> seed_mark[2];  // build-time scratch, kept for reuse

  // Anchor order for the ablation: the pruned seed anchors first, in the
  // exact order the pruned scan uses, then every remaining vertex ascending.
  [[nodiscard]] std::vector<graph::VertexId> ablation_order(int sign) const {
    const int n = static_cast<int>(scc.component.size());
    std::vector<char> is_seed(n, 0);
    for (const graph::VertexId v : pruned_seeds[sign]) is_seed[v] = 1;
    std::vector<graph::VertexId> order = pruned_seeds[sign];
    order.reserve(n);
    for (graph::VertexId v = 0; v < n; ++v)
      if (!is_seed[v]) order.push_back(v);
    return order;
  }

  void build(const ResidualGraph& residual, const graph::CsrView& csr) {
    const graph::Digraph& rg = residual.digraph();
    const int n = rg.num_vertices();
    scc = graph::scc_partition(rg);
    comp_has_negative.assign(scc.num_components, 0);
    seed_mark[0].assign(n, 0);
    seed_mark[1].assign(n, 0);
    for (const graph::EdgeId e : residual.negative_arcs()) {
      const auto& edge = rg.edge(e);
      seed_mark[0][edge.to] = 1;
      seed_mark[1][edge.from] = 1;
      if (scc.component[edge.from] == scc.component[edge.to])
        comp_has_negative[scc.component[edge.from]] = 1;
    }
    for (int sign = 0; sign < 2; ++sign) {
      seeds[sign].clear();
      pruned_seeds[sign].clear();
      for (graph::VertexId v = 0; v < n; ++v) {
        if (!seed_mark[sign][v]) continue;
        seeds[sign].push_back(v);
        if (comp_has_negative[scc.component[v]])
          pruned_seeds[sign].push_back(v);
      }
    }
    // Count barren components exactly once each (a component may hold many
    // seeds of both signs).
    sccs_skipped = 0;
    for (int sign = 0; sign < 2; ++sign) {
      for (const graph::VertexId v : seeds[sign]) {
        const int c = scc.component[v];
        if (comp_has_negative[c] == 0) {
          comp_has_negative[c] = 2;  // mark counted (still falsy via == 1)
          ++sccs_skipped;
        }
      }
    }
    for (auto& flag : comp_has_negative)
      if (flag == 2) flag = 0;
    // Compact adjacency in member-position order == ascending global id
    // within each component == the legacy scan's relative relaxation order.
    arc_first.assign(n + 1, 0);
    arcs.clear();
    for (int p = 0; p < n; ++p) {
      const graph::VertexId u = scc.members[p];
      const int c = scc.component[u];
      if (comp_has_negative[c] != 0) {
        for (const auto& arc : csr.out(u)) {
          if (scc.component[arc.to] != c) continue;
          arcs.push_back(graph::CsrView::Arc{scc.local_id[arc.to], arc.cost,
                                             arc.delay, arc.id});
        }
      }
      arc_first[p + 1] = static_cast<int>(arcs.size());
    }
  }
};

// Flat DP tables for the pruned kernel: two rolling dist rows (the
// exactly-j-edges DP only ever reads row j−1 while writing row j) plus one
// packed parent record per (round, state). Parent entries are only read for
// states whose dist was written in the current scan, so they need no
// clearing; dist rows are cleared lazily, one row per round, instead of the
// legacy (rounds+1)·num_states eager wipe per anchor.
struct FlatScratch {
  struct ParentRec {
    std::int32_t state;
    graph::EdgeId edge;
  };
  static_assert(sizeof(ParentRec) == 8, "parent records should stay packed");

  std::vector<std::int64_t> dist;  // 2 rolling rows of num_states
  std::vector<ParentRec> parent;   // rounds rows of num_states
  std::vector<std::int64_t> best_seen;
  std::vector<graph::EdgeId> walk;

  void ensure(int rounds, int num_states) {
    const auto need_dist = 2 * static_cast<std::size_t>(num_states);
    if (dist.size() < need_dist) dist.resize(need_dist);
    const auto need_parent =
        static_cast<std::size_t>(rounds) * static_cast<std::size_t>(num_states);
    if (parent.size() < need_parent) parent.resize(need_parent);
  }

  [[nodiscard]] static std::int64_t bytes(int rounds, int num_states) {
    return static_cast<std::int64_t>(num_states) *
           (2 * static_cast<std::int64_t>(sizeof(std::int64_t)) +
            static_cast<std::int64_t>(rounds) * sizeof(ParentRec));
  }
};

// Flattened (vertex, layer) product state over the full vertex set — the
// ablation's view of the DP.
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

// Legacy nested-vector tables, eagerly cleared per anchor — kept verbatim as
// the disable_pruning ablation so bench_kernel measures the real before/after
// of the flat kernel.
struct LegacyScratch {
  std::vector<std::vector<std::int64_t>> dist;
  std::vector<std::vector<int>> parent_state;
  std::vector<std::vector<graph::EdgeId>> parent_edge;
  std::vector<std::int64_t> best_seen;
  std::vector<graph::EdgeId> walk;

  int rounds = -1;
  int num_states = -1;

  void resize(int new_rounds, int new_num_states) {
    if (new_rounds != rounds || new_num_states != num_states) {
      dist.assign(new_rounds + 1,
                  std::vector<std::int64_t>(new_num_states, kInf));
      parent_state.assign(new_rounds + 1, std::vector<int>(new_num_states, -1));
      parent_edge.assign(
          new_rounds + 1,
          std::vector<graph::EdgeId>(new_num_states, graph::kInvalidEdge));
      rounds = new_rounds;
      num_states = new_num_states;
    }
  }

  void reset() {
    for (auto& row : dist) std::fill(row.begin(), row.end(), kInf);
  }

  [[nodiscard]] std::int64_t bytes() const {
    return static_cast<std::int64_t>(rounds + 1) * num_states *
           static_cast<std::int64_t>(sizeof(std::int64_t) + sizeof(int) +
                                     sizeof(graph::EdgeId));
  }
};

struct AnchorStats {
  std::int64_t walks = 0;
  std::int64_t cycles = 0;
  std::int64_t dp_bytes = 0;  // table high-water mark for this scan
};

// Candidate tracker with deterministic preference: type-0 wins outright,
// then best (most useful) ratio per type. Merging trackers in a fixed
// order keeps the parallel scan's result identical to the serial one.
struct Tracker {
  std::optional<FoundCycle> type0;
  std::optional<FoundCycle> t1;
  util::Rational t1_ratio{0};
  std::optional<FoundCycle> t2;
  util::Rational t2_ratio{0};

  void consider(FoundCycle found) {
    switch (found.type) {
      case CycleType::kType0:
        if (!type0) type0 = std::move(found);
        break;
      case CycleType::kType1: {
        const util::Rational r(found.delay, found.cost);
        if (!t1 || r < t1_ratio) {
          t1_ratio = r;
          t1 = std::move(found);
        }
        break;
      }
      case CycleType::kType2: {
        const util::Rational r(found.delay, found.cost);
        if (!t2 || r > t2_ratio) {
          t2_ratio = r;
          t2 = std::move(found);
        }
        break;
      }
    }
  }

  void merge(Tracker&& other) {
    if (other.type0 && !type0) type0 = std::move(other.type0);
    if (other.t1) {
      if (!t1 || other.t1_ratio < t1_ratio) {
        t1 = std::move(other.t1);
        t1_ratio = other.t1_ratio;
      }
    }
    if (other.t2) {
      if (!t2 || other.t2_ratio > t2_ratio) {
        t2 = std::move(other.t2);
        t2_ratio = other.t2_ratio;
      }
    }
  }
};

// Decomposes the closed walk reconstructed into `walk` and feeds qualifying
// cycles into the tracker. Shared by both kernels so classification cannot
// drift between them.
void classify_walk(const ResidualGraph& residual,
                   std::vector<graph::EdgeId>& walk,
                   const BicameralQuery& query, Tracker& tracker,
                   AnchorStats& stats) {
  for (auto& cycle : graph::decompose_closed_walk(residual.digraph(), walk)) {
    ++stats.cycles;
    const graph::Cost c = residual.cycle_cost(cycle);
    const graph::Delay d = residual.cycle_delay(cycle);
    const auto type = BicameralCycleFinder::classify(c, d, query.cap,
                                                     query.ratio,
                                                     query.enforce_cap);
    if (type) tracker.consider(FoundCycle{std::move(cycle), c, d, *type});
  }
}

// Pruned kernel: anchored layered Bellman–Ford for one (anchor, sign) pair
// on the anchor's SCC with compacted vertex ids and flat rolling tables.
// Candidates are harvested after every round; when `stop_on_first` is set
// (the capped algorithm — any qualifying cycle suffices for Lemma 12) the
// DP stops as soon as this anchor has produced one. The per-anchor decision
// never depends on other anchors, so the parallel scan stays deterministic.
void scan_anchor_flat(const ResidualGraph& residual, const Structure& st,
                      graph::Cost budget, graph::Cost max_abs_cost,
                      graph::VertexId anchor, graph::Cost start_layer,
                      int rounds, const BicameralQuery& query,
                      bool stop_on_first, FlatScratch& t, Tracker& tracker,
                      AnchorStats& stats) {
  const int c = st.scc.component[anchor];
  const int s = st.scc.component_size(c);
  const int base = st.scc.comp_first[c];
  const std::int64_t bp1 = static_cast<std::int64_t>(budget) + 1;
  const std::int64_t wide_states = static_cast<std::int64_t>(s) * bp1;
  KRSP_CHECK_MSG(wide_states <= std::numeric_limits<std::int32_t>::max(),
                 "bicameral DP state space exceeds 2^31 states");
  const int num_states = static_cast<int>(wide_states);
  t.ensure(rounds, num_states);
  stats.dp_bytes =
      std::max(stats.dp_bytes, FlatScratch::bytes(rounds, num_states));

  // Reachable-layer window after j rounds: every arc shifts the cost prefix
  // by at most max|c| and the DP clips layers to [0, budget], so round j
  // can only populate layers within j·max|c| of the start layer. States
  // outside the window provably hold dist = ∞, which lets the relax, clear
  // and harvest loops skip them without changing any result — the big
  // per-round saving over the legacy kernel's full 0..budget sweeps.
  const auto window_lo = [&](int j) -> graph::Cost {
    const util::Int128 reach = static_cast<util::Int128>(j) * max_abs_cost;
    if (reach >= start_layer) return 0;
    return start_layer - static_cast<graph::Cost>(reach);
  };
  const auto window_hi = [&](int j) -> graph::Cost {
    const util::Int128 reach = static_cast<util::Int128>(j) * max_abs_cost;
    if (reach >= budget - start_layer) return budget;
    return start_layer + static_cast<graph::Cost>(reach);
  };

  std::int64_t* prev = t.dist.data();
  std::int64_t* cur = t.dist.data() + num_states;
  // Round-0 window is the start column alone; only it needs clearing.
  for (int lu = 0; lu < s; ++lu) prev[lu * bp1 + start_layer] = kInf;
  const std::int64_t anchor_row = st.scc.local_id[anchor] * bp1;
  const int start = static_cast<int>(anchor_row + start_layer);
  prev[start] = 0;

  // Best walk delay seen per anchor layer (so each improvement is
  // reconstructed at most once).
  auto& best_seen = t.best_seen;
  best_seen.assign(budget + 1, kInf);

  const auto harvest = [&](int j, graph::Cost l) {
    ++stats.walks;
    auto& walk = t.walk;
    walk.clear();
    int state = static_cast<int>(anchor_row + l);
    for (int step = j; step > 0; --step) {
      const FlatScratch::ParentRec rec =
          t.parent[static_cast<std::size_t>(step - 1) * num_states + state];
      KRSP_CHECK(rec.edge != graph::kInvalidEdge);
      walk.push_back(rec.edge);
      state = rec.state;
    }
    KRSP_CHECK(state == start);
    std::reverse(walk.begin(), walk.end());
    classify_walk(residual, walk, query, tracker, stats);
  };

  for (int j = 1; j <= rounds; ++j) {
    bool any = false;
    const graph::Cost prev_lo = window_lo(j - 1), prev_hi = window_hi(j - 1);
    const graph::Cost cur_lo = window_lo(j), cur_hi = window_hi(j);
    for (int lu = 0; lu < s; ++lu) {
      std::int64_t* crow = cur + lu * bp1;
      std::fill(crow + cur_lo, crow + cur_hi + 1, kInf);
    }
    FlatScratch::ParentRec* par =
        t.parent.data() + static_cast<std::size_t>(j - 1) * num_states;
    for (int lu = 0; lu < s; ++lu) {
      const int arc_begin = st.arc_first[base + lu];
      const int arc_end = st.arc_first[base + lu + 1];
      if (arc_begin == arc_end) continue;
      const std::int64_t row = lu * bp1;
      for (graph::Cost l = prev_lo; l <= prev_hi; ++l) {
        const std::int64_t dist_u = prev[row + l];
        if (dist_u == kInf) continue;
        for (int a = arc_begin; a < arc_end; ++a) {
          const auto& arc = st.arcs[a];
          const graph::Cost l2 = l + arc.cost;
          if (l2 < 0 || l2 > budget) continue;
          const int to = static_cast<int>(arc.to * bp1 + l2);
          const std::int64_t nd = dist_u + arc.delay;
          if (nd < cur[to]) {
            cur[to] = nd;
            par[to] = FlatScratch::ParentRec{
                static_cast<std::int32_t>(row + l), arc.id};
            any = true;
          }
        }
      }
    }
    if (!any) break;
    // Harvest improved closed walks back at the anchor. Only walks that can
    // host a qualifying cycle are interesting: negative delay (type-0/1
    // material) or negative cost (type-0/2 material). Layers outside the
    // round-j window are still ∞ and can never pass the best_seen gate.
    for (graph::Cost l = cur_lo; l <= cur_hi; ++l) {
      const std::int64_t dj = cur[anchor_row + l];
      if (dj >= best_seen[l]) continue;
      best_seen[l] = dj;
      const graph::Cost walk_cost = l - start_layer;
      if (!(dj < 0 || walk_cost < 0)) continue;
      harvest(j, l);
    }
    if (tracker.type0 || (stop_on_first && (tracker.t1 || tracker.t2)))
      return;
    std::swap(prev, cur);
  }
}

// Ablation kernel: the same (anchor, sign) scan on the full n·(budget+1)
// state space with the legacy eagerly-cleared nested tables. Harvests the
// exact same walks as scan_anchor_flat (see the Structure comment for the
// equivalence argument).
void scan_anchor_legacy(const ResidualGraph& residual,
                        const graph::CsrView& csr, const StateSpace& ss,
                        graph::VertexId anchor, graph::Cost start_layer,
                        int rounds, const BicameralQuery& query,
                        bool stop_on_first, LegacyScratch& scratch,
                        Tracker& tracker, AnchorStats& stats) {
  const int n = residual.digraph().num_vertices();
  scratch.reset();
  stats.dp_bytes = std::max(stats.dp_bytes, scratch.bytes());
  const int start = ss.state(anchor, start_layer);
  scratch.dist[0][start] = 0;

  auto& best_seen = scratch.best_seen;
  best_seen.assign(ss.budget + 1, kInf);

  const auto harvest = [&](int j, graph::Cost l) {
    ++stats.walks;
    auto& walk = scratch.walk;
    walk.clear();
    int state = ss.state(anchor, l);
    for (int step = j; step > 0; --step) {
      const graph::EdgeId e = scratch.parent_edge[step][state];
      KRSP_CHECK(e != graph::kInvalidEdge);
      walk.push_back(e);
      state = scratch.parent_state[step][state];
    }
    KRSP_CHECK(state == start);
    std::reverse(walk.begin(), walk.end());
    classify_walk(residual, walk, query, tracker, stats);
  };

  for (int j = 1; j <= rounds; ++j) {
    bool any = false;
    const auto& prev = scratch.dist[j - 1];
    auto& cur = scratch.dist[j];
    for (graph::VertexId u = 0; u < n; ++u) {
      const auto arcs = csr.out(u);
      if (arcs.empty()) continue;
      for (graph::Cost l = 0; l <= ss.budget; ++l) {
        const std::int64_t base = prev[ss.state(u, l)];
        if (base == kInf) continue;
        for (const auto& arc : arcs) {
          const graph::Cost l2 = l + arc.cost;
          if (l2 < 0 || l2 > ss.budget) continue;
          const int to = ss.state(arc.to, l2);
          const std::int64_t nd = base + arc.delay;
          if (nd < cur[to]) {
            cur[to] = nd;
            scratch.parent_state[j][to] = ss.state(u, l);
            scratch.parent_edge[j][to] = arc.id;
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
      const graph::Cost walk_cost = l - start_layer;
      if (!(dj < 0 || walk_cost < 0)) continue;
      harvest(j, l);
    }
    if (tracker.type0 || (stop_on_first && (tracker.t1 || tracker.t2)))
      return;
  }
}

}  // namespace

struct BicameralWorkspace::Impl {
  Structure structure;
  FlatScratch flat;
  LegacyScratch legacy;
};

BicameralWorkspace::BicameralWorkspace() : impl_(std::make_unique<Impl>()) {}
BicameralWorkspace::~BicameralWorkspace() = default;
BicameralWorkspace::BicameralWorkspace(BicameralWorkspace&&) noexcept =
    default;
BicameralWorkspace& BicameralWorkspace::operator=(
    BicameralWorkspace&&) noexcept = default;

std::optional<CycleType> BicameralCycleFinder::classify(
    graph::Cost c, graph::Delay d, graph::Cost cap,
    const util::Rational& ratio, bool enforce_cap) {
  if ((d < 0 && c <= 0) || (d <= 0 && c < 0)) return CycleType::kType0;
  if (d < 0 && c > 0 && (!enforce_cap || c <= cap)) {
    if (util::Rational(d, c) <= ratio) return CycleType::kType1;
  }
  if (d >= 0 && c < 0 && (!enforce_cap || -c <= cap)) {
    // Strict inequality (vs. Definition 10's >=): an equality type-2 cycle
    // leaves r_i unchanged while *increasing* ΔD, so accepting it can
    // alternate with its own reverse forever. With strictness every
    // accepted cycle improves the (r_i, ΔD_i) potential lexicographically,
    // giving unconditional termination; existence still holds for every
    // guess Ĉ > C_OPT (see DESIGN.md §3).
    if (util::Rational(d, c) > ratio) return CycleType::kType2;
  }
  return std::nullopt;
}

std::optional<FoundCycle> BicameralCycleFinder::find(
    const ResidualGraph& residual, const BicameralQuery& query,
    BicameralStats* stats, BicameralWorkspace* ws) const {
  const graph::Digraph& rg = residual.digraph();
  const int n = rg.num_vertices();
  // No negative residual arc ⇒ no qualifying cycle at any budget (its
  // negative total cost or delay would need a negative term). A semantic
  // fact, not an execution shortcut, so both execution modes share it.
  if (residual.negative_arcs().empty()) return std::nullopt;

  const graph::CsrView csr(rg);
  const bool pruned = !options_.disable_pruning;

  // Per-find structure analysis, shared read-only by every scan below.
  Structure local_structure;
  Structure& st = ws != nullptr ? ws->impl().structure : local_structure;
  st.build(residual, csr);
  if (stats != nullptr && pruned) stats->sccs_skipped += st.sccs_skipped;

  // Global round cap; each anchor is further bounded by its SCC size (the
  // witness cycles of Lemmas 11/12 are simple and SCC-confined).
  const int rounds_cap =
      options_.max_rounds > 0 ? std::min(options_.max_rounds, n) : n;
  const auto anchor_rounds = [&](graph::VertexId a) {
    return std::min(rounds_cap,
                    st.scc.component_size(st.scc.component[a]));
  };

  // Budget ceiling. Capped mode: 2·cap, NOT cap — the seed rotation of a
  // qualifying cycle (start at the minimum cost-prefix achiever) keeps its
  // prefixes within B_min + |cycle cost| <= cap + cap, where B_min <= cap
  // is the budget the cycle's cheapest rotation needs. Without the
  // headroom, a cycle whose seed rotation lands in (cap, 2·cap] is
  // findable from a non-seed anchor yet invisible to the seed scan (e.g. a
  // cost-7 cycle (+5,+1,−6,+7): its cheapest rotation peaks at 7 but the
  // rotation at the −6 arc's head peaks at 13). Uncapped mode: Σ|c|
  // already bounds every seed-rotation prefix. Both are further clamped to
  // rounds_cap·max|c| — a walk of <= rounds_cap edges keeps every cost
  // prefix within that bound, so higher layers are unreachable and the
  // clamp is exact. The clamp also keeps near-INT64_MAX caps from
  // overflowing the doubling schedule or materializing absurd DP tables.
  // Intermediates use 128-bit arithmetic because both the cap and the cost
  // sum may sit near the int64 edge.
  const graph::Cost max_abs_cost = rg.max_abs_cost();
  graph::Cost budget_max = 0;
  {
    util::Int128 bound = 0;
    if (query.enforce_cap) {
      bound =
          2 * static_cast<util::Int128>(std::max<graph::Cost>(query.cap, 0));
    } else {
      for (const auto& e : rg.edges())
        bound += e.cost < 0 ? -static_cast<util::Int128>(e.cost) : e.cost;
    }
    const util::Int128 reachable = static_cast<util::Int128>(rounds_cap) *
                                   static_cast<util::Int128>(max_abs_cost);
    bound = std::min(bound, reachable);
    bound = std::min(
        bound,
        static_cast<util::Int128>(std::numeric_limits<graph::Cost>::max()));
    budget_max = static_cast<graph::Cost>(bound);
  }

  Tracker global;
  graph::Cost budget = std::min(
      std::max<graph::Cost>(options_.initial_budget, 0), budget_max);
  while (true) {
    if (stats != nullptr) ++stats->budgets_tried;
    // In the degenerate budget-0 case H+ and H- coincide; the head-anchored
    // scan is complete there (all arcs on a layer-0 cycle cost 0, so any
    // rotation works and the negative-delay arc's head is a seed).
    const int num_signs = budget == 0 ? 1 : 2;
    for (int sign = 0; sign < num_signs; ++sign) {
      // One anchor DP batch: every anchor of this (budget, sign) pass,
      // serial or OpenMP, timed from the driver thread.
      KRSP_OBS_SPAN("anchor_dp_batch");
      const graph::Cost start_layer = sign == 0 ? 0 : budget;
      // Pruned mode scans only the seed anchors; the ablation scans every
      // vertex (the pre-rewrite execution cost), ordered seeds-first so the
      // merge below consults exactly the candidates the pruned scan sees.
      std::vector<graph::VertexId> ablation_anchors;
      if (!pruned) ablation_anchors = st.ablation_order(sign);
      const std::vector<graph::VertexId>& anchors =
          pruned ? st.pruned_seeds[sign] : ablation_anchors;
      const int na = static_cast<int>(anchors.size());
      const int num_seeds = static_cast<int>(st.pruned_seeds[sign].size());
      if (stats != nullptr) stats->anchors_pruned += n - na;

      StateSpace ss{n, budget};
      if (!pruned) {
        KRSP_CHECK_MSG(
            static_cast<std::int64_t>(n) * (static_cast<std::int64_t>(budget) +
                                            1) <=
                std::numeric_limits<std::int32_t>::max(),
            "bicameral DP state space exceeds 2^31 states");
      }

      // Anchors are independent: scan them in parallel with per-thread
      // scratch, then merge per-anchor trackers in anchor order so the
      // outcome is identical to the serial scan. A caller-supplied
      // workspace selects the serial scan outright (the batch engine
      // parallelizes across solves) and keeps the tables alive across
      // find() calls.
      // Selection rule shared by both modes: merge only the seed anchors
      // (anchors[0..num_seeds)). The remaining anchors — present only in
      // the ablation — are scanned for the honest pre-rewrite cost but
      // their trackers are discarded: a non-seed rotation can fit a budget
      // the seed rotation of the same cycle exceeds, so consulting them
      // would surface cycles a doubling pass early and break bit-identity
      // (see the header comment).
      if (ws != nullptr) {
        auto& impl = ws->impl();
        if (!pruned) impl.legacy.resize(rounds_cap, ss.num_states());
        for (int i = 0; i < na; ++i) {
          const graph::VertexId anchor = anchors[i];
          Tracker tracker;
          AnchorStats anchor_stats;
          if (pruned) {
            scan_anchor_flat(residual, st, budget, max_abs_cost, anchor,
                             start_layer, anchor_rounds(anchor), query,
                             query.enforce_cap, impl.flat, tracker,
                             anchor_stats);
          } else {
            scan_anchor_legacy(residual, csr, ss, anchor, start_layer,
                               anchor_rounds(anchor), query, query.enforce_cap,
                               impl.legacy, tracker, anchor_stats);
          }
          if (i < num_seeds) global.merge(std::move(tracker));
          if (stats != nullptr) {
            ++stats->anchors_scanned;
            stats->walks_examined += anchor_stats.walks;
            stats->cycles_classified += anchor_stats.cycles;
            stats->peak_dp_bytes =
                std::max(stats->peak_dp_bytes, anchor_stats.dp_bytes);
          }
        }
      } else {
        std::vector<Tracker> per_anchor(na);
        std::vector<AnchorStats> per_stats(na);
#ifdef _OPENMP
        // No exception may leave an OpenMP region (the runtime terminates
        // the process): the first one is kept and rethrown after it.
        std::exception_ptr failure;
        const auto guarded = [&failure](const auto& work) {
          try {
            work();
            return true;
          } catch (...) {
#pragma omp critical(krsp_bicameral_failure)
            if (!failure) failure = std::current_exception();
            return false;
          }
        };
#pragma omp parallel if (na >= 16)
        {
          FlatScratch flat;
          LegacyScratch legacy;
          const bool ready =
              pruned ||
              guarded([&] { legacy.resize(rounds_cap, ss.num_states()); });
#pragma omp for schedule(dynamic)
          for (int i = 0; i < na; ++i) {
            if (!ready) continue;
            const graph::VertexId anchor = anchors[i];
            guarded([&] {
              if (pruned) {
                scan_anchor_flat(residual, st, budget, max_abs_cost, anchor,
                                 start_layer, anchor_rounds(anchor), query,
                                 query.enforce_cap, flat, per_anchor[i],
                                 per_stats[i]);
              } else {
                scan_anchor_legacy(residual, csr, ss, anchor, start_layer,
                                   anchor_rounds(anchor), query,
                                   query.enforce_cap, legacy, per_anchor[i],
                                   per_stats[i]);
              }
            });
          }
        }
        if (failure) std::rethrow_exception(failure);
#else
        {
          FlatScratch flat;
          LegacyScratch legacy;
          if (!pruned) legacy.resize(rounds_cap, ss.num_states());
          for (int i = 0; i < na; ++i) {
            const graph::VertexId anchor = anchors[i];
            if (pruned) {
              scan_anchor_flat(residual, st, budget, max_abs_cost, anchor,
                               start_layer, anchor_rounds(anchor), query,
                               query.enforce_cap, flat, per_anchor[i],
                               per_stats[i]);
            } else {
              scan_anchor_legacy(residual, csr, ss, anchor, start_layer,
                                 anchor_rounds(anchor), query,
                                 query.enforce_cap, legacy, per_anchor[i],
                                 per_stats[i]);
            }
          }
        }
#endif
        for (int i = 0; i < na; ++i) {
          if (i < num_seeds) global.merge(std::move(per_anchor[i]));
          if (stats != nullptr) {
            ++stats->anchors_scanned;
            stats->walks_examined += per_stats[i].walks;
            stats->cycles_classified += per_stats[i].cycles;
            stats->peak_dp_bytes =
                std::max(stats->peak_dp_bytes, per_stats[i].dp_bytes);
          }
        }
      }
      if (global.type0) return global.type0;  // free improvement: take it
    }

    // Any qualifying cycle at this budget level suffices for the proofs;
    // prefer type-1 (direct delay progress). In the uncapped ablation the
    // semantics are "best ratio over ALL cycles", so keep scanning budgets.
    if (query.enforce_cap) {
      if (global.t1) return global.t1;
      if (global.t2) return global.t2;
    }
    if (budget >= budget_max) break;
    // Overflow-safe doubling: saturate at budget_max instead of computing
    // budget * 2 when that product could exceed it (or wrap).
    budget = budget > budget_max / 2 ? budget_max
                                     : std::max<graph::Cost>(1, budget * 2);
  }
  if (global.t1) return global.t1;
  return global.t2;
}

}  // namespace krsp::core
