#include "core/bicameral.h"

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>
#include <tuple>

#include "graph/algorithms.h"
#include "graph/csr.h"
#include "graph/cycles.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace krsp::core {

namespace {

constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();

// ---------------------------------------------------------------------------
// Per-find structure analysis.
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
// Per-anchor round bound: the witness cycles of Lemmas 11/12 (components
// of optimal ⊕ current) are simple and, like every cycle, confined to one
// SCC, so min(max_rounds, |SCC(anchor)|) rounds reach them all.
//
// Execution: only the seed anchors whose SCC has an internal negative arc
// are scanned; each anchor's DP runs on its own SCC with compacted vertex
// ids (|scc|·(B+1) states) using flat rolling dist rows and packed parent
// records (FlatScratch). The pre-rewrite kernel — every vertex anchored
// over the full n·(B+1) state space, only seed anchors' candidates kept —
// lives on as a test and bench oracle (tests/oracles/bicameral_reference).
// The two are bit-identical: cross-SCC arcs never write intra-SCC states in
// an anchored scan (a walk that leaves the anchor's SCC cannot return), and
// the compacted member order (ascending global id) preserves the relative
// relaxation order of intra-SCC arcs, so first-writer tie-breaking — and
// hence every harvested walk — matches exactly.
// ---------------------------------------------------------------------------
struct Structure {
  graph::SccPartition scc;
  std::vector<char> comp_has_negative;  // per comp: internal negative arc?
  // Compact intra-SCC adjacency for member position p (= scc.members[p]):
  // arcs[arc_first[p]..arc_first[p+1]) with .to holding the *local* id of
  // the target. Only populated for components with an internal negative arc
  // (the only ones scanned); global CSR order is preserved within each
  // member so relaxation tie-breaks match the full-state-space scan.
  std::vector<int> arc_first;
  std::vector<graph::CsrView::Arc> arcs;
  // Seed anchors per sign (0: heads, 1: tails of negative arcs) whose SCC
  // has an internal negative arc, ascending. Seeds in other SCCs are
  // provably barren and never scanned.
  std::vector<graph::VertexId> seeds[2];
  std::int64_t sccs_skipped = 0;  // barren components holding >= 1 seed
  std::vector<char> seed_mark;    // bit s: seed of sign s; kept for reuse

  void build(const ResidualGraph& residual) {
    const graph::Digraph& rg = residual.digraph();
    const graph::CsrView csr(rg);
    const int n = rg.num_vertices();
    scc = graph::scc_partition(rg);
    comp_has_negative.assign(scc.num_components, 0);
    seed_mark.assign(n, 0);
    for (const graph::EdgeId e : residual.negative_arcs()) {
      const auto& edge = rg.edge(e);
      seed_mark[edge.to] |= 1;
      seed_mark[edge.from] |= 2;
      if (scc.component[edge.from] == scc.component[edge.to])
        comp_has_negative[scc.component[edge.from]] = 1;
    }
    // Barren components are counted exactly once each (a component may
    // hold many seeds of both signs): the first seed marks its component 2.
    seeds[0].clear();
    seeds[1].clear();
    sccs_skipped = 0;
    for (graph::VertexId v = 0; v < n; ++v) {
      if (seed_mark[v] == 0) continue;
      char& flag = comp_has_negative[scc.component[v]];
      if (flag == 1) {
        for (int sign = 0; sign < 2; ++sign)
          if ((seed_mark[v] >> sign) & 1) seeds[sign].push_back(v);
      } else if (flag == 0) {
        flag = 2;
        ++sccs_skipped;
      }
    }
    for (auto& flag : comp_has_negative)
      if (flag == 2) flag = 0;
    // Compact adjacency in member-position order == ascending global id
    // within each component == the full-state-space scan's relative
    // relaxation order.
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

// Flat DP tables: two rolling dist rows (the exactly-j-edges DP only ever
// reads row j−1 while writing row j) plus one packed parent record per
// (round, state). Parent entries are only read for states whose dist was
// written in the current scan, so they need no clearing; dist rows are
// cleared lazily, one row per round, instead of an eager
// (rounds+1)·num_states wipe per anchor.
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

  // 128-bit so that the size check runs before anything can overflow.
  [[nodiscard]] static util::Int128 bytes(int rounds,
                                          util::Int128 num_states) {
    return num_states *
           (2 * static_cast<util::Int128>(sizeof(std::int64_t)) +
            static_cast<util::Int128>(rounds) * sizeof(ParentRec));
  }
};

struct AnchorStats {
  std::int64_t walks = 0;
  std::int64_t cycles = 0;
  std::int64_t dp_bytes = 0;  // table high-water mark for this scan
};

// One recorded anchor scan (AnchorScanMemo): every cycle the scan
// harvested, in harvest order, grouped by the round that harvested it, plus
// what a replay needs to reproduce the scan's AnchorStats and its stop.
// Rounds that harvested nothing are not stored: the stop rule cannot fire
// after them (the tracker did not change).
struct ScanRecord {
  struct Cycle {
    std::int32_t edges_end;  // this cycle's edges end here in `edges`
    graph::Cost cost;
    graph::Delay delay;
  };
  struct Round {
    std::int32_t cycles_end;  // this round's cycles end here in `cycles`
    std::int64_t walks;
  };

  std::vector<graph::EdgeId> edges;
  std::vector<Cycle> cycles;
  std::vector<Round> rounds;
  std::int64_t dp_bytes = 0;
  // True when the DP ran out of rounds or of improvements, i.e. the stored
  // rounds are all the rounds the scan has; false when it stopped on a hit.
  bool complete = false;
  // Recording gives up (and drops what it has) past `limit` bytes.
  std::int64_t limit = 0;
  bool overflowed = false;

  [[nodiscard]] std::int64_t bytes() const {
    return static_cast<std::int64_t>(sizeof(ScanRecord) +
                                     edges.size() * sizeof(graph::EdgeId) +
                                     cycles.size() * sizeof(Cycle) +
                                     rounds.size() * sizeof(Round));
  }

  void reset(std::int64_t limit_bytes) {
    edges.clear();
    cycles.clear();
    rounds.clear();
    dp_bytes = 0;
    complete = false;
    limit = limit_bytes;
    overflowed = false;
    check_limit();
  }

  void add_cycle(const std::vector<graph::EdgeId>& cycle, graph::Cost c,
                 graph::Delay d) {
    if (overflowed) return;
    edges.insert(edges.end(), cycle.begin(), cycle.end());
    cycles.push_back(Cycle{static_cast<std::int32_t>(edges.size()), c, d});
    check_limit();
  }

  void end_round(std::int64_t walks) {
    if (overflowed) return;
    rounds.push_back(Round{static_cast<std::int32_t>(cycles.size()), walks});
    check_limit();
  }

 private:
  void check_limit() {
    if (bytes() <= limit) return;
    overflowed = true;
    edges = {};
    cycles = {};
    rounds = {};
  }
};

// Candidate tracker with deterministic preference: type-0 wins outright,
// then best (most useful) ratio per type, the earliest candidate on ties.
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
// cycles into the tracker; `record` (optional) keeps every cycle.
void classify_walk(const ResidualGraph& residual,
                   std::vector<graph::EdgeId>& walk,
                   const BicameralQuery& query, Tracker& tracker,
                   AnchorStats& stats, ScanRecord* record) {
  for (auto& cycle : graph::decompose_closed_walk(residual.digraph(), walk)) {
    ++stats.cycles;
    const graph::Cost c = residual.cycle_cost(cycle);
    const graph::Delay d = residual.cycle_delay(cycle);
    if (record != nullptr) record->add_cycle(cycle, c, d);
    const auto type = BicameralCycleFinder::classify(c, d, query.cap,
                                                     query.ratio,
                                                     query.enforce_cap);
    if (type) tracker.consider(FoundCycle{std::move(cycle), c, d, *type});
  }
}

// Anchored layered Bellman–Ford for one (anchor, sign) pair on the
// anchor's SCC with compacted vertex ids and flat rolling tables.
// Candidates are harvested after every round; when `stop_on_first` is set
// (the capped algorithm — any qualifying cycle suffices for Lemma 12) the
// DP stops as soon as this anchor has produced one. The per-anchor decision
// never depends on other anchors. `record` (optional) receives the
// harvested cycles round by round and how the scan ended. Throws
// DpLimitError, before allocating, when the tables would exceed
// kMaxDpBytes. Kept out of line: inlined into find(), its only caller, the
// same solves measured 5–15% slower.
[[gnu::noinline]] void scan_anchor_flat(
    const ResidualGraph& residual, const Structure& st, graph::Cost budget,
    graph::Cost max_abs_cost, graph::VertexId anchor, graph::Cost start_layer,
    int rounds, const BicameralQuery& query, bool stop_on_first,
    FlatScratch& t, Tracker& tracker, AnchorStats& stats,
    ScanRecord* record) {
  const int c = st.scc.component[anchor];
  const int s = st.scc.component_size(c);
  const int base = st.scc.comp_first[c];
  const util::Int128 wide_states =
      static_cast<util::Int128>(s) * (static_cast<util::Int128>(budget) + 1);
  const util::Int128 need = FlatScratch::bytes(rounds, wide_states);
  if (need > BicameralCycleFinder::kMaxDpBytes) {
    std::ostringstream os;
    os << "bicameral DP tables for budget " << budget << " on a " << s
       << "-vertex SCC over " << rounds << " rounds exceed the "
       << (BicameralCycleFinder::kMaxDpBytes >> 20) << " MiB limit";
    throw DpLimitError(os.str());
  }
  // The limit keeps every index below 2^31 (at least 16 bytes per state).
  const std::int64_t bp1 = budget + 1;
  const int num_states = static_cast<int>(wide_states);
  t.ensure(rounds, num_states);
  stats.dp_bytes = std::max(stats.dp_bytes, static_cast<std::int64_t>(need));

  // Reachable-layer window after j rounds: every arc shifts the cost prefix
  // by at most max|c| and the DP clips layers to [0, budget], so round j
  // can only populate layers within j·max|c| of the start layer. States
  // outside the window provably hold dist = ∞, which lets the relax, clear
  // and harvest loops skip them without changing any result — the big
  // per-round saving over full 0..budget sweeps.
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
    classify_walk(residual, walk, query, tracker, stats, record);
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
    const std::int64_t walks_before = stats.walks;
    for (graph::Cost l = cur_lo; l <= cur_hi; ++l) {
      const std::int64_t dj = cur[anchor_row + l];
      if (dj >= best_seen[l]) continue;
      best_seen[l] = dj;
      const graph::Cost walk_cost = l - start_layer;
      if (!(dj < 0 || walk_cost < 0)) continue;
      harvest(j, l);
    }
    if (record != nullptr && stats.walks > walks_before)
      record->end_round(stats.walks - walks_before);
    if (tracker.type0 || (stop_on_first && (tracker.t1 || tracker.t2))) {
      if (record != nullptr) record->complete = j == rounds;
      return;
    }
    std::swap(prev, cur);
  }
  if (record != nullptr) record->complete = true;
}

// Replays a recorded scan under `query`: the recorded cycles reach the
// tracker in harvest order, classified by this query, and the scan's stop
// rule runs after each round, exactly as scan_anchor_flat would on the same
// residual (its DP never reads the query). Returns false when the recorded
// rounds run out before the scan would stop; the caller then runs the DP
// with a fresh tracker and stats.
bool replay_scan(const ScanRecord& record, const BicameralQuery& query,
                 bool stop_on_first, Tracker& tracker, AnchorStats& stats) {
  stats.dp_bytes = record.dp_bytes;
  std::size_t c = 0;
  std::int32_t edges_begin = 0;
  for (const ScanRecord::Round& round : record.rounds) {
    stats.walks += round.walks;
    for (; c < static_cast<std::size_t>(round.cycles_end); ++c) {
      const ScanRecord::Cycle& cycle = record.cycles[c];
      ++stats.cycles;
      const auto type = BicameralCycleFinder::classify(
          cycle.cost, cycle.delay, query.cap, query.ratio, query.enforce_cap);
      if (type)
        tracker.consider(FoundCycle{
            std::vector<graph::EdgeId>(record.edges.begin() + edges_begin,
                                       record.edges.begin() + cycle.edges_end),
            cycle.cost, cycle.delay, *type});
      edges_begin = cycle.edges_end;
    }
    if (tracker.type0 || (stop_on_first && (tracker.t1 || tracker.t2)))
      return true;
  }
  return record.complete;
}

struct AnchorScanCounters {
  obs::Counter& dp;
  obs::Counter& replay;
};

// Resolved once: the registry lookup takes a mutex.
const AnchorScanCounters& anchor_scan_counters() {
  static const AnchorScanCounters counters{
      obs::Registry::global().counter("krsp_bicameral_anchor_scans_total",
                                      "source=\"dp\""),
      obs::Registry::global().counter("krsp_bicameral_anchor_scans_total",
                                      "source=\"replay\"")};
  return counters;
}

// Adds one find()'s scan counts to the metrics on every way out of it.
// Both series exist from the first find() on, even one that scans nothing.
struct ScanTally {
  const AnchorScanCounters& counters = anchor_scan_counters();
  std::int64_t dp = 0;
  std::int64_t replayed = 0;
  ScanTally() = default;
  ScanTally(const ScanTally&) = delete;
  ScanTally& operator=(const ScanTally&) = delete;
  ~ScanTally() {
    if (dp > 0) counters.dp.inc(static_cast<std::uint64_t>(dp));
    if (replayed > 0) counters.replay.inc(static_cast<std::uint64_t>(replayed));
  }
};

}  // namespace

struct BicameralWorkspace::Impl {
  Structure structure;
  FlatScratch flat;
};

BicameralWorkspace::BicameralWorkspace() : impl_(std::make_unique<Impl>()) {}
BicameralWorkspace::~BicameralWorkspace() = default;
BicameralWorkspace::BicameralWorkspace(BicameralWorkspace&&) noexcept =
    default;
BicameralWorkspace& BicameralWorkspace::operator=(
    BicameralWorkspace&&) noexcept = default;

std::int64_t BicameralWorkspace::retained_bytes() const {
  const FlatScratch& t = impl_->flat;
  return static_cast<std::int64_t>(
      t.dist.capacity() * sizeof(std::int64_t) +
      t.parent.capacity() * sizeof(FlatScratch::ParentRec) +
      t.best_seen.capacity() * sizeof(std::int64_t) +
      t.walk.capacity() * sizeof(graph::EdgeId));
}

void BicameralWorkspace::release_excess() {
  if (retained_bytes() > kRetainBytes) impl_->flat = FlatScratch{};
}

struct AnchorScanMemo::Impl {
  // (budget, sign, anchor, rounds)
  using Key = std::tuple<graph::Cost, int, graph::VertexId, int>;

  const graph::Digraph* graph = nullptr;
  std::vector<graph::EdgeId> start_edges;
  std::map<Key, ScanRecord> entries;
  std::int64_t bytes = 0;  // sum of entries' bytes()
  ScanRecord scratch;      // the scan being recorded

  // Keeps the scan just recorded in `scratch` under `key`, replacing
  // `old` (the key's previous entry, or null).
  void store(const Key& key, ScanRecord* old) {
    if (old != nullptr) {
      bytes -= old->bytes();
      *old = scratch;
    } else {
      old = &entries.emplace(key, scratch).first->second;
    }
    bytes += old->bytes();
  }
};

AnchorScanMemo::AnchorScanMemo() : impl_(std::make_unique<Impl>()) {}
AnchorScanMemo::~AnchorScanMemo() = default;
AnchorScanMemo::AnchorScanMemo(AnchorScanMemo&&) noexcept = default;
AnchorScanMemo& AnchorScanMemo::operator=(AnchorScanMemo&&) noexcept =
    default;

void AnchorScanMemo::bind(const graph::Digraph& graph,
                          const std::vector<graph::EdgeId>& start_edges) {
  Impl& m = *impl_;
  if (m.graph == &graph && m.start_edges == start_edges) return;
  m.graph = &graph;
  m.start_edges = start_edges;
  m.entries.clear();
  m.bytes = 0;
}

std::int64_t AnchorScanMemo::stored_bytes() const { return impl_->bytes; }

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
    BicameralStats* stats, BicameralWorkspace* ws,
    AnchorScanMemo* memo) const {
  ScanTally tally;
  const graph::Digraph& rg = residual.digraph();
  const int n = rg.num_vertices();
  // No negative residual arc ⇒ no qualifying cycle at any budget (its
  // negative total cost or delay would need a negative term).
  if (residual.negative_arcs().empty()) return std::nullopt;

  std::optional<BicameralWorkspace> local_ws;
  if (ws == nullptr) ws = &local_ws.emplace();
  Structure& st = ws->impl().structure;
  FlatScratch& flat = ws->impl().flat;
  st.build(residual);
  if (stats != nullptr) stats->sccs_skipped += st.sccs_skipped;

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

  AnchorScanMemo::Impl* const memo_impl =
      memo != nullptr ? &memo->impl() : nullptr;
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
      // One anchor DP batch: every anchor of this (budget, sign) pass.
      KRSP_OBS_SPAN("anchor_dp_batch");
      const graph::Cost start_layer = sign == 0 ? 0 : budget;
      const std::vector<graph::VertexId>& anchors = st.seeds[sign];
      if (stats != nullptr)
        stats->anchors_pruned += n - static_cast<int>(anchors.size());
      // Each anchor's DP stops on its own first hit, so each gets its own
      // tracker; merging them in anchor order keeps the earliest
      // best-ratio candidate.
      for (const graph::VertexId anchor : anchors) {
        Tracker tracker;
        AnchorStats anchor_stats;
        const int rounds = anchor_rounds(anchor);
        const AnchorScanMemo::Impl::Key key{budget, sign, anchor, rounds};
        ScanRecord* entry = nullptr;
        if (memo_impl != nullptr) {
          const auto it = memo_impl->entries.find(key);
          if (it != memo_impl->entries.end()) entry = &it->second;
        }
        if (entry != nullptr && replay_scan(*entry, query, query.enforce_cap,
                                            tracker, anchor_stats)) {
          ++tally.replayed;
        } else {
          tracker = Tracker{};
          anchor_stats = AnchorStats{};
          ScanRecord* record = nullptr;
          if (memo_impl != nullptr) {
            record = &memo_impl->scratch;
            record->reset(AnchorScanMemo::kMaxBytes - memo_impl->bytes +
                          (entry != nullptr ? entry->bytes() : 0));
          }
          scan_anchor_flat(residual, st, budget, max_abs_cost, anchor,
                           start_layer, rounds, query, query.enforce_cap,
                           flat, tracker, anchor_stats, record);
          ++tally.dp;
          if (record != nullptr && !record->overflowed) {
            record->dp_bytes = anchor_stats.dp_bytes;
            memo_impl->store(key, entry);
          }
        }
        global.merge(std::move(tracker));
        if (stats != nullptr) {
          ++stats->anchors_scanned;
          stats->walks_examined += anchor_stats.walks;
          stats->cycles_classified += anchor_stats.cycles;
          stats->peak_dp_bytes =
              std::max(stats->peak_dp_bytes, anchor_stats.dp_bytes);
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
