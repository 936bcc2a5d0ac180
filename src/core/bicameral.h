// Bicameral cycle computation (Definition 10 + Algorithm 3).
//
// The finder searches the residual graph G̃ for a cycle O that is
//   type-0:  d(O) < 0, c(O) <= 0   or   d(O) <= 0, c(O) < 0
//   type-1:  d(O) < 0, 0 < c(O) <= cap,   d(O)/c(O) <= r
//   type-2:  d(O) >= 0, -cap <= c(O) < 0, d(O)/c(O) > r
//            (strict, strengthening Definition 10's >=; see classify())
// where r = ΔD/ΔC < 0 is the live ratio of Definition 10 and cap plays the
// role of C_OPT (the solver passes its certified cost guess Ĉ >= C_OPT).
//
// Realization of Algorithms 2–3: instead of materializing H_v^±(B) and
// solving LP (6), the finder runs a Bellman–Ford DP over the implicit
// product states (vertex, cost-layer), bounded per anchor to |SCC(anchor)|
// rounds (the witness cycles of Theorem 16 — optimal ⊕ current — are
// simple and confined to one strongly connected component). Min-delay
// closed walks are decomposed into simple residual cycles and classified;
// type-0 hits return immediately, otherwise the best qualifying
// type-1/type-2 candidate wins. Budgets B follow a doubling schedule up to
// cap (the binary-search refinement the paper sketches in §4.2); witness
// prefix confinement (ascent <= C_OPT <= cap) guarantees completeness at
// B = cap. The LP-based reference finder (core/lp_cycle_finder.h)
// cross-validates this component in tests.
//
// Residual-structure pruning (DESIGN.md §3). Every qualifying cycle has
// negative total cost or negative total delay, so it contains at least one
// arc with cost < 0 or delay < 0, and — like any cycle — lives entirely
// inside one SCC of G̃. The finder therefore anchors its H⁺ scans only at
// the *heads* of negative arcs (the min-cost-prefix rotation of a
// qualifying cycle starts at one) and its H⁻ scans only at the *tails*
// (max-prefix rotation), skips every SCC with no internal negative arc,
// runs each anchor's DP on its own SCC with compacted vertex ids
// (|scc|·(budget+1) states instead of n·(budget+1)), and stores the DP in
// flat rolling arrays. Anchors are scanned serially, one after another, in
// ascending vertex order. The pre-rewrite full-state-space kernel is kept
// outside the library as a test and bench oracle
// (tests/oracles/bicameral_reference.h); bicameral_prune_test and
// bench_kernel (E13) hold the two bit-identical.
//
// Memory: exact mode is pseudo-polynomial in the costs, so the DP tables
// of one anchor grow with the budget. A scan whose tables would exceed
// kMaxDpBytes throws the typed DpLimitError before allocating them, and
// BicameralWorkspace::release_excess returns tables above kRetainBytes to
// the allocator between solves.
//
// Replay (DESIGN.md §3). An anchor scan's DP — which walks it harvests,
// round by round — depends on the residual graph, the budget, the sign and
// the anchor, never on the query: only the classification of the harvested
// cycles and the early stop read cap and ratio. An AnchorScanMemo records
// each scan's harvested cycles per round; a later find on the same residual
// re-classifies them under its own query and re-applies the stop rule
// instead of running the DP again, with identical results and stats.
//
// Note on Algorithm 3 step 2-3 as printed: the brief announcement selects
// O2 by "minimum d/c with c < 0" and compares absolute ratios; consistent
// with Definition 10 and the proofs of Lemma 12 / Theorem 16, the correct
// extremal choice is *maximum* d/c for type-2 (and minimum for type-1), and
// qualification is checked against r directly. We implement the latter and
// document the discrepancy here and in DESIGN.md.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/residual.h"
#include "util/rational.h"

namespace krsp::core {

enum class CycleType { kType0, kType1, kType2 };

struct FoundCycle {
  std::vector<graph::EdgeId> edges;  // residual edge ids
  graph::Cost cost = 0;
  graph::Delay delay = 0;
  CycleType type = CycleType::kType0;
};

struct BicameralQuery {
  /// Definition 10 cost cap (C_OPT stand-in; the solver's guess Ĉ).
  graph::Cost cap = 0;
  /// r = ΔD/ΔC. Must be negative in Algorithm 1's loop (delay over budget,
  /// cost below cap).
  util::Rational ratio = 0;
  /// Ablation switch: false reproduces the Figure-1 pathology by selecting
  /// the best-ratio delay-reducing cycle with no cost cap.
  bool enforce_cap = true;
};

struct BicameralStats {
  std::int64_t anchors_scanned = 0;
  std::int64_t walks_examined = 0;
  std::int64_t cycles_classified = 0;
  std::int64_t budgets_tried = 0;
  /// Anchors NOT scanned relative to the classical all-vertices scan,
  /// summed over (budget, sign) passes: non-seed vertices plus seeds whose
  /// SCC has no internal negative arc.
  std::int64_t anchors_pruned = 0;
  /// SCCs containing at least one seed anchor but no internal negative arc
  /// — their anchors are provably barren and skipped (counted once per
  /// find() call).
  std::int64_t sccs_skipped = 0;
  /// High-water mark of the DP tables (dist rows + parent records) across
  /// all anchors, in bytes. Max-aggregated, never summed.
  std::int64_t peak_dp_bytes = 0;
};

/// A bicameral scan refused because its DP tables would exceed
/// BicameralCycleFinder::kMaxDpBytes: a typed input error (costs too large
/// for exact mode), thrown before the allocation.
class DpLimitError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Reusable scratch for BicameralCycleFinder::find: the layered Bellman–
/// Ford tables over the (vertex, cost-layer) product states, which dominate
/// the finder's allocations — flat rolling dist rows plus packed per-round
/// parent records, and the residual-structure analysis (SCC partition,
/// compacted per-SCC adjacency, seed anchor lists). Handing the same
/// workspace to successive find calls (the cancellation loop, repeat solves
/// in the batch engine) keeps the tables' storage alive across calls;
/// dimensions are re-checked and grown on demand, so any residual graph is
/// safe. Not thread-safe; use one per thread.
class BicameralWorkspace {
 public:
  /// Table storage kept across solves by release_excess: well above E13's
  /// ~17 MB full-run peak, so ordinary workloads never give tables back.
  static constexpr std::int64_t kRetainBytes = std::int64_t{32} << 20;

  BicameralWorkspace();
  ~BicameralWorkspace();
  BicameralWorkspace(BicameralWorkspace&&) noexcept;
  BicameralWorkspace& operator=(BicameralWorkspace&&) noexcept;
  BicameralWorkspace(const BicameralWorkspace&) = delete;
  BicameralWorkspace& operator=(const BicameralWorkspace&) = delete;

  /// Bytes of DP table storage currently held.
  [[nodiscard]] std::int64_t retained_bytes() const;
  /// Frees the DP tables if they hold more than kRetainBytes, so one huge
  /// exact-mode request does not pin its tables for a worker's lifetime.
  /// Never changes results: tables are regrown on demand.
  void release_excess();

  struct Impl;  // defined in bicameral.cc
  [[nodiscard]] Impl& impl() const { return *impl_; }

 private:
  std::unique_ptr<Impl> impl_;
};

/// Per-solve record of anchor scans for replay across the cost-guess
/// search (see the file comment). Each entry, keyed by (budget, sign,
/// anchor, rounds), holds one scan's harvested cycles per round as edges,
/// cost and delay, its walk counts and table size, and whether the scan
/// ran to completion or stopped on a hit. find() replays an entry under
/// its own query when the recorded rounds settle the scan, and otherwise
/// runs the DP and overwrites the entry. Scans that throw DpLimitError are
/// never recorded; past kMaxBytes of storage, new scans are not recorded.
///
/// An entry is only valid for the residual graph it was recorded on:
/// cancel_cycles binds the memo to its start edge set and hands it to its
/// first round only. Not thread-safe; one memo serves one solve.
class AnchorScanMemo {
 public:
  /// Bound on the bytes of recorded cycles and rounds per memo.
  static constexpr std::int64_t kMaxBytes = std::int64_t{8} << 20;

  AnchorScanMemo();
  ~AnchorScanMemo();
  AnchorScanMemo(AnchorScanMemo&&) noexcept;
  AnchorScanMemo& operator=(AnchorScanMemo&&) noexcept;
  AnchorScanMemo(const AnchorScanMemo&) = delete;
  AnchorScanMemo& operator=(const AnchorScanMemo&) = delete;

  /// Binds the memo to the residual graph of `graph` with flow edge set
  /// `start_edges`; any other binding than the current one (compared
  /// exactly) drops every entry.
  void bind(const graph::Digraph& graph,
            const std::vector<graph::EdgeId>& start_edges);
  /// Bytes of recorded cycles and rounds currently stored.
  [[nodiscard]] std::int64_t stored_bytes() const;

  struct Impl;  // defined in bicameral.cc
  [[nodiscard]] Impl& impl() const { return *impl_; }

 private:
  std::unique_ptr<Impl> impl_;
};

class BicameralCycleFinder {
 public:
  struct Options {
    /// First budget of the doubling schedule.
    graph::Cost initial_budget = 8;
    /// Hard bound on Bellman–Ford rounds per anchor; <= 0 means the size of
    /// the anchor's SCC (the witness-cycle length bound).
    int max_rounds = 0;
  };

  /// Largest DP table one anchor scan may allocate (dist rows + parent
  /// records). E13's full run peaks near 17 MB, so only inputs whose costs
  /// push the budget into the millions come near it.
  static constexpr std::int64_t kMaxDpBytes = std::int64_t{256} << 20;

  BicameralCycleFinder() : options_(Options{}) {}
  explicit BicameralCycleFinder(Options options) : options_(options) {}

  /// Finds a bicameral cycle in `residual` per `query`, or nullopt if none
  /// exists (at any budget up to the cap / total-cost bound). `ws`
  /// (optional) reuses the DP tables across calls; without one the call
  /// uses a local workspace. `memo` (optional) replays anchor scans
  /// recorded by earlier calls on the same residual graph and records new
  /// ones; the caller must have bound it to `residual`. Same result and
  /// stats with or without either. Throws DpLimitError when a scan's
  /// tables would exceed kMaxDpBytes.
  [[nodiscard]] std::optional<FoundCycle> find(
      const ResidualGraph& residual, const BicameralQuery& query,
      BicameralStats* stats = nullptr, BicameralWorkspace* ws = nullptr,
      AnchorScanMemo* memo = nullptr) const;

  /// Classification per Definition 10 (exposed for tests and the LP
  /// reference finder).
  static std::optional<CycleType> classify(graph::Cost c, graph::Delay d,
                                           graph::Cost cap,
                                           const util::Rational& ratio,
                                           bool enforce_cap);

 private:
  Options options_;
};

}  // namespace krsp::core
