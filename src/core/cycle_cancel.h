// Algorithm 1: improve a phase-1 solution by repeated bicameral cycle
// cancellation until the delay bound is met.
//
// The driver maintains the k disjoint paths as a unit flow edge set,
// rebuilds the residual graph (Definition 6) each iteration, queries the
// bicameral finder with the live ratio r_i = ΔD_i/ΔC_i and the cost cap Ĉ
// (the caller's certified guess for C_OPT), applies F ⊕ O (Proposition 7),
// and re-decomposes into k simple disjoint paths. Telemetry records the
// r_i trace — Lemma 12 predicts it is non-decreasing — and the cycle type
// mix, both checked by tests and reported by bench_iterations.
#pragma once

#include <vector>

#include "core/bicameral.h"
#include "core/instance.h"
#include "core/path_set.h"
#include "util/deadline.h"
#include "util/rational.h"

namespace krsp::core {

enum class CancelStatus {
  kSuccess,           // delay bound met
  kNoBicameralCycle,  // no qualifying cycle (infeasible, or guess Ĉ < C_OPT)
  kIterationLimit,    // safety valve tripped
  kDeadlineExpired,   // wall-clock budget ran out mid-cancellation
};

struct CycleCancelOptions {
  BicameralCycleFinder::Options finder;
  /// 0 = derive a generous bound from Lemma 13, capped at 100000.
  std::int64_t max_iterations = 0;
  /// Ablation: drop the Definition-10 cost cap and ratio test and greedily
  /// take the best-ratio delay-reducing cycle (the Figure-1 pathology).
  bool unsafe_no_cap = false;
  /// Wall-clock budget, checked before each cancellation round. On expiry
  /// the driver returns kDeadlineExpired with the current (valid, possibly
  /// still delay-infeasible) paths — an anytime intermediate, never an
  /// invalid set. Unbounded by default.
  util::Deadline deadline;
};

struct CycleCancelTelemetry {
  std::int64_t iterations = 0;
  std::int64_t type_counts[3] = {0, 0, 0};  // indexed by CycleType
  std::vector<util::Rational> ratio_trace;  // r_i per iteration (ΔC_i > 0)
  bool ratio_monotone = true;               // Lemma 12 check
  /// Accumulated over every finder call of the cancellation run: counters
  /// (anchors scanned/pruned, walks, budgets, SCCs skipped) sum across
  /// rounds, while peak_dp_bytes stays a max — it is a high-water memory
  /// mark, and summing table sizes across rounds would be meaningless.
  BicameralStats finder_stats;
};

struct CycleCancelResult {
  CancelStatus status = CancelStatus::kNoBicameralCycle;
  PathSet paths;
  graph::Cost cost = 0;
  graph::Delay delay = 0;
  CycleCancelTelemetry telemetry;
};

/// Runs Algorithm 1 from `start` (k disjoint paths, possibly delay-
/// infeasible) with cost cap `cost_guess`. On kSuccess the returned paths
/// satisfy the delay bound and cost <= start-cost-path + Ĉ (Lemma 11 gives
/// <= 2·Ĉ when start comes from phase 1 and Ĉ >= C_OPT). `finder_ws`
/// (optional) reuses the bicameral finder's DP tables across rounds and
/// across solves. `memo` (optional) carries first-round anchor scans
/// across runs from the same start, e.g. the cost-guess search of one
/// solve: the run binds it to `start`'s edge set (dropping entries
/// recorded from any other start) and replays and records scans in its
/// first round only, whose residual graph depends on `start` alone. The
/// unsafe_no_cap ablation ignores it. Results and telemetry are identical
/// with or without either.
CycleCancelResult cancel_cycles(const Instance& inst, const PathSet& start,
                                graph::Cost cost_guess,
                                const CycleCancelOptions& options = {},
                                BicameralWorkspace* finder_ws = nullptr,
                                AnchorScanMemo* memo = nullptr);

}  // namespace krsp::core
