// Test and bench oracle: the bicameral cycle finder as it ran before the
// SCC-compacted flat kernel.
//
// Every vertex is scanned as an anchor, over the full n·(budget+1)
// (vertex, cost-layer) state space, with nested dist/parent tables cleared
// eagerly before each anchor. Selection follows production's seed-only
// contract: only the anchors production scans (heads of negative arcs for
// H⁺, tails for H⁻, in SCCs holding an internal negative arc) contribute
// candidates, merged in ascending vertex order; the other anchors are
// scanned for their honest cost and their candidates dropped. The budget
// schedule, round bounds and tie-breaks are production's, so the result
// must equal BicameralCycleFinder::find exactly (core/bicameral.cc argues
// why; bicameral_prune_test and bench_kernel check it).
#pragma once

#include <optional>

#include "core/bicameral.h"
#include "core/residual.h"

namespace krsp::core {

/// Reference for BicameralCycleFinder(options).find(residual, query,
/// stats). Stats count every anchor scanned (none pruned, no SCC
/// skipped); peak_dp_bytes is the nested tables' size.
std::optional<FoundCycle> bicameral_find_reference(
    const ResidualGraph& residual, const BicameralQuery& query,
    const BicameralCycleFinder::Options& options = {},
    BicameralStats* stats = nullptr);

/// Same presence, and on presence the same edges, cost, delay and type.
bool same_found_cycle(const std::optional<FoundCycle>& a,
                      const std::optional<FoundCycle>& b);

}  // namespace krsp::core
