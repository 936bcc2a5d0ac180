// Test oracle: phase 1 (Lemma 5) exactly as it ran on the general-capacity
// MinCostFlow, before the unit-capacity engine. Every LARAC call builds a
// fresh network; there is no deadline and no workspace. The production
// phase1_lagrangian must return an equal Phase1Result on every instance
// whose weights fit in 64 bits.
#pragma once

#include "core/instance.h"
#include "core/phase1.h"

namespace krsp::core {

Phase1Result phase1_lagrangian_reference(const Instance& inst);

/// Field-by-field equality of two phase-1 results (paths compared edge id
/// by edge id, in order).
bool same_phase1_result(const Phase1Result& a, const Phase1Result& b);

}  // namespace krsp::core
