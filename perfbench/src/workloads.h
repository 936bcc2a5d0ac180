// The two workloads; each returns the report main.cc prints.
#pragma once

#include "harness.h"

namespace perfbench {

/// Per-topology lambda-search queries on the committed corpus.
[[nodiscard]] Report run_corpus_lagrange(const Args& args);
/// Exact-mode ER instances whose phase-1 answer misses the delay bound.
[[nodiscard]] Report run_tight_cancel(const Args& args);

}  // namespace perfbench
