// Bit-identity of the unit-capacity MCMF engine (flow/min_cost_flow.h) and
// of phase 1 against the test oracles: the general-capacity MinCostFlow
// and the phase 1 that ran on it. Among equal-weight flows both must pick
// the same one, so the comparison is on edge sets, not only on weights.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/phase1.h"
#include "flow/min_cost_flow.h"
#include "graph/generators.h"
#include "oracles/min_cost_flow.h"
#include "oracles/phase1_reference.h"
#include "store/container.h"
#include "util/rng.h"

namespace krsp {
namespace {

using flow::McfWorkspace;
using flow::UnitFlowResult;

void expect_same_flow(const std::optional<UnitFlowResult>& got,
                      const std::optional<UnitFlowResult>& want,
                      const std::string& what) {
  ASSERT_EQ(got.has_value(), want.has_value()) << what;
  if (!want) return;
  EXPECT_EQ(got->weight, want->weight) << what;
  EXPECT_EQ(got->edges, want->edges) << what;
}

/// G(n, p) with weights drawn from {0..3} (zeros make ties common), plus
/// parallel copies of random edges and self-loops, appended so they get
/// the highest edge ids and interleave with the originals in CSR rows.
graph::Digraph er_multigraph(util::Rng& rng, int n) {
  graph::Digraph g = gen::erdos_renyi(rng, n, rng.uniform_real(0.15, 0.6),
                                      gen::WeightRange{0, 3, 0, 3});
  const int base = g.num_edges();
  const int parallels =
      base == 0 ? 0 : static_cast<int>(rng.uniform_int(0, 4));
  for (int i = 0; i < parallels; ++i) {
    const auto& e =
        g.edge(static_cast<graph::EdgeId>(rng.uniform_int(0, base - 1)));
    g.add_edge(e.from, e.to, rng.uniform_int(0, 3), rng.uniform_int(0, 3));
  }
  const int loops = static_cast<int>(rng.uniform_int(0, 2));
  for (int i = 0; i < loops; ++i) {
    const auto v = static_cast<graph::VertexId>(rng.uniform_int(0, n - 1));
    g.add_edge(v, v, rng.uniform_int(0, 3), rng.uniform_int(0, 3));
  }
  return g;
}

TEST(UnitMcfIdentity, MatchesOracleOnRandomMultigraphs) {
  util::Rng rng(20150613);
  McfWorkspace reused;  // crosses topologies: every bind() must rebuild
  int feasible = 0;
  constexpr int kInstances = 2400;
  for (int trial = 0; trial < kInstances; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(2, 12));
    const graph::Digraph g = er_multigraph(rng, n);
    const auto s = static_cast<graph::VertexId>(rng.uniform_int(0, n - 1));
    auto t = static_cast<graph::VertexId>(rng.uniform_int(0, n - 2));
    if (t >= s) ++t;
    const int k = 1 + trial % 3;
    const std::int64_t wc = rng.uniform_int(0, 3);
    const std::int64_t wd = rng.uniform_int(0, 3);
    const std::string what = "trial " + std::to_string(trial);
    const auto want = flow::reference_unit_flow(g, s, t, k, wc, wd);
    expect_same_flow(flow::min_weight_unit_flow(g, s, t, k, wc, wd), want,
                     what + " fresh");
    expect_same_flow(flow::min_weight_unit_flow(g, s, t, k, wc, wd, &reused),
                     want, what + " reused");
    // A second solve on the bound network, under other weights and k.
    const std::int64_t wc2 = rng.uniform_int(0, 5);
    const std::int64_t wd2 = rng.uniform_int(0, 5);
    const int k2 = 1 + (trial / 3) % 3;
    expect_same_flow(reused.solve(g, s, t, k2, wc2, wd2),
                     flow::reference_unit_flow(g, s, t, k2, wc2, wd2),
                     what + " rebound");
    if (want) ++feasible;
  }
  // Both outcomes must be well represented for the identity to mean much.
  EXPECT_GT(feasible, kInstances / 4);
  EXPECT_LT(feasible, kInstances);
  EXPECT_GT(reused.reuse_hits(), 0u);
}

TEST(UnitMcfIdentity, MatchesOracleWhenLabelsOutgrowPackedKeys) {
  // 4096 vertices leave 52 bits for a packed label; weights near 2^51 on a
  // handful of active vertices push the total weight past that, where the
  // engine must order (dist, vertex) pairs instead of packed words. A few
  // repeated values keep ties in play.
  util::Rng rng(4242);
  constexpr int kVertices = 4096;
  constexpr std::int64_t kBig = std::int64_t{1} << 50;
  const std::int64_t values[] = {0, kBig, 2 * kBig, 3 * kBig};
  const std::pair<std::int64_t, std::int64_t> multipliers[] = {
      {1, 0}, {0, 1}, {1, 1}, {2, 1}};
  const auto draw = [&] { return values[rng.uniform_int(0, 3)]; };
  McfWorkspace ws;
  int feasible = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const int active = static_cast<int>(rng.uniform_int(2, 10));
    graph::Digraph g(kVertices);
    const int m = static_cast<int>(rng.uniform_int(1, 14));
    for (int i = 0; i < m; ++i)
      g.add_edge(static_cast<graph::VertexId>(rng.uniform_int(0, active - 1)),
                 static_cast<graph::VertexId>(rng.uniform_int(0, active - 1)),
                 draw(), draw());
    const auto s = static_cast<graph::VertexId>(rng.uniform_int(0, active - 1));
    auto t = static_cast<graph::VertexId>(rng.uniform_int(0, active - 2));
    if (t >= s) ++t;
    const int k = 1 + trial % 2;
    const auto [wc, wd] = multipliers[trial % 4];
    expect_same_flow(flow::min_weight_unit_flow(g, s, t, k, wc, wd, &ws),
                     flow::reference_unit_flow(g, s, t, k, wc, wd),
                     "trial " + std::to_string(trial));
    if (flow::reference_unit_flow(g, s, t, k, wc, wd)) ++feasible;
  }
  EXPECT_GT(feasible, 60);
}

TEST(UnitMcfIdentity, Phase1MatchesReferenceOnRandomInstances) {
  util::Rng rng(1504);
  flow::McfWorkspace ws;
  int lagrangian = 0;
  for (int trial = 0; trial < 600; ++trial) {
    core::Instance inst;
    const int n = static_cast<int>(rng.uniform_int(4, 14));
    inst.graph = gen::erdos_renyi(rng, n, rng.uniform_real(0.2, 0.5),
                                  gen::WeightRange{0, 9, 0, 9});
    inst.s = 0;
    inst.t = n - 1;
    inst.k = 1 + trial % 3;
    inst.delay_bound = rng.uniform_int(0, 12 * inst.k);
    const auto want = core::phase1_lagrangian_reference(inst);
    const auto fresh = core::phase1_lagrangian(inst);
    const auto reused = core::phase1_lagrangian(inst, {}, &ws);
    EXPECT_TRUE(core::same_phase1_result(fresh, want)) << "trial " << trial;
    EXPECT_TRUE(core::same_phase1_result(reused, want)) << "trial " << trial;
    if (want.mcmf_calls > 2) ++lagrangian;
  }
  EXPECT_GT(lagrangian, 30);  // the λ search ran, not only the brackets
}

class CorpusIdentity : public ::testing::TestWithParam<const char*> {
 protected:
  core::Instance load() const {
    return store::CsrContainer::open(std::string(KRSP_DATA_DIR) +
                                     "/corpus/" + GetParam() + ".krspb")
        .instance();
  }
};

TEST_P(CorpusIdentity, LexicographicAndLaracWeightsMatchOracle) {
  const core::Instance inst = load();
  const graph::Digraph& g = inst.graph;
  const std::int64_t cost_heavy = g.total_delay() + 1;
  const std::int64_t delay_heavy = g.total_cost() + 1;
  const std::vector<std::pair<std::int64_t, std::int64_t>> weights = {
      {cost_heavy, 1}, {1, delay_heavy}, {1, 0}, {0, 1},
      {1, 1},          {3, 7},           {11, 2}, {5, 5}};
  McfWorkspace ws;
  util::Rng rng(64);
  for (int q = 0; q < 3; ++q) {
    const auto s =
        static_cast<graph::VertexId>(rng.uniform_int(0, g.num_vertices() - 1));
    auto t = static_cast<graph::VertexId>(
        rng.uniform_int(0, g.num_vertices() - 2));
    if (t >= s) ++t;
    for (const auto& [wc, wd] : weights)
      expect_same_flow(
          flow::min_weight_unit_flow(g, s, t, inst.k, wc, wd, &ws),
          flow::reference_unit_flow(g, s, t, inst.k, wc, wd),
          std::string(GetParam()) + " s=" + std::to_string(s) +
              " t=" + std::to_string(t) + " w=(" + std::to_string(wc) + "," +
              std::to_string(wd) + ")");
  }
  EXPECT_EQ(ws.rebuilds(), 1u);
}

TEST_P(CorpusIdentity, Phase1MatchesReferenceOnLambdaSearchQueries) {
  core::Instance inst = load();
  const graph::Digraph& g = inst.graph;
  flow::McfWorkspace ws;
  util::Rng rng(99);
  int searched = 0;
  for (int attempt = 0; attempt < 60 && searched < 6; ++attempt) {
    inst.s =
        static_cast<graph::VertexId>(rng.uniform_int(0, g.num_vertices() - 1));
    inst.t =
        static_cast<graph::VertexId>(rng.uniform_int(0, g.num_vertices() - 1));
    if (inst.s == inst.t) continue;
    // D strictly between the min-delay and min-cost k-flows' delays, as in
    // the corpus-lagrange benchmark, so the λ search runs.
    const auto lo = flow::reference_unit_flow(g, inst.s, inst.t, inst.k, 1,
                                              g.total_cost() + 1);
    const auto hi = flow::reference_unit_flow(g, inst.s, inst.t, inst.k,
                                              g.total_delay() + 1, 1);
    if (!lo || !hi) continue;
    graph::Delay d_lo = 0, d_hi = 0;
    for (const auto e : lo->edges) d_lo += g.edge(e).delay;
    for (const auto e : hi->edges) d_hi += g.edge(e).delay;
    if (d_hi - d_lo < 2) continue;
    inst.delay_bound = rng.uniform_int(d_lo + 1, d_hi - 1);
    const auto want = core::phase1_lagrangian_reference(inst);
    const auto got = core::phase1_lagrangian(inst, {}, &ws);
    EXPECT_TRUE(core::same_phase1_result(got, want))
        << GetParam() << " s=" << inst.s << " t=" << inst.t
        << " D=" << inst.delay_bound;
    if (want.mcmf_calls <= 2) continue;
    ++searched;
    // The breakpoint's own weights (q, p) for λ* = p/q: the Lagrangian
    // objective is tied between F_lo and F_hi there, the hardest case for
    // a tie-break contract.
    const std::int64_t q = want.lambda.den();
    const std::int64_t p = want.lambda.num();
    expect_same_flow(
        flow::min_weight_unit_flow(g, inst.s, inst.t, inst.k, q, p, &ws),
        flow::reference_unit_flow(g, inst.s, inst.t, inst.k, q, p),
        std::string(GetParam()) + " at lambda* = " + std::to_string(p) + "/" +
            std::to_string(q));
  }
  EXPECT_GE(searched, 3);
}

INSTANTIATE_TEST_SUITE_P(Corpus, CorpusIdentity,
                         ::testing::Values("isp-backbone", "road-grid64",
                                           "scalefree-ba4000"),
                         [](const auto& param_info) {
                           std::string name = param_info.param;
                           for (char& c : name)
                             if (c == '-') c = '_';
                           return name;
                         });

TEST(Phase1Overflow, HugeWeightsAreATypedErrorNotACheck) {
  // Valid instance whose lexicographic weights (Σdelay+1)·cost + delay
  // overflow int64: before the guard this was signed-overflow UB that
  // surfaced as a "non-negative arc costs" KRSP_CHECK.
  core::Instance inst;
  inst.graph.resize(4);
  inst.graph.add_edge(0, 1, 3000000000, 3000000000);
  inst.graph.add_edge(1, 3, 3000000000, 1);
  inst.graph.add_edge(0, 2, 1, 3000000000);
  inst.graph.add_edge(2, 3, 1, 3000000000);
  inst.s = 0;
  inst.t = 3;
  inst.k = 2;
  inst.delay_bound = 4000000000;
  EXPECT_THROW(core::phase1_lagrangian(inst), core::WeightOverflowError);
  flow::McfWorkspace ws;
  EXPECT_THROW(core::phase1_lagrangian(inst, {}, &ws),
               core::WeightOverflowError);
}

TEST(Phase1Overflow, Lemma5ScoreComparesWithoutRationalOverflow) {
  // Weights pass the MCMF check (total weight near 1e18), but the Lemma 5
  // scores d/D + c/LB, added as Rationals, need a denominator near 2e26:
  // this used to fail a "Rational overflow after reduction" check.
  core::Instance inst;
  inst.graph.resize(4);
  inst.graph.add_edge(0, 1, 1, 499999991);
  inst.graph.add_edge(1, 3, 1, 499999993);
  inst.graph.add_edge(0, 2, 499999937, 1);
  inst.graph.add_edge(2, 3, 499999929, 2);
  inst.s = 0;
  inst.t = 3;
  inst.k = 1;
  inst.delay_bound = 700000001;
  const auto p1 = core::phase1_lagrangian(inst);
  ASSERT_EQ(p1.status, core::Phase1Status::kApprox);
  // The cheap, slow path: 999999984/D + 2/LB ≈ 1.43, against ≈ 3.33.
  EXPECT_EQ(p1.cost, 2);
  EXPECT_EQ(p1.delay, 999999984);
  EXPECT_GT(p1.cost_lower_bound, util::Rational(0));
}

}  // namespace
}  // namespace krsp
