/// Tests for the analytic subsystem: the feasibility scorer's structural
/// classification, exact-enumeration pins for the message-passing estimator
/// on paths/stars/trees and a small loopy graph, the loopy fallback's
/// calibration, one reused AnalyticWorkspace answering bit-identically to
/// fresh ones, AnalyticImpact against SimulateImpact, the
/// BackendDispatcher's routing (auto picks analytic only on exact regimes,
/// conditioning always replays the bank, all-analytic batches skip the bank
/// plan), the protocol's backend field, and
/// a randomized differential suite: every analytic answer within 3×MCSE of
/// the MH + bank replay estimate.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analytic/cascade_estimator.h"
#include "analytic/feasibility.h"
#include "core/exact_flow.h"
#include "core/impact.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/sample_bank.h"
#include "util/json.h"

namespace infoflow::analytic {
namespace {

std::shared_ptr<const DirectedGraph> Share(DirectedGraph g) {
  return std::make_shared<const DirectedGraph>(std::move(g));
}

/// Path 0 → 1 → ... → n-1.
std::shared_ptr<const DirectedGraph> Path(NodeId n) {
  GraphBuilder b(n);
  for (NodeId v = 0; v + 1 < n; ++v) b.AddEdge(v, v + 1).CheckOK();
  return Share(std::move(b).Build());
}

/// Star with center 0 and leaves 1..k.
std::shared_ptr<const DirectedGraph> Star(NodeId leaves) {
  GraphBuilder b(leaves + 1);
  for (NodeId v = 1; v <= leaves; ++v) b.AddEdge(0, v).CheckOK();
  return Share(std::move(b).Build());
}

/// Diamond 0→1, 0→2, 1→3, 2→3: the smallest multi-path shape — loopy for
/// the tree factorization, trivially enumerable.
std::shared_ptr<const DirectedGraph> Diamond() {
  GraphBuilder b(4);
  b.AddEdge(0, 1).CheckOK();
  b.AddEdge(0, 2).CheckOK();
  b.AddEdge(1, 3).CheckOK();
  b.AddEdge(2, 3).CheckOK();
  return Share(std::move(b).Build());
}

/// Every node id of `g` in order, so answers index like node ids.
std::vector<NodeId> AllNodes(const DirectedGraph& g) {
  std::vector<NodeId> nodes(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) nodes[v] = v;
  return nodes;
}

std::vector<double> RandomProbs(const DirectedGraph& g, std::uint64_t seed,
                                double lo = 0.15, double hi = 0.85) {
  Rng rng(seed);
  std::vector<double> probs(g.num_edges());
  for (double& p : probs) p = rng.Uniform(lo, hi);
  return probs;
}

// ---------------------------------------------------------- feasibility

TEST(AssessFeasibility, PathIsTreeLike) {
  auto g = Path(6);
  const NodeId sources[] = {0};
  const FeasibilityReport report = AssessFeasibility(*g, sources);
  EXPECT_TRUE(report.tree_like);
  EXPECT_TRUE(report.feasible);
  EXPECT_EQ(report.reachable_nodes, 6u);
  EXPECT_EQ(report.relevant_edges, 5u);
  EXPECT_EQ(report.excess_edges, 0u);
  EXPECT_DOUBLE_EQ(report.expected_error, 0.0);
}

TEST(AssessFeasibility, StarIsTreeLike) {
  auto g = Star(8);
  const NodeId sources[] = {0};
  const FeasibilityReport report = AssessFeasibility(*g, sources);
  EXPECT_TRUE(report.tree_like);
  EXPECT_EQ(report.relevant_edges, 8u);
  EXPECT_EQ(report.excess_edges, 0u);
}

TEST(AssessFeasibility, DiamondHasOneExcessEdgeButEnumerates) {
  auto g = Diamond();
  const NodeId sources[] = {0};
  const FeasibilityReport report = AssessFeasibility(*g, sources);
  EXPECT_FALSE(report.tree_like);
  EXPECT_EQ(report.excess_edges, 1u);  // node 3 owns two reachable in-edges
  EXPECT_TRUE(report.enumerable);      // 4 edges << max_enumeration_edges
  EXPECT_TRUE(report.feasible);
  EXPECT_DOUBLE_EQ(report.expected_error, 0.0);  // an exact regime applies
}

TEST(AssessFeasibility, DenseGraphIsInfeasible) {
  Rng rng(11);
  auto g = Share(UniformRandomGraph(30, 240, rng));
  const NodeId sources[] = {0};
  const FeasibilityReport report = AssessFeasibility(*g, sources);
  EXPECT_FALSE(report.tree_like);
  EXPECT_FALSE(report.enumerable);
  EXPECT_GT(report.excess_ratio, 0.25);
  EXPECT_FALSE(report.feasible);
  EXPECT_GT(report.expected_error, 0.0);
}

TEST(AssessFeasibility, EdgesIntoSourcesAreIrrelevant) {
  // 1 → 0 plus 0 → 2: the in-edge of the source can never matter.
  GraphBuilder b(3);
  b.AddEdge(1, 0).CheckOK();
  b.AddEdge(0, 2).CheckOK();
  auto g = Share(std::move(b).Build());
  const NodeId sources[] = {0};
  const FeasibilityReport report = AssessFeasibility(*g, sources);
  EXPECT_EQ(report.reachable_nodes, 2u);  // {0, 2}; node 1 unreachable
  EXPECT_EQ(report.relevant_edges, 1u);
  EXPECT_TRUE(report.tree_like);
}

TEST(AssessFeasibility, MultiSourceForestIsTreeLike) {
  // Two disjoint paths rooted at the two sources.
  GraphBuilder b(6);
  b.AddEdge(0, 1).CheckOK();
  b.AddEdge(1, 2).CheckOK();
  b.AddEdge(3, 4).CheckOK();
  b.AddEdge(4, 5).CheckOK();
  auto g = Share(std::move(b).Build());
  const NodeId sources[] = {0, 3};
  const FeasibilityReport report = AssessFeasibility(*g, sources);
  EXPECT_EQ(report.reachable_sources, 2u);
  EXPECT_EQ(report.reachable_nodes, 6u);
  EXPECT_TRUE(report.tree_like);
}

// ------------------------------------------------- estimator: exact pins

TEST(ReachProbabilities, PathClosedForm) {
  auto g = Path(3);
  const std::vector<double> probs = {0.6, 0.5};
  const NodeId sources[] = {0};
  AnalyticWorkspace ws;
  auto answer = ReachProbabilities(*g, probs, sources, AllNodes(*g), ws);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->method, AnalyticMethod::kTreeExact);
  EXPECT_DOUBLE_EQ(answer->probability[0], 1.0);
  EXPECT_NEAR(answer->probability[1], 0.6, 1e-12);
  EXPECT_NEAR(answer->probability[2], 0.3, 1e-12);
}

TEST(ReachProbabilities, StarLeavesAreIndependentEdges) {
  auto g = Star(4);
  const std::vector<double> probs = {0.1, 0.3, 0.5, 0.7};
  const NodeId sources[] = {0};
  AnalyticWorkspace ws;
  auto answer = ReachProbabilities(*g, probs, sources, AllNodes(*g), ws);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->method, AnalyticMethod::kTreeExact);
  for (NodeId leaf = 1; leaf <= 4; ++leaf) {
    // Leaf order follows edge-id order (GraphBuilder sorts by (src, dst)).
    EXPECT_NEAR(answer->probability[leaf], probs[leaf - 1], 1e-12);
  }
}

TEST(ReachProbabilities, RandomTreeMatchesEnumerationEverywhere) {
  Rng rng(5);
  auto g = Share(RandomTreeGraph(14, 3, rng));  // 13 edges: enumerable
  const std::vector<double> probs = RandomProbs(*g, 6);
  const PointIcm model(g, probs);
  const NodeId sources[] = {0};
  AnalyticWorkspace ws;
  auto answer = ReachProbabilities(*g, probs, sources, AllNodes(*g), ws);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->method, AnalyticMethod::kTreeExact);
  for (NodeId v = 0; v < g->num_nodes(); ++v) {
    EXPECT_NEAR(answer->probability[v], ExactFlowByEnumeration(model, 0, v),
                1e-9)
        << "node " << v;
  }
}

TEST(ReachProbabilities, DiamondAnswersExactlyByEnumeration) {
  auto g = Diamond();
  const std::vector<double> probs = {0.5, 0.4, 0.7, 0.6};
  const PointIcm model(g, probs);
  const NodeId sources[] = {0};
  AnalyticWorkspace ws;
  auto answer = ReachProbabilities(*g, probs, sources, AllNodes(*g), ws);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->method, AnalyticMethod::kEnumeration);
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_NEAR(answer->probability[v], ExactFlowByEnumeration(model, 0, v),
                1e-9);
  }
}

TEST(ReachProbabilities, LoopyMarginalsExactWhenPathsShareOnlyTheSource) {
  // Forcing the loopy regime on the diamond (enumeration budget 0): the two
  // 0→3 paths share no edge, so the independence approximation is exact.
  auto g = Diamond();
  const std::vector<double> probs = {0.5, 0.4, 0.7, 0.6};
  const PointIcm model(g, probs);
  AnalyticOptions options;
  options.feasibility.max_enumeration_edges = 0;
  const NodeId sources[] = {0};
  AnalyticWorkspace ws;
  auto answer =
      ReachProbabilities(*g, probs, sources, AllNodes(*g), ws, options);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_EQ(answer->method, AnalyticMethod::kLoopy);
  EXPECT_GT(answer->report.expected_error, 0.0);
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_NEAR(answer->probability[v], ExactFlowByEnumeration(model, 0, v),
                1e-9);
  }
}

TEST(ReachProbabilities, RequireExactRefusesTheLoopyRegime) {
  auto g = Diamond();
  const std::vector<double> probs = {0.5, 0.4, 0.7, 0.6};
  AnalyticOptions options;
  options.feasibility.max_enumeration_edges = 0;
  options.require_exact = true;
  const NodeId sources[] = {0};
  AnalyticWorkspace ws;
  auto answer =
      ReachProbabilities(*g, probs, sources, AllNodes(*g), ws, options);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ReachProbabilities, DenseGraphRefusedWithDescriptiveStatus) {
  Rng rng(12);
  auto g = Share(UniformRandomGraph(30, 240, rng));
  const std::vector<double> probs = RandomProbs(*g, 13);
  const NodeId sources[] = {0};
  AnalyticWorkspace ws;
  auto answer = ReachProbabilities(*g, probs, sources, AllNodes(*g), ws);
  ASSERT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(answer.status().message().find("tree-like"), std::string::npos)
      << answer.status();
}

TEST(ReachProbabilities, RejectsOutOfRangeSourceAndProbSpanMismatch) {
  auto g = Path(3);
  const std::vector<double> probs = {0.5, 0.5};
  const NodeId sinks[] = {2};
  AnalyticWorkspace ws;
  const NodeId bad_source[] = {7};
  EXPECT_FALSE(ReachProbabilities(*g, probs, bad_source, sinks, ws).ok());
  const std::vector<double> short_probs = {0.5};
  const NodeId sources[] = {0};
  EXPECT_FALSE(ReachProbabilities(*g, short_probs, sources, sinks, ws).ok());
  EXPECT_FALSE(
      ReachProbabilities(*g, probs, std::span<const NodeId>{}, sinks, ws)
          .ok());
  const NodeId bad_sink[] = {3};
  EXPECT_FALSE(ReachProbabilities(*g, probs, sources, bad_sink, ws).ok());
}

// ----------------------------------------------------- cascade-size PMFs

TEST(CascadeSizePmf, PathPmfIsTelescoped) {
  auto g = Path(3);
  const std::vector<double> probs = {0.6, 0.5};
  AnalyticWorkspace ws;
  auto pmf = CascadeSizePmf(*g, probs, 0, ws);
  ASSERT_TRUE(pmf.ok()) << pmf.status();
  EXPECT_EQ(pmf->method, AnalyticMethod::kTreeExact);
  ASSERT_EQ(pmf->impact.size(), 3u);
  EXPECT_NEAR(pmf->impact[0], 0.4, 1e-12);         // edge 0 closed
  EXPECT_NEAR(pmf->impact[1], 0.6 * 0.5, 1e-12);   // open, then closed
  EXPECT_NEAR(pmf->impact[2], 0.6 * 0.5, 1e-12);   // both open
  EXPECT_NEAR(pmf->Mean(), 0.6 + 0.6 * 0.5, 1e-12);
}

TEST(CascadeSizePmf, StarPmfIsBinomial) {
  auto g = Star(3);
  const std::vector<double> probs = {0.5, 0.5, 0.5};
  AnalyticWorkspace ws;
  auto pmf = CascadeSizePmf(*g, probs, 0, ws);
  ASSERT_TRUE(pmf.ok()) << pmf.status();
  ASSERT_EQ(pmf->impact.size(), 4u);
  const double expected[] = {0.125, 0.375, 0.375, 0.125};
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_NEAR(pmf->impact[k], expected[k], 1e-12) << "k=" << k;
  }
}

TEST(CascadeSizePmf, SinkSourceIsPointMassAtZero) {
  auto g = Path(3);
  const std::vector<double> probs = {0.6, 0.5};
  AnalyticWorkspace ws;
  auto pmf = CascadeSizePmf(*g, probs, 2, ws);
  ASSERT_TRUE(pmf.ok()) << pmf.status();
  ASSERT_EQ(pmf->impact.size(), 1u);
  EXPECT_DOUBLE_EQ(pmf->impact[0], 1.0);
  EXPECT_DOUBLE_EQ(pmf->Mean(), 0.0);
}

TEST(CascadeSizePmf, DiamondEnumerationSumsToOneAndMatchesMeanIdentity) {
  // Exact enumeration regime: the PMF mean must equal Σ_v Pr[0 ⤳ v] over
  // non-source nodes (linearity of expectation), and the PMF sums to 1.
  auto g = Diamond();
  const std::vector<double> probs = {0.5, 0.4, 0.7, 0.6};
  const PointIcm model(g, probs);
  AnalyticWorkspace ws;
  auto pmf = CascadeSizePmf(*g, probs, 0, ws);
  ASSERT_TRUE(pmf.ok()) << pmf.status();
  EXPECT_EQ(pmf->method, AnalyticMethod::kEnumeration);
  double sum = 0.0;
  for (double p : pmf->impact) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  double mean_by_marginals = 0.0;
  for (NodeId v = 1; v < 4; ++v) {
    mean_by_marginals += ExactFlowByEnumeration(model, 0, v);
  }
  EXPECT_NEAR(pmf->Mean(), mean_by_marginals, 1e-9);
}

TEST(CascadeSizePmf, LoopyFallbackMeanWithinItsErrorBudget) {
  // The marginal-matched spanning-tree convolution reproduces the fixpoint
  // mean up to weight clamping (node 3's marginal exceeds either parent's,
  // so its tree edge caps at 1); the residual must stay far inside the
  // report's expected_error budget, relative to the mean.
  auto g = Diamond();
  const std::vector<double> probs = {0.5, 0.4, 0.7, 0.6};
  const PointIcm model(g, probs);
  AnalyticOptions options;
  options.feasibility.max_enumeration_edges = 0;
  AnalyticWorkspace ws;
  auto pmf = CascadeSizePmf(*g, probs, 0, ws, options);
  ASSERT_TRUE(pmf.ok()) << pmf.status();
  EXPECT_EQ(pmf->method, AnalyticMethod::kLoopy);
  double mean_by_marginals = 0.0;
  for (NodeId v = 1; v < 4; ++v) {
    mean_by_marginals += ExactFlowByEnumeration(model, 0, v);
  }
  double sum = 0.0;
  for (double p : pmf->impact) sum += p;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_GT(pmf->report.expected_error, 0.0);
  EXPECT_NEAR(pmf->Mean(), mean_by_marginals,
              pmf->report.expected_error * mean_by_marginals);
}

// ------------------------------------------------- AnalyticWorkspace reuse

/// Exact Pr[some source ⤳ sink] by enumeration: one minus the probability
/// that no source reaches it (1 when the sink is a source).
double ExactAnyFlow(const PointIcm& model, std::span<const NodeId> sources,
                    NodeId sink) {
  if (std::find(sources.begin(), sources.end(), sink) != sources.end()) {
    return 1.0;
  }
  FlowConditions none;
  for (const NodeId s : sources) {
    const FlowConstraint c{s, sink, false};
    if (std::find(none.begin(), none.end(), c) == none.end()) {
      none.push_back(c);
    }
  }
  return 1.0 - ExactConditionsProbability(model, none);
}

void ExpectSameReport(const FeasibilityReport& a, const FeasibilityReport& b) {
  EXPECT_EQ(a.reachable_nodes, b.reachable_nodes);
  EXPECT_EQ(a.reachable_sources, b.reachable_sources);
  EXPECT_EQ(a.relevant_edges, b.relevant_edges);
  EXPECT_EQ(a.excess_edges, b.excess_edges);
  EXPECT_EQ(a.excess_ratio, b.excess_ratio);
  EXPECT_EQ(a.tree_like, b.tree_like);
  EXPECT_EQ(a.enumerable, b.enumerable);
  EXPECT_EQ(a.feasible, b.feasible);
  EXPECT_EQ(a.expected_error, b.expected_error);
}

/// 8-cycle with three chords: loopy (multiple paths, edges back into every
/// source), 11 edges, so answered exactly by enumeration.
std::shared_ptr<const DirectedGraph> ChordedCycle() {
  GraphBuilder b(8);
  for (NodeId v = 0; v < 8; ++v) b.AddEdge(v, (v + 1) % 8).CheckOK();
  b.AddEdge(0, 4).CheckOK();
  b.AddEdge(2, 6).CheckOK();
  b.AddEdge(5, 1).CheckOK();
  return Share(std::move(b).Build());
}

/// A 48-node tree plus shortcut edges: from near the root the reachable
/// subgraph is past the enumeration budget but inside the loopy one.
std::shared_ptr<const DirectedGraph> ShortcutTree() {
  Rng rng(61);
  auto tree = Share(RandomTreeGraph(48, 3, rng));
  GraphBuilder b(48);
  for (EdgeId e = 0; e < tree->num_edges(); ++e) {
    b.AddEdge(tree->edge(e).src, tree->edge(e).dst).CheckOK();
  }
  b.AddEdgeIfAbsent(1, 30);
  b.AddEdgeIfAbsent(2, 40);
  b.AddEdgeIfAbsent(3, 20);
  return Share(std::move(b).Build());
}

TEST(AnalyticWorkspace, ReusedAnswersAreBitIdenticalToAFreshWorkspace) {
  // One workspace answers every query below, across graphs of different
  // sizes and all three regimes plus refusals, alternating flow answers
  // and impact PMFs; each answer must equal a fresh workspace's bit for
  // bit, and the small graphs' answers must match exact enumeration.
  Rng graph_rng(51);
  std::vector<std::shared_ptr<const DirectedGraph>> graphs = {
      Share(RandomTreeGraph(9, 3, graph_rng)),
      Diamond(),
      Share(RandomTreeGraph(13, 2, graph_rng)),
      ChordedCycle(),
      ShortcutTree(),
      Share(RandomTreeGraph(200, 4, graph_rng)),
      Share(UniformRandomGraph(30, 240, graph_rng)),
  };
  std::vector<std::vector<double>> probs;
  std::vector<PointIcm> models;
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    probs.push_back(RandomProbs(*graphs[i], 100 + i));
    models.emplace_back(graphs[i], probs.back());
  }

  AnalyticWorkspace ws;
  Rng rng(52);
  std::size_t answered = 0;
  std::size_t by_method[3] = {0, 0, 0};
  for (std::size_t q = 0; q < 1200; ++q) {
    const std::size_t gi = q % graphs.size();
    const DirectedGraph& g = *graphs[gi];
    const NodeId n = g.num_nodes();
    std::vector<NodeId> sources(1 + rng.NextBounded(3));
    for (NodeId& s : sources) s = static_cast<NodeId>(rng.NextBounded(n));
    if (rng.NextBounded(4) == 0) sources.push_back(sources.front());
    std::vector<NodeId> sinks(1 + rng.NextBounded(4));
    for (NodeId& t : sinks) t = static_cast<NodeId>(rng.NextBounded(n));
    if (rng.NextBounded(3) == 0) sinks.push_back(sources.back());
    SCOPED_TRACE("query " + std::to_string(q) + " on graph " +
                 std::to_string(gi));

    AnalyticWorkspace fresh;
    auto reused = ReachProbabilities(g, probs[gi], sources, sinks, ws);
    auto expected = ReachProbabilities(g, probs[gi], sources, sinks, fresh);
    ASSERT_EQ(reused.ok(), expected.ok());
    if (!reused.ok()) {
      EXPECT_EQ(reused.status().ToString(), expected.status().ToString());
    } else {
      ++answered;
      ++by_method[static_cast<std::size_t>(reused->method)];
      EXPECT_EQ(reused->method, expected->method);
      ExpectSameReport(reused->report, expected->report);
      ExpectSameReport(reused->report, AssessFeasibility(g, sources));
      ASSERT_EQ(reused->probability.size(), sinks.size());
      ASSERT_EQ(expected->probability.size(), sinks.size());
      for (std::size_t i = 0; i < sinks.size(); ++i) {
        EXPECT_EQ(reused->probability[i], expected->probability[i]);
        if (g.num_edges() <= 20) {
          EXPECT_NEAR(reused->probability[i],
                      ExactAnyFlow(models[gi], sources, sinks[i]), 1e-12)
              << "sink " << sinks[i];
        }
      }
    }

    // The impact PMF of the first source through the same workspace.
    const NodeId source = sources.front();
    AnalyticWorkspace fresh_pmf;
    auto pmf = CascadeSizePmf(g, probs[gi], source, ws);
    auto expected_pmf = CascadeSizePmf(g, probs[gi], source, fresh_pmf);
    ASSERT_EQ(pmf.ok(), expected_pmf.ok());
    if (pmf.ok()) {
      EXPECT_EQ(pmf->method, expected_pmf->method);
      EXPECT_EQ(pmf->impact, expected_pmf->impact);
      const NodeId one[] = {source};
      ExpectSameReport(pmf->report, AssessFeasibility(g, one));
    }
  }
  EXPECT_GE(answered, 1000u);
  // Every regime was exercised.
  EXPECT_GT(by_method[static_cast<std::size_t>(AnalyticMethod::kTreeExact)],
            0u);
  EXPECT_GT(by_method[static_cast<std::size_t>(AnalyticMethod::kEnumeration)],
            0u);
  EXPECT_GT(by_method[static_cast<std::size_t>(AnalyticMethod::kLoopy)], 0u);
}

// --------------------------------------------- AnalyticImpact (core/)

TEST(AnalyticImpact, TreeMatchesSimulateImpactWithinSamplingError) {
  Rng rng(31);
  auto g = Share(RandomTreeGraph(24, 3, rng));
  const PointIcm model(g, RandomProbs(*g, 32));
  auto pmf = AnalyticImpact(model, 0);
  ASSERT_TRUE(pmf.ok()) << pmf.status();
  EXPECT_EQ(pmf->method, AnalyticMethod::kTreeExact);

  const std::size_t cascades = 60000;
  Rng sim_rng(33);
  const ImpactDistribution sim = SimulateImpact(model, 0, cascades, sim_rng);
  EXPECT_NEAR(pmf->Mean(), sim.Mean(), 0.05);
  // Every PMF entry within 5 binomial standard errors of the simulation.
  for (std::size_t k = 0; k < pmf->probs.size(); ++k) {
    const double freq = k < sim.counts.size()
                            ? static_cast<double>(sim.counts[k]) /
                                  static_cast<double>(cascades)
                            : 0.0;
    const double p = pmf->probs[k];
    const double se = std::sqrt(std::max(p * (1 - p), 1e-9) /
                                static_cast<double>(cascades));
    EXPECT_NEAR(freq, p, 5 * se + 1e-4) << "impact " << k;
  }
}

TEST(AnalyticImpact, DenseModelRefused) {
  Rng rng(41);
  auto g = Share(UniformRandomGraph(30, 240, rng));
  const PointIcm model(g, RandomProbs(*g, 42));
  auto pmf = AnalyticImpact(model, 0);
  ASSERT_FALSE(pmf.ok());
  EXPECT_EQ(pmf.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace infoflow::analytic

// ------------------------------------------------------- dispatcher tests

namespace infoflow::serve {
namespace {

std::shared_ptr<const DirectedGraph> Share(DirectedGraph g) {
  return std::make_shared<const DirectedGraph>(std::move(g));
}

PointIcm TreeModel(std::uint64_t seed, NodeId nodes) {
  Rng rng(seed);
  auto g = Share(RandomTreeGraph(nodes, 3, rng));
  std::vector<double> probs(g->num_edges());
  // Kept away from 0 so deep sinks are not vanishingly rare events — a
  // rare indicator's sample MCSE underestimates chain autocorrelation.
  for (double& p : probs) p = rng.Uniform(0.35, 0.9);
  return PointIcm(g, probs);
}

PointIcm DenseModel(std::uint64_t seed, NodeId nodes, EdgeId edges) {
  Rng rng(seed);
  auto g = Share(UniformRandomGraph(nodes, edges, rng));
  std::vector<double> probs(g->num_edges());
  for (double& p : probs) p = rng.Uniform(0.1, 0.9);
  return PointIcm(g, probs);
}

SampleBank MakeBank(const PointIcm& model, std::size_t states,
                    std::uint64_t seed = 21, std::size_t thinning = 4) {
  BankOptions options;
  options.num_states = states;
  options.chain.num_chains = 4;
  options.chain.mh.burn_in = 1200;
  options.chain.mh.thinning = thinning;
  auto bank = SampleBank::Create(model, options, seed);
  EXPECT_TRUE(bank.ok()) << bank.status();
  return std::move(bank).ValueOrDie();
}

QueryEngine MakeEngine(const SampleBank& bank,
                       QueryEngineOptions options = {}) {
  auto engine = QueryEngine::Create(bank.graph_ptr(), options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return std::move(engine).ValueOrDie();
}

QueryRequest FlowQuery(NodeId source, NodeId sink,
                       std::optional<QueryBackend> backend = {}) {
  QueryRequest request;
  request.kind = QueryKind::kFlow;
  request.sources = {source};
  request.sinks = {sink};
  request.backend = backend;
  return request;
}

TEST(ParseQueryBackend, RoundTripsAllNamesAndRejectsJunk) {
  for (QueryBackend backend : {QueryBackend::kAuto, QueryBackend::kAnalytic,
                               QueryBackend::kBank}) {
    auto parsed = ParseQueryBackend(QueryBackendName(backend));
    ASSERT_TRUE(parsed.ok()) << parsed.status();
    EXPECT_EQ(*parsed, backend);
  }
  EXPECT_FALSE(ParseQueryBackend("montecarlo").ok());
  EXPECT_FALSE(ParseQueryBackend("").ok());
}

TEST(BackendDispatcher, AutoPicksAnalyticOnTreeAndStampsTheResult) {
  const PointIcm model = TreeModel(51, 24);
  SampleBank bank = MakeBank(model, 256);
  QueryEngine engine = MakeEngine(bank);
  const auto generation = bank.Acquire();

  const std::vector<QueryRequest> requests = {
      FlowQuery(0, 5, QueryBackend::kAuto)};
  const auto results = engine.AnswerBatch(*generation, requests);
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status;
  EXPECT_EQ(results[0].backend, QueryBackend::kAnalytic);
  EXPECT_EQ(results[0].analytic_method, analytic::AnalyticMethod::kTreeExact);
  EXPECT_EQ(results[0].effective_rows, 0u);
  EXPECT_EQ(results[0].total_rows, generation->num_rows());
  EXPECT_EQ(results[0].generation, generation->id());
  ASSERT_EQ(results[0].estimates.size(), 1u);
  EXPECT_EQ(results[0].estimates[0].sink, 5u);
  EXPECT_DOUBLE_EQ(results[0].estimates[0].diagnostics.mean,
                   results[0].estimates[0].value);
}

TEST(BackendDispatcher, AutoFallsBackToBankOnDenseGraphs) {
  const PointIcm model = DenseModel(52, 24, 160);
  SampleBank bank = MakeBank(model, 256);
  QueryEngine engine = MakeEngine(bank);
  const auto generation = bank.Acquire();

  const auto results = engine.AnswerBatch(
      *generation, {FlowQuery(0, 5, QueryBackend::kAuto)});
  ASSERT_TRUE(results[0].status.ok()) << results[0].status;
  EXPECT_EQ(results[0].backend, QueryBackend::kBank);
  EXPECT_EQ(results[0].effective_rows, generation->num_rows());
}

TEST(BackendDispatcher, ExplicitAnalyticFailsDescriptivelyOnDenseGraphs) {
  const PointIcm model = DenseModel(53, 24, 160);
  SampleBank bank = MakeBank(model, 256);
  QueryEngine engine = MakeEngine(bank);
  const auto generation = bank.Acquire();

  const auto results = engine.AnswerBatch(
      *generation, {FlowQuery(0, 5, QueryBackend::kAnalytic)});
  ASSERT_FALSE(results[0].status.ok());
  EXPECT_EQ(results[0].status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(results[0].status.message().find("tree-like"), std::string::npos)
      << results[0].status;
}

TEST(BackendDispatcher, ConditioningAlwaysReplaysTheBank) {
  const PointIcm model = TreeModel(54, 24);
  SampleBank bank = MakeBank(model, 256);
  QueryEngine engine = MakeEngine(bank);
  const auto generation = bank.Acquire();
  const Edge& e = model.graph().edge(0);

  QueryRequest conditioned = FlowQuery(0, 5, QueryBackend::kAuto);
  conditioned.given.push_back({e.src, e.dst, true});
  auto results = engine.AnswerBatch(*generation, {conditioned});
  ASSERT_TRUE(results[0].status.ok()) << results[0].status;
  EXPECT_EQ(results[0].backend, QueryBackend::kBank);

  conditioned.backend = QueryBackend::kAnalytic;
  results = engine.AnswerBatch(*generation, {conditioned});
  ASSERT_FALSE(results[0].status.ok());
  EXPECT_EQ(results[0].status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(results[0].status.message().find("bank"), std::string::npos);
}

TEST(BackendDispatcher, JointQueriesAlwaysReplayTheBank) {
  const PointIcm model = TreeModel(55, 24);
  SampleBank bank = MakeBank(model, 256);
  QueryEngine engine = MakeEngine(bank);
  const auto generation = bank.Acquire();
  const Edge& e = model.graph().edge(0);

  QueryRequest joint;
  joint.kind = QueryKind::kJoint;
  joint.flows.push_back({e.src, e.dst, true});
  joint.backend = QueryBackend::kAuto;
  const auto results = engine.AnswerBatch(*generation, {joint});
  ASSERT_TRUE(results[0].status.ok()) << results[0].status;
  EXPECT_EQ(results[0].backend, QueryBackend::kBank);
}

TEST(BackendDispatcher, EngineDefaultAppliesWhenRequestCarriesNoBackend) {
  const PointIcm model = TreeModel(56, 24);
  SampleBank bank = MakeBank(model, 256);
  QueryEngineOptions options;
  options.default_backend = QueryBackend::kAuto;
  QueryEngine engine = MakeEngine(bank, options);
  const auto generation = bank.Acquire();

  // No per-request backend → the engine default (auto → analytic on a
  // tree); an explicit bank request still overrides it.
  auto results = engine.AnswerBatch(
      *generation, {FlowQuery(0, 5), FlowQuery(0, 5, QueryBackend::kBank)});
  ASSERT_TRUE(results[0].status.ok());
  ASSERT_TRUE(results[1].status.ok());
  EXPECT_EQ(results[0].backend, QueryBackend::kAnalytic);
  EXPECT_EQ(results[1].backend, QueryBackend::kBank);
  EXPECT_NEAR(results[0].estimates[0].value, results[1].estimates[0].value,
              3 * results[1].estimates[0].diagnostics.mcse + 1e-6);
}

TEST(BackendDispatcher, MixedBatchKeepsPositionalAlignment) {
  const PointIcm model = TreeModel(57, 24);
  SampleBank bank = MakeBank(model, 256);
  QueryEngine engine = MakeEngine(bank);
  const auto generation = bank.Acquire();

  std::vector<QueryRequest> requests;
  for (NodeId sink = 1; sink <= 6; ++sink) {
    requests.push_back(FlowQuery(0, sink,
                                 sink % 2 == 0 ? QueryBackend::kAnalytic
                                               : QueryBackend::kBank));
    requests.back().id = std::to_string(sink);
  }
  const auto results = engine.AnswerBatch(*generation, requests);
  ASSERT_EQ(results.size(), requests.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].status.ok()) << results[i].status;
    const NodeId sink = requests[i].sinks[0];
    EXPECT_EQ(results[i].backend, sink % 2 == 0 ? QueryBackend::kAnalytic
                                                : QueryBackend::kBank);
    EXPECT_EQ(results[i].estimates[0].sink, sink);
  }
}

TEST(BackendDispatcher, AllAnalyticBatchesSkipTheBankPlan) {
  // A batch answered entirely analytically must not touch the bank plan:
  // no serve.query.batch_size sample, and no 256-lane strip plane
  // interleaved (its plane_bytes gauge keeps the sentinel set below).
  if constexpr (!obs::MetricsEnabled()) GTEST_SKIP() << "metrics disabled";
  const PointIcm model = TreeModel(17, 40);
  SampleBank bank = MakeBank(model, 512);
  QueryEngineOptions options;
  options.lanes = LaneWidth::k256;
  options.default_backend = QueryBackend::kAuto;
  QueryEngine engine = MakeEngine(bank, options);
  const auto generation = bank.Acquire();
  obs::Gauge& plane_bytes = obs::GetGauge("serve.bank.plane_bytes.256");
  plane_bytes.Set(-1.0);
  const auto batches = [] {
    const auto snap = obs::MetricsRegistry::Global().Snapshot();
    const auto it = snap.histograms.find("serve.query.batch_size");
    return it == snap.histograms.end() ? std::uint64_t{0} : it->second.total;
  };
  const std::uint64_t before = batches();
  for (NodeId sink = 1; sink < 9; ++sink) {
    QueryRequest community = FlowQuery(0, sink);
    community.kind = QueryKind::kCommunity;
    community.sinks = {sink, static_cast<NodeId>(sink + 9)};
    const auto results =
        engine.AnswerBatch(*generation, {FlowQuery(0, sink), community});
    ASSERT_EQ(results.size(), 2u);
    for (const QueryResult& result : results) {
      ASSERT_TRUE(result.status.ok()) << result.status;
      EXPECT_EQ(result.backend, QueryBackend::kAnalytic);
    }
  }
  EXPECT_EQ(batches(), before);
  EXPECT_EQ(plane_bytes.Value(), -1.0);

  // One bank-bound request brings the plan, and the plane, back.
  const auto results =
      engine.AnswerBatch(*generation, {FlowQuery(0, 5, QueryBackend::kBank)});
  ASSERT_TRUE(results[0].status.ok()) << results[0].status;
  EXPECT_EQ(batches(), before + 1);
  EXPECT_GT(plane_bytes.Value(), 0.0);
}

TEST(BackendDispatcher, CommunityQueriesTakeTheAnalyticPath) {
  const PointIcm model = TreeModel(58, 24);
  SampleBank bank = MakeBank(model, 256);
  QueryEngine engine = MakeEngine(bank);
  const auto generation = bank.Acquire();

  QueryRequest community;
  community.kind = QueryKind::kCommunity;
  community.sources = {0};
  community.sinks = {2, 5, 9};
  community.backend = QueryBackend::kAuto;
  const auto analytic_results = engine.AnswerBatch(*generation, {community});
  ASSERT_TRUE(analytic_results[0].status.ok()) << analytic_results[0].status;
  EXPECT_EQ(analytic_results[0].backend, QueryBackend::kAnalytic);
  ASSERT_EQ(analytic_results[0].estimates.size(), 3u);

  community.backend = QueryBackend::kBank;
  const auto bank_results = engine.AnswerBatch(*generation, {community});
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(analytic_results[0].estimates[i].sink,
              bank_results[0].estimates[i].sink);
    EXPECT_NEAR(analytic_results[0].estimates[i].value,
                bank_results[0].estimates[i].value,
                3 * bank_results[0].estimates[i].diagnostics.mcse + 1e-6);
  }
}

TEST(BackendDispatcher, InvalidRequestsStillFailThroughTheBankPath) {
  const PointIcm model = TreeModel(59, 24);
  SampleBank bank = MakeBank(model, 256);
  QueryEngine engine = MakeEngine(bank);
  const auto generation = bank.Acquire();

  // Out-of-range sink: the canonical validation error, whichever backend.
  const auto results = engine.AnswerBatch(
      *generation, {FlowQuery(0, 9999, QueryBackend::kAnalytic)});
  ASSERT_FALSE(results[0].status.ok());
  EXPECT_EQ(results[0].status.code(), StatusCode::kOutOfRange);
}

// --------------------------------------------- randomized differential

TEST(BackendDifferential, AnalyticWithin3McseOfBankReplayOnTrees) {
  // The ISSUE's acceptance bar: on tree-like models every analytic answer
  // agrees with the MH + bank replay estimate within 3×MCSE (plus a hair
  // for MCSE's own noise).
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    const PointIcm model = TreeModel(100 + trial, 30);
    SampleBank bank = MakeBank(model, 1024, 1000 + trial, /*thinning=*/16);
    QueryEngine engine = MakeEngine(bank);
    const auto generation = bank.Acquire();
    Rng pick(200 + trial);

    std::vector<QueryRequest> requests;
    for (int q = 0; q < 8; ++q) {
      const auto sink = static_cast<NodeId>(
          1 + pick.NextBounded(model.graph().num_nodes() - 1));
      requests.push_back(FlowQuery(0, sink, QueryBackend::kAnalytic));
      requests.push_back(FlowQuery(0, sink, QueryBackend::kBank));
    }
    const auto results = engine.AnswerBatch(*generation, requests);
    for (std::size_t i = 0; i < results.size(); i += 2) {
      ASSERT_TRUE(results[i].status.ok()) << results[i].status;
      ASSERT_TRUE(results[i + 1].status.ok()) << results[i + 1].status;
      EXPECT_EQ(results[i].backend, QueryBackend::kAnalytic);
      EXPECT_EQ(results[i + 1].backend, QueryBackend::kBank);
      const double exact = results[i].estimates[0].value;
      const double replay = results[i + 1].estimates[0].value;
      const double mcse = results[i + 1].estimates[0].diagnostics.mcse;
      EXPECT_NEAR(replay, exact, 3 * mcse + 0.01)
          << "trial " << trial << " sink " << requests[i].sinks[0];
    }
  }
}

TEST(BackendDifferential, LoopyFallbackWithinItsReportedErrorBudget) {
  // A tree plus a few shortcut edges stays under max_excess_ratio: the
  // explicit analytic backend answers loopily, and the answer must agree
  // with bank replay within 3×MCSE plus the report's expected_error.
  Rng rng(71);
  DirectedGraph tree = RandomTreeGraph(30, 3, rng);
  GraphBuilder b(30);
  for (EdgeId e = 0; e < tree.num_edges(); ++e) {
    b.AddEdge(tree.edge(e).src, tree.edge(e).dst).CheckOK();
  }
  std::size_t added = 0;
  while (added < 5) {
    const auto u = static_cast<NodeId>(rng.NextBounded(30));
    const auto v = static_cast<NodeId>(rng.NextBounded(30));
    if (u == v) continue;
    if (b.AddEdgeIfAbsent(u, v)) ++added;
  }
  auto g = Share(std::move(b).Build());
  std::vector<double> probs(g->num_edges());
  for (double& p : probs) p = rng.Uniform(0.1, 0.5);
  const PointIcm model(g, probs);

  SampleBank bank = MakeBank(model, 512, 72);
  QueryEngine engine = MakeEngine(bank);
  const auto generation = bank.Acquire();

  std::vector<QueryRequest> requests;
  for (NodeId sink = 1; sink < 30; sink += 4) {
    requests.push_back(FlowQuery(0, sink, QueryBackend::kAnalytic));
    requests.push_back(FlowQuery(0, sink, QueryBackend::kBank));
  }
  const auto results = engine.AnswerBatch(*generation, requests);
  for (std::size_t i = 0; i < results.size(); i += 2) {
    if (!results[i].status.ok()) {
      // A sink whose subgraph is denser than the loopy budget: refusal is
      // the documented contract, not a differential failure.
      EXPECT_EQ(results[i].status.code(), StatusCode::kFailedPrecondition);
      continue;
    }
    ASSERT_TRUE(results[i + 1].status.ok()) << results[i + 1].status;
    const double analytic_value = results[i].estimates[0].value;
    const double replay = results[i + 1].estimates[0].value;
    const double mcse = results[i + 1].estimates[0].diagnostics.mcse;
    EXPECT_NEAR(replay, analytic_value, 3 * mcse + 0.25 + 0.02)
        << "sink " << requests[i].sinks[0];
  }
}

// ----------------------------------------------------- protocol: backend

TEST(ProtocolBackend, RequestFieldParsesAndJunkIsRejected) {
  auto request = ParseRequestLine(
      R"({"id":"q1","kind":"flow","sources":[0],"sinks":[3],)"
      R"("backend":"analytic"})");
  ASSERT_TRUE(request.ok()) << request.status();
  ASSERT_TRUE(request->backend.has_value());
  EXPECT_EQ(*request->backend, QueryBackend::kAnalytic);

  auto absent = ParseRequestLine(
      R"({"id":"q2","kind":"flow","sources":[0],"sinks":[3]})");
  ASSERT_TRUE(absent.ok()) << absent.status();
  EXPECT_FALSE(absent->backend.has_value());

  EXPECT_FALSE(ParseRequestLine(
                   R"({"kind":"flow","sources":[0],"sinks":[3],)"
                   R"("backend":"montecarlo"})")
                   .ok());
  EXPECT_FALSE(ParseRequestLine(
                   R"({"kind":"flow","sources":[0],"sinks":[3],)"
                   R"("backend":7})")
                   .ok());
}

TEST(ProtocolBackend, ResponseCarriesTheAnsweringBackend) {
  const PointIcm model = TreeModel(61, 24);
  SampleBank bank = MakeBank(model, 256);
  QueryEngine engine = MakeEngine(bank);
  const auto generation = bank.Acquire();

  const std::vector<QueryRequest> requests = {
      FlowQuery(0, 5, QueryBackend::kAuto), FlowQuery(0, 5)};
  const auto results = engine.AnswerBatch(*generation, requests);
  for (std::size_t i = 0; i < 2; ++i) {
    const std::string line = SerializeResult(requests[i], results[i]);
    auto json = ParseJson(line);
    ASSERT_TRUE(json.ok()) << json.status();
    const JsonValue* backend = json->Find("backend");
    ASSERT_NE(backend, nullptr) << line;
    EXPECT_EQ(backend->AsString(), QueryBackendName(results[i].backend));
  }
}

}  // namespace
}  // namespace infoflow::serve
