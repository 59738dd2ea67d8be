/// \file cascade_estimator.h
/// \brief Sampling-free flow and cascade-size estimation by message passing.
///
/// The paper answers "how far does a tweet travel" (Eq. 5, Fig. 4) by
/// averaging reachability indicators over MH-sampled pseudo-states. On
/// locally tree-like subgraphs the same quantities have closed forms
/// (Burkholz & Quackenbush, *Cascade Size Distributions*): activation
/// probabilities factor along the unique source→node paths, and the
/// cascade-size distribution is a *subtree convolution* — node v's subtree
/// size is 1 + Σ_children Bernoulli(p_vc)·S_c, so its PMF is the
/// convolution of the children's (each mixed with a point mass at 0 for
/// "edge did not fire"). Minutes of Monte-Carlo become one BFS plus
/// O(subtree²) convolutions.
///
/// Every call explores through a caller-owned AnalyticWorkspace
/// (analytic/feasibility.h): the one BFS both scores feasibility and feeds
/// the estimator, and nothing of size n is allocated or filled, so a query
/// costs O(reachable subgraph + sinks).
///
/// Three regimes, chosen per call from the structural feasibility report
/// (analytic/feasibility.h):
///  - **tree-exact** — the reachable subgraph is a forest rooted at the
///    sources; products/convolutions are exact.
///  - **enumeration** — few enough relevant edges for exact pseudo-state
///    enumeration (Eq. 5 evaluated in full); exact on any topology, the
///    bounded-size analogue of a bounded-treewidth junction pass.
///  - **loopy** — the independence-approximation fallback: activation
///    marginals from a monotone message-passing fixpoint
///    (a(v) = 1 − Π_{(u,v)} (1 − a(u)·p_uv), the repeated-sweep form of the
///    paper's Eq. 2 product), and size PMFs from a *marginal-matched*
///    spanning-tree convolution whose per-edge weights are chosen so every
///    node's tree marginal telescopes to its fixpoint marginal — the mean
///    is preserved up to weight clamping (a node whose fixpoint marginal
///    exceeds its tree parent's caps at edge weight 1, biasing the mean
///    low by at most the clamped excess); higher moments assume
///    tree-structured dependence. The
///    feasibility report's `expected_error` bounds the trust callers should
///    place in it, and graphs denser than `max_excess_ratio` are *refused*
///    with a descriptive Status so dispatchers fall back to bank replay.
///
/// The estimator is deliberately model-layer-free: it takes a graph plus a
/// per-edge probability span, so graph/ is its only dependency and both
/// core/ (AnalyticImpact) and serve/ (BackendDispatcher) can layer on top.

#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "analytic/feasibility.h"
#include "graph/graph.h"
#include "util/status.h"

namespace infoflow::analytic {

/// \brief Which regime produced an analytic answer.
enum class AnalyticMethod {
  kTreeExact,
  kEnumeration,
  kLoopy,
};

/// The canonical lower-case name ("tree-exact" / "enumeration" / "loopy").
const char* AnalyticMethodName(AnalyticMethod method);

/// \brief Estimator tuning.
struct AnalyticOptions {
  /// Regime thresholds (see feasibility.h).
  FeasibilityOptions feasibility;
  /// Maximum fixpoint sweeps of the loopy fallback (each sweep relaxes
  /// every reachable node once in BFS order; convergence is monotone).
  std::size_t max_loopy_sweeps = 64;
  /// Sweep-to-sweep convergence threshold on the largest marginal change.
  double loopy_tolerance = 1e-12;
  /// When true, only the two exact regimes are accepted and a loopy-only
  /// subgraph is refused — the BackendDispatcher's `auto` mode sets this so
  /// automatic routing never silently trades accuracy for speed.
  bool require_exact = false;
};

/// \brief Activation probabilities of the requested sinks for a cascade
/// from `sources`.
struct ReachAnswer {
  /// probability[i] = Pr[sinks[i] is activated]; unreachable sinks are 0.
  std::vector<double> probability;
  AnalyticMethod method = AnalyticMethod::kTreeExact;
  FeasibilityReport report;
};

/// \brief Pr[source-set ⤳ sink] for every listed sink — the analytic form
/// of the flow/community query (Eq. 5 without sampling). Fails with
/// InvalidArgument/OutOfRange on malformed input and FailedPrecondition
/// (descriptive) when the subgraph is denser than the options allow.
Result<ReachAnswer> ReachProbabilities(const DirectedGraph& graph,
                                       std::span<const double> probs,
                                       std::span<const NodeId> sources,
                                       std::span<const NodeId> sinks,
                                       AnalyticWorkspace& workspace,
                                       const AnalyticOptions& options = {});

/// \brief The cascade-size distribution of a single-source cascade.
struct CascadePmf {
  /// impact[k] = Pr[exactly k non-source nodes activate] (Fig. 4's
  /// x-axis; the source itself is excluded, matching
  /// ImpactDistribution::counts). Sums to 1.
  std::vector<double> impact;
  AnalyticMethod method = AnalyticMethod::kTreeExact;
  FeasibilityReport report;

  /// Expected impact Σ k·impact[k].
  double Mean() const;
};

/// \brief The full impact PMF from `source` (Fig. 4 analytically). Same
/// failure contract as ReachProbabilities.
Result<CascadePmf> CascadeSizePmf(const DirectedGraph& graph,
                                  std::span<const double> probs,
                                  NodeId source, AnalyticWorkspace& workspace,
                                  const AnalyticOptions& options = {});

}  // namespace infoflow::analytic
