/// \file feasibility.h
/// \brief Structural tree-likeness scoring for the analytic backend, and the
/// per-query workspace whose one BFS the score comes from.
///
/// The message-passing / subtree-convolution estimator
/// (analytic/cascade_estimator.h) is *exact* only when the subgraph a query
/// actually touches — the nodes reachable from its source set — is a forest
/// rooted at the sources: every reachable non-source node owns exactly one
/// reachable in-edge, so activation events along distinct branches are
/// independent and products/convolutions compose without error (Burkholz &
/// Quackenbush's locally-tree-like regime; the same structural condition
/// under which the paper's Eq. 2 exclude-set recursion is exact).
///
/// AnalyticWorkspace::Explore runs the one structural BFS a query needs (no
/// probabilities, no convolutions), and Report classifies the reachable
/// subgraph it found as
///   - tree-like       → analytic answers are exact,
///   - enumerable      → small enough for exact pseudo-state enumeration,
///   - loopy-feasible  → the independence-approximation fallback applies,
///     with `expected_error` reporting the heuristic error budget,
///   - infeasible      → the estimator refuses (dense multi-path structure;
///     callers fall back to MH + bank replay, Eq. 5).
/// The estimator then answers from the same exploration, so a query costs
/// O(reachable subgraph + sinks), never O(n).

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace infoflow::analytic {

/// \brief Thresholds for the feasibility classification.
struct FeasibilityOptions {
  /// Reachable subgraphs with at most this many relevant edges are answered
  /// by exact pseudo-state enumeration even when loopy (2^m states; keep
  /// well under core/exact_flow.h's kMaxEnumerationEdges).
  std::size_t max_enumeration_edges = 20;
  /// Largest tolerated excess-edge ratio for the loopy fallback: above it
  /// the estimator refuses rather than return an unbounded approximation.
  double max_excess_ratio = 0.25;
};

/// \brief What one structural BFS learned about a query's subgraph.
struct FeasibilityReport {
  /// Nodes reachable from the source set (sources included).
  std::size_t reachable_nodes = 0;
  /// Sources that are in range of the graph (multi-source queries).
  std::size_t reachable_sources = 0;
  /// Relevant edges: (u, v) with u reachable and v not a source — the only
  /// edges that can influence a cascade from the sources (an edge *into* a
  /// source never changes anything, the source is active by fiat).
  std::size_t relevant_edges = 0;
  /// relevant_edges − (reachable_nodes − reachable_sources): 0 iff every
  /// reachable non-source node has exactly one reachable in-edge, i.e. the
  /// reachable subgraph is a forest rooted at the sources (acyclicity is
  /// implied: a cycle's nodes could only be entered through their unique
  /// in-edge, which would lie on the cycle — unreachable from the sources).
  std::size_t excess_edges = 0;
  /// excess_edges / max(1, relevant_edges) — the fraction of edges creating
  /// multi-path correlations the tree factorization cannot represent.
  double excess_ratio = 0.0;
  /// Forest rooted at the sources: analytic answers are exact.
  bool tree_like = false;
  /// Small enough for exact enumeration regardless of topology.
  bool enumerable = false;
  /// tree_like || enumerable || excess_ratio <= max_excess_ratio.
  bool feasible = false;
  /// Heuristic error budget of the answer the estimator would return: 0 for
  /// the two exact regimes, excess_ratio for the loopy fallback (the
  /// independence approximation's bias grows with the shared-path density;
  /// tests/test_analytic.cc spot-checks the calibration).
  double expected_error = 0.0;
};

/// \brief Per-query scratch of the analytic estimator: one structural BFS
/// over the subgraph reachable from a source set, and per-node values for
/// the estimator to fill.
///
/// Node marks are generation-stamped: a node counts as reached only when
/// its slot carries the current exploration's stamp, so starting a query
/// clears nothing and every per-query cost is proportional to the
/// reachable subgraph. The stamp is 64-bit and never wraps. The node slots
/// are sized once (at construction, or grown by the first Explore on a
/// larger graph) and the order/edge lists keep their capacity, so a warm
/// workspace allocates nothing per query.
///
/// Not thread-safe: one workspace per thread of queries (the serve engine
/// keeps one per connection). The accessors describe the latest Explore.
class AnalyticWorkspace {
 public:
  AnalyticWorkspace() = default;
  /// Sizes the node slots for graphs of up to `num_nodes` nodes.
  explicit AnalyticWorkspace(NodeId num_nodes) : slots_(num_nodes) {}

  /// BFS from `sources` (all must be < graph.num_nodes(); duplicates are
  /// ignored): records discovery order (distinct sources first, in the
  /// order given), each reached node's discovery edge and position in that
  /// order, and the relevant edges (see FeasibilityReport).
  void Explore(const DirectedGraph& graph, std::span<const NodeId> sources);

  /// The structural classification of the explored subgraph.
  FeasibilityReport Report(const FeasibilityOptions& options) const;

  /// Reached nodes in BFS discovery order; the first num_sources() are the
  /// distinct sources, and every other node follows its discovery parent.
  const std::vector<NodeId>& order() const { return order_; }
  /// Relevant edges in BFS scan order.
  const std::vector<EdgeId>& relevant() const { return relevant_; }
  std::size_t num_sources() const { return num_sources_; }

  bool reached(NodeId v) const { return slots_[v].stamp == stamp_; }
  bool is_source(NodeId v) const {
    return reached(v) && slots_[v].local < num_sources_;
  }
  /// The edge that first reached `v` (kInvalidEdge for a source). In the
  /// tree-exact regime it is v's *only* relevant in-edge; the discovery
  /// edges span the BFS forest the subtree convolution runs over. Valid
  /// only for reached nodes, as are local() and value().
  EdgeId discovery(NodeId v) const { return slots_[v].discovery; }
  /// v's position in order().
  std::size_t local(NodeId v) const { return slots_[v].local; }
  /// Per-node estimator scratch (activation probability or marginal);
  /// Explore resets it to 0 for every reached node.
  double& value(NodeId v) { return slots_[v].value; }
  double value(NodeId v) const { return slots_[v].value; }

 private:
  struct Slot {
    std::uint64_t stamp = 0;
    EdgeId discovery = kInvalidEdge;
    NodeId local = 0;
    double value = 0.0;
  };

  std::vector<Slot> slots_;
  /// The current exploration's stamp; 0 marks a never-reached slot.
  std::uint64_t stamp_ = 0;
  std::vector<NodeId> order_;
  std::vector<EdgeId> relevant_;
  std::size_t num_sources_ = 0;
};

/// \brief Classifies the subgraph reachable from `sources` (all must be
/// < graph.num_nodes(); duplicates are harmless). Pure structure — no edge
/// probabilities are consulted, so the score is valid for any model over
/// the same topology. A one-shot AnalyticWorkspace exploration; the
/// estimator derives the identical report from its own exploration.
FeasibilityReport AssessFeasibility(const DirectedGraph& graph,
                                    std::span<const NodeId> sources,
                                    const FeasibilityOptions& options = {});

}  // namespace infoflow::analytic
