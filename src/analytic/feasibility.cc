#include "analytic/feasibility.h"

#include <algorithm>

#include "util/check.h"

namespace infoflow::analytic {

void AnalyticWorkspace::Explore(const DirectedGraph& graph,
                                std::span<const NodeId> sources) {
  const NodeId n = graph.num_nodes();
  if (slots_.size() < n) slots_.resize(n);
  ++stamp_;
  order_.clear();
  relevant_.clear();
  num_sources_ = 0;
  for (const NodeId s : sources) {
    IF_CHECK(s < n) << "source " << s << " out of range";
    if (reached(s)) continue;  // duplicate
    slots_[s] = {stamp_, kInvalidEdge, static_cast<NodeId>(order_.size()),
                 0.0};
    order_.push_back(s);
    ++num_sources_;
  }
  // True BFS (index queue) so discovery edges form a breadth-first
  // spanning forest. Every edge leaving a reached node is relevant unless
  // it re-enters a source (sources are active by fiat).
  for (std::size_t head = 0; head < order_.size(); ++head) {
    const NodeId u = order_[head];
    for (const EdgeId e : graph.OutEdges(u)) {
      const NodeId v = graph.edge(e).dst;
      if (!is_source(v)) relevant_.push_back(e);
      if (!reached(v)) {
        slots_[v] = {stamp_, e, static_cast<NodeId>(order_.size()), 0.0};
        order_.push_back(v);
      }
    }
  }
}

FeasibilityReport AnalyticWorkspace::Report(
    const FeasibilityOptions& options) const {
  FeasibilityReport report;
  report.reachable_nodes = order_.size();
  report.reachable_sources = num_sources_;
  report.relevant_edges = relevant_.size();
  const std::size_t spanning =
      report.reachable_nodes - report.reachable_sources;
  report.excess_edges = report.relevant_edges - spanning;
  report.excess_ratio =
      static_cast<double>(report.excess_edges) /
      static_cast<double>(std::max<std::size_t>(1, report.relevant_edges));
  report.tree_like = report.excess_edges == 0;
  report.enumerable = report.relevant_edges <= options.max_enumeration_edges;
  report.feasible = report.tree_like || report.enumerable ||
                    report.excess_ratio <= options.max_excess_ratio;
  report.expected_error =
      (report.tree_like || report.enumerable) ? 0.0 : report.excess_ratio;
  return report;
}

FeasibilityReport AssessFeasibility(const DirectedGraph& graph,
                                    std::span<const NodeId> sources,
                                    const FeasibilityOptions& options) {
  AnalyticWorkspace workspace(graph.num_nodes());
  workspace.Explore(graph, sources);
  return workspace.Report(options);
}

}  // namespace infoflow::analytic
