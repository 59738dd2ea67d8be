#include "analytic/cascade_estimator.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "util/check.h"

namespace infoflow::analytic {
namespace {

Status ValidateInputs(const DirectedGraph& graph,
                      std::span<const double> probs,
                      std::span<const NodeId> sources,
                      std::span<const NodeId> sinks) {
  if (probs.size() != graph.num_edges()) {
    return Status::InvalidArgument("edge-probability span has ", probs.size(),
                                   " entries but the graph has ",
                                   graph.num_edges(), " edges");
  }
  if (sources.empty()) {
    return Status::InvalidArgument("need at least one source");
  }
  for (const NodeId s : sources) {
    if (s >= graph.num_nodes()) {
      return Status::OutOfRange("source node ", s, " not in graph with ",
                                graph.num_nodes(), " nodes");
    }
  }
  for (const NodeId t : sinks) {
    if (t >= graph.num_nodes()) {
      return Status::OutOfRange("sink node ", t, " not in graph with ",
                                graph.num_nodes(), " nodes");
    }
  }
  return Status::OK();
}

/// Picks the regime for `report`, or a descriptive refusal.
Result<AnalyticMethod> PickMethod(const FeasibilityReport& report,
                                  const AnalyticOptions& options) {
  if (report.tree_like) return AnalyticMethod::kTreeExact;
  if (report.enumerable) return AnalyticMethod::kEnumeration;
  if (!options.require_exact && report.feasible) {
    return AnalyticMethod::kLoopy;
  }
  return Status::FailedPrecondition(
      "analytic estimator refused: the reachable subgraph has ",
      report.reachable_nodes, " nodes and ", report.relevant_edges,
      " relevant edges, of which ", report.excess_edges,
      " are excess (ratio ", report.excess_ratio, ") — not locally ",
      "tree-like",
      options.require_exact
          ? " and no exact regime applies (auto dispatch requires one)"
          : " and denser than max_excess_ratio allows",
      "; answer this query with the sampling/bank backend (Eq. 5 replay)");
}

/// \brief Loopy activation marginals into a freshly explored workspace's
/// values: monotone Gauss–Seidel sweeps of
/// a(v) = 1 − Π_{(u,v) relevant} (1 − a(u)·p_uv) in BFS order. Exact on
/// forests (one sweep suffices); the independence approximation otherwise.
void LoopyMarginals(const DirectedGraph& graph, std::span<const double> probs,
                    AnalyticWorkspace& ws, const AnalyticOptions& options) {
  for (std::size_t i = 0; i < ws.num_sources(); ++i) {
    ws.value(ws.order()[i]) = 1.0;
  }
  for (std::size_t sweep = 0; sweep < options.max_loopy_sweeps; ++sweep) {
    double delta = 0.0;
    for (const NodeId v : ws.order()) {
      if (ws.is_source(v)) continue;
      double miss = 1.0;
      for (const EdgeId e : graph.InEdges(v)) {
        const NodeId u = graph.edge(e).src;
        if (ws.reached(u)) miss *= 1.0 - ws.value(u) * probs[e];
      }
      const double next = 1.0 - miss;
      delta = std::max(delta, next - ws.value(v));
      ws.value(v) = next;
    }
    if (delta <= options.loopy_tolerance) break;
  }
}

/// \brief Runs `fn(weight, reached, activated_count)` for every assignment
/// of the relevant edges — Eq. 5 evaluated exactly over the subgraph.
/// `reached` is indexed by position in ws.order(); count includes sources.
template <typename Fn>
void EnumerateSubworlds(const DirectedGraph& graph,
                        std::span<const double> probs,
                        const AnalyticWorkspace& ws, Fn&& fn) {
  const std::vector<EdgeId>& relevant = ws.relevant();
  const std::size_t m = relevant.size();
  IF_CHECK(m < 63) << "enumeration regime over " << m << " edges";
  const std::size_t n_local = ws.order().size();
  // Local adjacency: (src-local → (dst-local, relevant-edge index)).
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> adj(n_local);
  for (std::size_t i = 0; i < m; ++i) {
    const Edge& edge = graph.edge(relevant[i]);
    adj[ws.local(edge.src)].push_back({ws.local(edge.dst), i});
  }
  std::vector<char> reached(n_local, 0);
  std::vector<std::size_t> stack;
  for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << m); ++mask) {
    double weight = 1.0;
    for (std::size_t i = 0; i < m; ++i) {
      const double p = probs[relevant[i]];
      weight *= ((mask >> i) & 1) != 0 ? p : 1.0 - p;
    }
    if (weight == 0.0) continue;
    std::fill(reached.begin(), reached.end(), 0);
    stack.clear();
    for (std::size_t i = 0; i < ws.num_sources(); ++i) {
      reached[i] = 1;  // sources lead ws.order()
      stack.push_back(i);
    }
    std::size_t count = ws.num_sources();
    while (!stack.empty()) {
      const std::size_t u = stack.back();
      stack.pop_back();
      for (const auto& [v, i] : adj[u]) {
        if (((mask >> i) & 1) != 0 && reached[v] == 0) {
          reached[v] = 1;
          ++count;
          stack.push_back(v);
        }
      }
    }
    fn(weight, reached, count);
  }
}

/// \brief Subtree convolution over the discovery forest: node v joins its
/// parent's subtree with probability `weight(v)`, and the subtree-size PMF
/// composes by convolution (children independent — exact on the tree-exact
/// regime, the marginal-matched approximation on the loopy one). Returns
/// the root's size PMF (index = activated node count including the root).
template <typename WeightFn>
std::vector<double> SubtreePmf(const DirectedGraph& graph,
                               const AnalyticWorkspace& ws, NodeId root,
                               WeightFn&& weight) {
  const std::size_t n_local = ws.order().size();
  // pmf[i][k] = Pr[node ws.order()[i]'s subtree activates exactly k nodes |
  // the node itself is active]; initialized to "the node alone".
  std::vector<std::vector<double>> pmf(n_local, std::vector<double>{0.0, 1.0});
  // Reverse BFS order processes every child before its parent; folding a
  // child releases its PMF, so peak memory tracks the live path, not the
  // whole tree.
  for (std::size_t i = n_local; i-- > 1;) {
    const NodeId v = ws.order()[i];
    const std::size_t pi = ws.local(graph.edge(ws.discovery(v)).src);
    const double w = weight(v);
    std::vector<double>& child = pmf[i];
    std::vector<double>& conv = pmf[pi];
    std::vector<double> merged(conv.size() + child.size() - 1, 0.0);
    for (std::size_t a = 0; a < conv.size(); ++a) {
      const double ca = conv[a];
      if (ca == 0.0) continue;
      merged[a] += ca * (1.0 - w);
      for (std::size_t k = 1; k < child.size(); ++k) {
        merged[a + k] += ca * w * child[k];
      }
    }
    conv = std::move(merged);
    std::vector<double>().swap(child);
  }
  return std::move(pmf[ws.local(root)]);
}

}  // namespace

const char* AnalyticMethodName(AnalyticMethod method) {
  switch (method) {
    case AnalyticMethod::kTreeExact:
      return "tree-exact";
    case AnalyticMethod::kEnumeration:
      return "enumeration";
    case AnalyticMethod::kLoopy:
      return "loopy";
  }
  return "unknown";
}

double CascadePmf::Mean() const {
  double mean = 0.0;
  for (std::size_t k = 0; k < impact.size(); ++k) {
    mean += static_cast<double>(k) * impact[k];
  }
  return mean;
}

Result<ReachAnswer> ReachProbabilities(const DirectedGraph& graph,
                                       std::span<const double> probs,
                                       std::span<const NodeId> sources,
                                       std::span<const NodeId> sinks,
                                       AnalyticWorkspace& workspace,
                                       const AnalyticOptions& options) {
  IF_RETURN_NOT_OK(ValidateInputs(graph, probs, sources, sinks));
  workspace.Explore(graph, sources);
  ReachAnswer answer;
  answer.report = workspace.Report(options.feasibility);
  auto method = PickMethod(answer.report, options);
  IF_RETURN_NOT_OK(method.status());
  answer.method = *method;

  switch (answer.method) {
    case AnalyticMethod::kTreeExact:
      // Unique source→v paths: the probability telescopes down the
      // discovery forest (parents precede children in BFS order).
      for (const NodeId v : workspace.order()) {
        if (workspace.is_source(v)) {
          workspace.value(v) = 1.0;
          continue;
        }
        const EdgeId e = workspace.discovery(v);
        workspace.value(v) = workspace.value(graph.edge(e).src) * probs[e];
      }
      break;
    case AnalyticMethod::kEnumeration:
      EnumerateSubworlds(
          graph, probs, workspace,
          [&](double weight, const std::vector<char>& reached,
              std::size_t /*count*/) {
            for (std::size_t i = 0; i < reached.size(); ++i) {
              if (reached[i] != 0) {
                workspace.value(workspace.order()[i]) += weight;
              }
            }
          });
      break;
    case AnalyticMethod::kLoopy:
      LoopyMarginals(graph, probs, workspace, options);
      break;
  }
  answer.probability.reserve(sinks.size());
  for (const NodeId t : sinks) {
    answer.probability.push_back(workspace.reached(t) ? workspace.value(t)
                                                      : 0.0);
  }
  return answer;
}

Result<CascadePmf> CascadeSizePmf(const DirectedGraph& graph,
                                  std::span<const double> probs,
                                  NodeId source, AnalyticWorkspace& workspace,
                                  const AnalyticOptions& options) {
  const NodeId sources[1] = {source};
  IF_RETURN_NOT_OK(ValidateInputs(graph, probs, sources, {}));
  workspace.Explore(graph, sources);
  CascadePmf out;
  out.report = workspace.Report(options.feasibility);
  auto method = PickMethod(out.report, options);
  IF_RETURN_NOT_OK(method.status());
  out.method = *method;

  std::vector<double> size_pmf;  // index = activated count incl. source
  switch (out.method) {
    case AnalyticMethod::kTreeExact:
      // Every relevant edge is a discovery edge (unique in-edges), so the
      // subtree convolution over the discovery tree is exact.
      size_pmf = SubtreePmf(graph, workspace, source, [&](NodeId v) {
        return probs[workspace.discovery(v)];
      });
      break;
    case AnalyticMethod::kEnumeration: {
      std::vector<double> acc(workspace.order().size() + 1, 0.0);
      EnumerateSubworlds(graph, probs, workspace,
                         [&](double weight, const std::vector<char>&,
                             std::size_t count) { acc[count] += weight; });
      size_pmf = std::move(acc);
      break;
    }
    case AnalyticMethod::kLoopy:
      // Marginal-matched spanning tree: choosing the tree-edge weight
      // a(v)/a(parent) makes every node's tree marginal telescope to its
      // loopy fixpoint marginal, so the PMF mean equals Σ a(v); the shape
      // assumes tree dependence (see report.expected_error).
      LoopyMarginals(graph, probs, workspace, options);
      size_pmf = SubtreePmf(graph, workspace, source, [&](NodeId v) {
        const double parent =
            workspace.value(graph.edge(workspace.discovery(v)).src);
        return parent > 0.0 ? std::min(1.0, workspace.value(v) / parent)
                            : 0.0;
      });
      break;
  }

  // Impact excludes the always-active source: shift by one.
  out.impact.assign(size_pmf.size() > 1 ? size_pmf.size() - 1 : 1, 0.0);
  for (std::size_t k = 1; k < size_pmf.size(); ++k) {
    out.impact[k - 1] = size_pmf[k];
  }
  return out;
}

}  // namespace infoflow::analytic
