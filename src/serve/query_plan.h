/// \file query_plan.h
/// \brief The engine-agnostic batch query skeleton behind QueryEngine.
///
/// Everything about answering a batch *except* per-strip reachability is
/// pure bookkeeping over the bank's row/lane layout: request validation,
/// deduplicating conditioning sets into shared row masks (Eq. 7–8),
/// enforcing the conditional floor, merging same-source frontiers into one
/// scan, per-query deadlines, and assembling estimates + split-R̂/ESS/MCSE
/// diagnostics from the indicator bitmaps. RunQueryPlan owns that skeleton;
/// the caller plugs in a BlockOps that answers two questions about a strip
/// of W 64-row blocks. The scalar reference and the strip replay at every
/// width differ only in their block ops, so they share every line of
/// assembly and answer bit-identically (tests/test_serve.cc).

#pragma once

#include <cstdint>
#include <vector>

#include "core/flow_query.h"
#include "graph/graph.h"
#include "serve/query_engine.h"
#include "serve/sample_bank.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace infoflow::serve {

/// \brief Per-strip query primitives supplied by an engine. A strip is W
/// consecutive 64-row blocks (W = StripWords()); one reachability pass
/// answers all 64·W rows of it. Methods are called concurrently from pool
/// workers; `worker` < pool.size() indexes the caller's per-worker scratch
/// (workspaces). Strips are partitioned between workers, so no strip is
/// touched by two workers at once.
class BlockOps {
 public:
  virtual ~BlockOps() = default;

  /// Blocks per strip, W ∈ {1, 4, 8} (graph/strip_reachability.h).
  virtual unsigned StripWords() const = 0;

  /// Lanes of `strip` whose rows satisfy every condition: the stripwise
  /// conditional indicator I(x, C) of Eq. 7–8. `lanes` is an in/out span
  /// of StripWords() words covering blocks [strip·W, strip·W+W) in block
  /// order (words past the bank's last block are zero); on entry each word
  /// holds its block's candidate lanes, on return the surviving ones.
  virtual void StripConditions(std::size_t worker, std::size_t strip,
                               const FlowConditions& conditions,
                               std::uint64_t* lanes) = 0;

  /// Reachability from the (sorted-unique) `sources` in each lane of
  /// `strip` restricted to `lanes`: writes out[s·W + w] = the lanes of
  /// block strip·W+w in which sinks[s] is reached. `sinks` is
  /// sorted-unique.
  virtual void StripReach(std::size_t worker, std::size_t strip,
                          const std::vector<NodeId>& sources,
                          const std::uint64_t* lanes,
                          const std::vector<NodeId>& sinks,
                          std::uint64_t* out) = 0;
};

/// \brief The skeleton knobs, mirrored from QueryEngineOptions.
struct QueryPlanOptions {
  std::size_t min_conditional_rows = 32;
  std::size_t rows_per_task = 256;
};

/// \brief Validates a request against `graph` exactly as QueryEngine does:
/// out-of-range endpoints and malformed shapes come back as descriptive
/// Statuses before any BFS workspace can see them.
Status ValidateQueryRequest(const DirectedGraph& graph,
                            const QueryRequest& request);

/// \brief Answers `requests` over `bank` using `ops` for per-strip work.
/// See query_engine.h for the request/result contract; this function *is*
/// QueryEngine::AnswerBatch with the reachability calls abstracted out.
std::vector<QueryResult> RunQueryPlan(const DirectedGraph& graph,
                                      const BankGeneration& bank,
                                      const std::vector<QueryRequest>& requests,
                                      const QueryPlanOptions& options,
                                      ThreadPool& pool, BlockOps& ops);

}  // namespace infoflow::serve
