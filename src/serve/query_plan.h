/// \file query_plan.h
/// \brief The engine-agnostic batch query skeleton behind QueryEngine.
///
/// Everything about answering a batch *except* per-block reachability is
/// pure bookkeeping over the bank's row/lane layout: request validation,
/// deduplicating conditioning sets into shared row masks (Eq. 7–8),
/// enforcing the conditional floor, merging same-source frontiers into one
/// scan, per-query deadlines, and assembling estimates + split-R̂/ESS/MCSE
/// diagnostics from the indicator bitmaps. RunQueryPlan owns that skeleton;
/// the caller plugs in a BlockOps that answers two questions about a single
/// 64-row block (or a strip of W blocks). The scalar, 64-lane and strip
/// replays differ only in their block ops, so they share every line of
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

/// \brief Per-block query primitives supplied by an engine. Methods are
/// called concurrently from pool workers; `worker` < pool.size() indexes
/// the caller's per-worker scratch (workspaces). Blocks are partitioned
/// between workers, so no block is touched by two workers at once.
class BlockOps {
 public:
  virtual ~BlockOps() = default;

  /// Lanes of `block` (restricted to `lanes`) whose rows satisfy every
  /// condition: the blockwise conditional indicator I(x, C) of Eq. 7–8.
  virtual std::uint64_t BlockConditions(std::size_t worker, std::size_t block,
                                        const FlowConditions& conditions,
                                        std::uint64_t lanes) = 0;

  /// Reachability from the (sorted-unique) `sources` in each lane of
  /// `block` restricted to `lanes`: sets out[s] to the mask of lanes in
  /// which sinks[s] is reached. `sinks` is sorted-unique.
  virtual void BlockReach(std::size_t worker, std::size_t block,
                          const std::vector<NodeId>& sources,
                          std::uint64_t lanes,
                          const std::vector<NodeId>& sinks,
                          std::uint64_t* out) = 0;

  /// \brief 64-row blocks answered per reachability pass. Engines replaying
  /// multi-word strips (graph/strip_reachability.h) return the strip width
  /// W; the plan then iterates strips of W consecutive blocks and calls the
  /// Strip* hooks below, so one BFS amortizes over 64·W rows. The default
  /// (1) keeps the per-block iteration byte-for-byte.
  virtual unsigned StripWords() const { return 1; }

  /// Strip variant of BlockConditions. `lanes` is an in/out span of
  /// StripWords() words covering blocks [strip·W, strip·W+W) in block
  /// order (words past the bank's last block are zero); on return each
  /// word holds its block's surviving lanes. The default forwards the
  /// single block of a width-1 strip.
  virtual void StripConditions(std::size_t worker, std::size_t strip,
                               const FlowConditions& conditions,
                               std::uint64_t* lanes) {
    lanes[0] = BlockConditions(worker, strip, conditions, lanes[0]);
  }

  /// Strip variant of BlockReach: writes out[s·W + w] = the lanes of block
  /// strip·W+w in which sinks[s] is reached.
  virtual void StripReach(std::size_t worker, std::size_t strip,
                          const std::vector<NodeId>& sources,
                          const std::uint64_t* lanes,
                          const std::vector<NodeId>& sinks,
                          std::uint64_t* out) {
    BlockReach(worker, strip, sources, lanes[0], sinks, out);
  }
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

/// \brief Answers `requests` over `bank` using `ops` for per-block work.
/// See query_engine.h for the request/result contract; this function *is*
/// QueryEngine::AnswerBatch with the reachability calls abstracted out.
std::vector<QueryResult> RunQueryPlan(const DirectedGraph& graph,
                                      const BankGeneration& bank,
                                      const std::vector<QueryRequest>& requests,
                                      const QueryPlanOptions& options,
                                      ThreadPool& pool, BlockOps& ops);

}  // namespace infoflow::serve
