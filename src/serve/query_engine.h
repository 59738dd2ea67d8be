/// \file query_engine.h
/// \brief Batched flow-query answering over a SampleBank generation.
///
/// Every query kind is the same estimator replayed over bank rows: for each
/// retained pseudo-state x, evaluate an indicator by BFS over x's packed
/// edge bits, then average (Eq. 5). Conditioning (Eq. 7/8) filters the rows
/// by I(x, C) first — the surviving count is reported as `effective_rows`
/// so callers can see how much evidence the conditional estimate rests on,
/// and queries whose surviving count falls below a floor fail with a
/// descriptive Status instead of returning a noisy ratio.
///
/// Batch amortization: queries in one batch that share a source frontier
/// (same source set, same conditioning set) are merged into one row scan —
/// a single multi-source BFS per row answers all their sinks at once. Each
/// distinct conditioning set's row mask is likewise computed once per
/// batch. Row scans run in parallel over the engine's thread pool, rows
/// partitioned contiguously per worker.
///
/// Bit-parallel row scans: by default the engine replays the bank's
/// W-word strip plane through StripWorkspace, answering 64·W rows per BFS
/// pass (W=1 is the bank's edge-major plane itself) — row masks,
/// conditioning indicators I(x, C) and per-sink indicators are all
/// computed stripwise as 64-bit lane masks, with conditional constraints
/// narrowing the live lanes so dead rows cost nothing. The scalar
/// one-BFS-per-row path (ReachabilityWorkspace over packed rows) is kept
/// as the reference implementation behind
/// `QueryEngineOptions::use_batch_reachability = false` (the serve
/// daemon's `--scalar-reachability` escape hatch); both paths produce
/// bit-identical results, which the differential tests assert.
///
/// Every estimate carries ChainDiagnostics (split-R̂ / ESS / MCSE, see
/// stats/convergence.h) computed from the per-chain draw sequences the
/// bank's chain-major row layout preserves.
///
/// Thread-safety: an engine instance must be driven by one thread at a time
/// (it reuses per-worker scratch); the serve daemon gives each connection
/// its own engine over the shared bank.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analytic/cascade_estimator.h"
#include "core/flow_query.h"
#include "graph/graph.h"
#include "graph/reachability.h"
#include "graph/strip_reachability.h"
#include "obs/metrics.h"
#include "serve/sample_bank.h"
#include "stats/convergence.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace infoflow::serve {

/// \brief What a query asks for.
enum class QueryKind {
  /// Pr[∃ s ∈ sources: s ⤳ sink | M, C] for a single sink (Eq. 5/8).
  kFlow,
  /// The same, for every sink of a community in one pass.
  kCommunity,
  /// Pr[all listed flows hold jointly | M, C].
  kJoint,
};

/// The canonical lower-case name ("flow" / "community" / "joint").
const char* QueryKindName(QueryKind kind);

/// \brief Which estimator answers a query.
///
/// `kBank` is the classic Eq. 5 replay over retained MH rows; `kAnalytic`
/// is the sampling-free message-passing estimator (analytic/
/// cascade_estimator.h); `kAuto` lets the BackendDispatcher route per
/// query — analytic only when the query is unconditional, non-joint, and
/// its reachable subgraph admits an *exact* analytic regime (tree-like or
/// enumerable), bank replay otherwise. Conditioning (Eq. 7–8) and joint
/// queries always go to the bank: their estimators are row filters by
/// construction.
enum class QueryBackend {
  kAuto,
  kAnalytic,
  kBank,
};

/// The canonical lower-case name ("auto" / "analytic" / "bank").
const char* QueryBackendName(QueryBackend backend);

/// Parses a backend name; fails descriptively on anything else.
Result<QueryBackend> ParseQueryBackend(std::string_view name);

/// \brief One flow query.
struct QueryRequest {
  /// Caller-assigned id echoed in the response (protocol correlation).
  std::string id;
  /// Daemon-minted per-query trace id (serve/MintQueryId); 0 = unstamped.
  /// Every TraceSpan in the query's lifetime carries it.
  std::uint64_t query_id = 0;
  /// True when the wire request carried `query_id` explicitly; only then
  /// is it echoed in the response — minted ids
  /// are internal, so identical runs stay byte-identical regardless of
  /// where the process-global mint counter happens to sit.
  bool query_id_provided = false;
  QueryKind kind = QueryKind::kFlow;
  /// Source set (kFlow/kCommunity). Multi-source models the omnipotent
  /// external world standing alongside a user (§V-D).
  std::vector<NodeId> sources;
  /// Sinks: exactly one for kFlow, one or more for kCommunity.
  std::vector<NodeId> sinks;
  /// The flows of a kJoint query.
  FlowConditions flows;
  /// Conditioning set C; empty → unconditional.
  FlowConditions given;
  /// Per-query deadline in milliseconds from batch entry; 0 → none.
  double timeout_ms = 0.0;
  /// Requested backend; absent → the engine's default_backend. Explicit
  /// kAnalytic fails descriptively when the query is ineligible (joint,
  /// conditional) or the subgraph is not tree-like enough; kAuto never
  /// fails for backend reasons — it falls back to the bank.
  std::optional<QueryBackend> backend;
};

/// \brief One sink's estimate with its convergence evidence.
struct SinkEstimate {
  NodeId sink = 0;
  /// Mean indicator over the surviving rows (all rows when unconditional).
  double value = 0.0;
  /// Cross-chain diagnostics of the indicator draws (MCSE/ESS/R̂).
  ChainDiagnostics diagnostics;
};

/// \brief Outcome of one query.
struct QueryResult {
  /// OK, or why the query failed (validation, conditional floor, deadline).
  Status status;
  /// One entry per sink (kFlow/kCommunity); one synthetic entry with
  /// sink = flows.front().sink for kJoint.
  std::vector<SinkEstimate> estimates;
  /// Rows surviving the I(x, C) filter — the effective retained count of
  /// Eq. 8's denominator.
  std::size_t effective_rows = 0;
  /// Rows in the generation the query was answered against.
  std::size_t total_rows = 0;
  /// Generation id the query was answered against.
  std::uint64_t generation = 0;
  /// Model epoch the generation's rows were drawn from (streaming daemons
  /// bump this on drift-triggered rebuilds; 1 for a static model).
  std::uint64_t model_epoch = 0;
  /// True when this query's row scan was merged with another query's
  /// (shared source frontier + conditioning set).
  bool frontier_shared = false;
  /// Wall-clock of the batch this query was answered in, milliseconds
  /// (batch attribution: every member of a batch reports the batch's
  /// latency). Feeds the slow-query log and latency histograms.
  double latency_ms = 0.0;
  /// Which estimator actually answered (never kAuto): kAnalytic when the
  /// dispatcher took the sampling-free path, kBank for row replay. Stamped
  /// into the serve NDJSON response, trace spans, and the slow-query log.
  QueryBackend backend = QueryBackend::kBank;
  /// The analytic regime used when backend == kAnalytic (tree-exact /
  /// enumeration / loopy); meaningless otherwise.
  analytic::AnalyticMethod analytic_method = analytic::AnalyticMethod::kTreeExact;
};

/// \brief Engine tuning.
struct QueryEngineOptions {
  /// Conditional queries whose surviving-row count falls below this floor
  /// fail with FailedPrecondition (the estimate would be noise).
  std::size_t min_conditional_rows = 32;
  /// Worker threads for row scans; 0 → hardware concurrency.
  std::size_t num_threads = 0;
  /// Rows scanned between deadline checks inside a worker.
  std::size_t rows_per_task = 256;
  /// Answer row scans 64·W rows at a time over the bank's strip planes
  /// (graph/strip_reachability.h). false falls back to the scalar
  /// one-BFS-per-row reference path — the `--scalar-reachability` escape
  /// hatch; results are bit-identical either way.
  bool use_batch_reachability = true;
  /// Replay lane width for the batch path (`--lanes {64,256,512,auto}`):
  /// k64/k256/k512 replay 1/4/8-word strips, so one BFS pass answers
  /// 64/256/512 rows; kAuto picks the widest strip the bank fills.
  /// Results are bit-identical at every width (differentially tested).
  /// Ignored on the scalar reference path.
  LaneWidth lanes = LaneWidth::kAuto;
  /// Backend for requests that don't carry one. kBank preserves the
  /// classic replay-everything behavior; the serve daemon's `--backend`
  /// flag and the CLI's `--backend` override it.
  QueryBackend default_backend = QueryBackend::kBank;
  /// Tuning for the analytic estimator (feasibility thresholds, loopy
  /// sweep budget). `require_exact` is ignored: the dispatcher forces it
  /// per query (true under kAuto, false under explicit kAnalytic).
  analytic::AnalyticOptions analytic;

  /// Validates the option values.
  Status Validate() const;
};

/// \brief Routes queries between the analytic estimator and bank replay.
///
/// QueryEngine::AnswerBatch runs it first: the dispatcher partitions a
/// batch into analytically-answered results and bank-bound requests, the
/// engine replays the latter over bank rows, and `Merge` re-interleaves.
class BackendDispatcher {
 public:
  explicit BackendDispatcher(const DirectedGraph& graph,
                             const QueryEngineOptions& options)
      : graph_(&graph), options_(&options) {}

  /// \brief Answers every analytically-routed request in `requests`;
  /// returns the indices of the requests the caller must replay against
  /// bank rows (in original order). `results` must be pre-sized to
  /// requests.size(); entries for analytic answers (success or
  /// explicit-backend failure) are filled, bank-bound entries untouched.
  std::vector<std::size_t> Partition(const BankGeneration& bank,
                                     const std::vector<QueryRequest>& requests,
                                     std::vector<QueryResult>& results) const;

  /// Scatters the caller's bank replay results (aligned with the index
  /// vector Partition returned) back into the full result vector and
  /// stamps every result's backend counter.
  static void Merge(const std::vector<std::size_t>& bank_indices,
                    std::vector<QueryResult>&& bank_results,
                    std::vector<QueryResult>& results);

 private:
  /// Answers one analytic-eligible query; sets `result` and returns true,
  /// or returns false when the query must go to the bank (kAuto fallback).
  bool TryAnalytic(const BankGeneration& bank, const QueryRequest& request,
                   QueryBackend backend, QueryResult& result) const;

  const DirectedGraph* graph_;
  const QueryEngineOptions* options_;
};

/// \brief Answers query batches against BankGeneration rows.
class QueryEngine {
 public:
  /// Builds an engine bound to `graph` (rows must come from the same
  /// topology — i.e. the SampleBank's graph_ptr()).
  static Result<QueryEngine> Create(std::shared_ptr<const DirectedGraph> graph,
                                    QueryEngineOptions options);

  /// \brief Answers every request against `bank`'s rows. Results are
  /// positionally aligned with `requests`. Invalid requests fail
  /// individually (their Status set) without affecting the rest.
  std::vector<QueryResult> AnswerBatch(
      const BankGeneration& bank, const std::vector<QueryRequest>& requests);

  /// Worker count actually in use.
  std::size_t num_threads() const { return pool_->size(); }

 private:
  QueryEngine(std::shared_ptr<const DirectedGraph> graph,
              QueryEngineOptions options);

  std::shared_ptr<const DirectedGraph> graph_;
  QueryEngineOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  /// Scratch BFS workspace per worker task index (scalar reference path).
  std::vector<ReachabilityWorkspace> workspaces_;
  /// Scratch strip workspace per worker task index (batch path). Lazily
  /// created at the batch's resolved width and recreated only when a later
  /// batch resolves a different width.
  std::vector<std::unique_ptr<StripWorkspace>> strip_workspaces_;
};

}  // namespace infoflow::serve
