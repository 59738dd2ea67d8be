#include "serve/query_engine.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "obs/trace.h"
#include "serve/query_plan.h"
#include "util/check.h"
#include "util/timer.h"

namespace infoflow::serve {
namespace {

/// True when every condition holds in the packed row (scalar path).
bool RowSatisfies(const DirectedGraph& graph, const std::uint64_t* row,
                  const FlowConditions& conditions,
                  ReachabilityWorkspace& workspace,
                  std::vector<NodeId>& source_scratch) {
  for (const FlowConstraint& c : conditions) {
    source_scratch[0] = c.source;
    const bool flows =
        workspace.RunUntilPacked(graph, source_scratch, row, c.sink);
    if (flows != c.must_flow) return false;
  }
  return true;
}

/// The single-graph BlockOps: each strip is replayed over the bank's
/// W-word strip plane through the per-worker StripWorkspaces (W=1 for
/// 64 lanes), or, on the scalar reference path (`strip_plane` null, one
/// block per strip), answered one BFS per live row over the packed rows.
class SingleGraphOps final : public BlockOps {
 public:
  SingleGraphOps(const DirectedGraph& graph, const BankGeneration& bank,
                 std::vector<ReachabilityWorkspace>& workspaces,
                 const StripPlane* strip_plane,
                 std::vector<std::unique_ptr<StripWorkspace>>& strip_workspaces)
      : graph_(graph),
        bank_(bank),
        workspaces_(workspaces),
        strip_plane_(strip_plane),
        strip_workspaces_(strip_workspaces) {}

  unsigned StripWords() const override {
    return strip_plane_ != nullptr ? strip_plane_->width : 1;
  }

  void StripConditions(std::size_t worker, std::size_t strip,
                       const FlowConditions& conditions,
                       std::uint64_t* lanes) override {
    std::vector<NodeId> src(1);
    if (strip_plane_ == nullptr) {
      ReachabilityWorkspace& ws = workspaces_[worker];
      const std::size_t row_end = std::min(bank_.num_rows(), (strip + 1) * 64);
      std::uint64_t word = 0;
      for (std::size_t r = strip * 64; r < row_end; ++r) {
        if ((lanes[0] >> (r & 63) & 1) == 0) continue;
        if (RowSatisfies(graph_, bank_.Row(r), conditions, ws, src)) {
          word |= std::uint64_t{1} << (r & 63);
        }
      }
      lanes[0] = word;
      return;
    }
    // Each constraint's BFS runs only over the still-live lanes, so every
    // dropped row makes the remaining constraints cheaper (stripwise
    // I(x, C) of Eq. 7–8).
    const unsigned wn = strip_plane_->width;
    StripWorkspace& ws = *strip_workspaces_[worker];
    std::uint64_t reached[kMaxStripWords];
    for (const FlowConstraint& c : conditions) {
      std::uint64_t live = 0;
      for (unsigned w = 0; w < wn; ++w) live |= lanes[w];
      if (live == 0) break;
      src[0] = c.source;
      ws.RunUntil(graph_, src, strip_plane_->StripWords(strip), c.sink,
                  lanes, reached);
      for (unsigned w = 0; w < wn; ++w) {
        lanes[w] = c.must_flow ? reached[w] : lanes[w] & ~reached[w];
      }
    }
  }

  void StripReach(std::size_t worker, std::size_t strip,
                  const std::vector<NodeId>& sources,
                  const std::uint64_t* lanes, const std::vector<NodeId>& sinks,
                  std::uint64_t* out) override {
    if (strip_plane_ == nullptr) {
      ReachabilityWorkspace& ws = workspaces_[worker];
      std::fill(out, out + sinks.size(), 0);
      const std::size_t row_end = std::min(bank_.num_rows(), (strip + 1) * 64);
      for (std::size_t r = strip * 64; r < row_end; ++r) {
        if ((lanes[0] >> (r & 63) & 1) == 0) continue;
        const std::uint64_t bit = std::uint64_t{1} << (r & 63);
        ws.RunPacked(graph_, sources, bank_.Row(r));
        for (std::size_t s = 0; s < sinks.size(); ++s) {
          if (ws.IsReached(sinks[s])) out[s] |= bit;
        }
      }
      return;
    }
    const unsigned wn = strip_plane_->width;
    StripWorkspace& ws = *strip_workspaces_[worker];
    ws.Run(graph_, sources, strip_plane_->StripWords(strip), lanes);
    for (std::size_t s = 0; s < sinks.size(); ++s) {
      const std::uint64_t* mask = ws.ReachedMask(sinks[s]);
      for (unsigned w = 0; w < wn; ++w) out[s * wn + w] = mask[w];
    }
  }

 private:
  const DirectedGraph& graph_;
  const BankGeneration& bank_;
  std::vector<ReachabilityWorkspace>& workspaces_;
  const StripPlane* strip_plane_;
  std::vector<std::unique_ptr<StripWorkspace>>& strip_workspaces_;
};

}  // namespace

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kFlow:
      return "flow";
    case QueryKind::kCommunity:
      return "community";
    case QueryKind::kJoint:
      return "joint";
  }
  return "unknown";
}

const char* QueryBackendName(QueryBackend backend) {
  switch (backend) {
    case QueryBackend::kAuto:
      return "auto";
    case QueryBackend::kAnalytic:
      return "analytic";
    case QueryBackend::kBank:
      return "bank";
  }
  return "unknown";
}

Result<QueryBackend> ParseQueryBackend(std::string_view name) {
  if (name == "auto") return QueryBackend::kAuto;
  if (name == "analytic") return QueryBackend::kAnalytic;
  if (name == "bank") return QueryBackend::kBank;
  return Status::InvalidArgument("unknown backend \"", std::string(name),
                                 "\"; expected auto, analytic, or bank");
}

bool BackendDispatcher::TryAnalytic(const BankGeneration& bank,
                                    const QueryRequest& request,
                                    QueryBackend backend,
                                    QueryResult& result) const {
  const bool explicit_analytic = backend == QueryBackend::kAnalytic;
  // Eq. 7–8 conditioning and joint indicators are row filters by
  // construction — only the bank can answer them. Under kAuto they route
  // silently; an explicit analytic ask fails descriptively.
  if (request.kind == QueryKind::kJoint || !request.given.empty()) {
    if (!explicit_analytic) return false;
    result.status = Status::FailedPrecondition(
        "the analytic backend answers unconditional flow/community queries "
        "only; ",
        request.kind == QueryKind::kJoint
            ? "joint queries are"
            : "conditioning (Eq. 7-8) is",
        " defined as a filter over retained rows -- use the bank backend");
    result.backend = QueryBackend::kAnalytic;
    return true;
  }
  const PointIcm* model = bank.model();
  if (model == nullptr) {
    if (!explicit_analytic) return false;
    result.status = Status::FailedPrecondition(
        "generation ", bank.id(),
        " carries no model snapshot; the analytic backend needs the edge "
        "probabilities the rows were drawn from");
    result.backend = QueryBackend::kAnalytic;
    return true;
  }
  WallTimer timer;
  obs::TraceSpan span("serve/analytic", request.query_id);
  analytic::AnalyticOptions opts = options_->analytic;
  // Auto routing only trusts the exact regimes (tree / enumeration): the
  // loopy correction is approximate, so a caller who didn't ask for the
  // analytic backend by name never receives an approximate answer.
  opts.require_exact = backend == QueryBackend::kAuto;
  auto answer = analytic::ReachProbabilities(*graph_, model->probs(),
                                             request.sources, opts);
  if (!answer.ok()) {
    if (!explicit_analytic) return false;
    result.status = answer.status();
    result.backend = QueryBackend::kAnalytic;
    return true;
  }
  result.status = Status::OK();
  result.estimates.reserve(request.sinks.size());
  for (const NodeId sink : request.sinks) {
    SinkEstimate estimate;
    estimate.sink = sink;
    estimate.value = answer->probability[sink];
    // Closed-form answer: no sampling noise. MCSE 0 / R-hat 1 make the
    // diagnostics read as a perfectly converged estimator downstream.
    estimate.diagnostics.mean = estimate.value;
    result.estimates.push_back(std::move(estimate));
  }
  result.effective_rows = 0;
  result.total_rows = bank.num_rows();
  result.generation = bank.id();
  result.model_epoch = bank.model_epoch();
  result.frontier_shared = false;
  result.latency_ms = timer.Millis();
  result.backend = QueryBackend::kAnalytic;
  result.analytic_method = answer->method;
  return true;
}

std::vector<std::size_t> BackendDispatcher::Partition(
    const BankGeneration& bank, const std::vector<QueryRequest>& requests,
    std::vector<QueryResult>& results) const {
  IF_CHECK(results.size() == requests.size())
      << "results must be pre-sized to the batch";
  std::vector<std::size_t> bank_indices;
  bank_indices.reserve(requests.size());
  for (std::size_t j = 0; j < requests.size(); ++j) {
    const QueryRequest& request = requests[j];
    const QueryBackend backend =
        request.backend.value_or(options_->default_backend);
    if (backend == QueryBackend::kBank ||
        // Invalid requests take the bank path so both backends fail them
        // with the one canonical validation message.
        !ValidateQueryRequest(*graph_, request).ok() ||
        !TryAnalytic(bank, request, backend, results[j])) {
      bank_indices.push_back(j);
    }
  }
  return bank_indices;
}

void BackendDispatcher::Merge(const std::vector<std::size_t>& bank_indices,
                              std::vector<QueryResult>&& bank_results,
                              std::vector<QueryResult>& results) {
  IF_CHECK(bank_results.size() == bank_indices.size())
      << "bank results misaligned with the routed indices";
  for (std::size_t i = 0; i < bank_indices.size(); ++i) {
    results[bank_indices[i]] = std::move(bank_results[i]);
  }
  if constexpr (obs::MetricsEnabled()) {
    for (const QueryResult& result : results) {
      obs::GetCounter(std::string("serve.query.backend_total.") +
                      QueryBackendName(result.backend))
          .Increment();
    }
  }
}

Status QueryEngineOptions::Validate() const {
  if (rows_per_task == 0) {
    return Status::InvalidArgument("rows_per_task must be positive");
  }
  return Status::OK();
}

Result<QueryEngine> QueryEngine::Create(
    std::shared_ptr<const DirectedGraph> graph, QueryEngineOptions options) {
  IF_CHECK(graph != nullptr) << "null graph";
  IF_RETURN_NOT_OK(options.Validate());
  return QueryEngine(std::move(graph), options);
}

QueryEngine::QueryEngine(std::shared_ptr<const DirectedGraph> graph,
                         QueryEngineOptions options)
    : graph_(std::move(graph)),
      options_(options),
      pool_(std::make_unique<ThreadPool>(options.num_threads)) {
  workspaces_.reserve(pool_->size());
  for (std::size_t t = 0; t < pool_->size(); ++t) {
    workspaces_.emplace_back(*graph_);
  }
  // Strip workspaces stay null until a batch resolves its width.
  strip_workspaces_.resize(pool_->size());
}

std::vector<QueryResult> QueryEngine::AnswerBatch(
    const BankGeneration& bank, const std::vector<QueryRequest>& requests) {
  std::vector<QueryResult> results(requests.size());
  BackendDispatcher dispatcher(*graph_, options_);
  const std::vector<std::size_t> bank_indices =
      dispatcher.Partition(bank, requests, results);
  // Resolve the replay width against this generation's row count; a
  // W-word strip plane (W > 1) is interleaved lazily on first acquisition
  // and cached on the generation, so later batches pay nothing.
  std::shared_ptr<const StripPlane> strip_plane;
  if (options_.use_batch_reachability) {
    const unsigned strip_words =
        ResolveStripWords(options_.lanes, bank.num_rows(),
                          graph_->num_nodes(), graph_->num_edges());
    strip_plane = bank.AcquireStripPlane(strip_words);
    for (auto& ws : strip_workspaces_) {
      if (ws == nullptr || ws->words() != strip_words) {
        ws = StripWorkspace::Create(strip_words, *graph_);
      }
    }
    obs::GetGauge("reach.strip_width").Set(64.0 * strip_words);
  }
  SingleGraphOps ops(*graph_, bank, workspaces_, strip_plane.get(),
                     strip_workspaces_);
  QueryPlanOptions plan;
  plan.min_conditional_rows = options_.min_conditional_rows;
  plan.rows_per_task = options_.rows_per_task;
  if (bank_indices.size() == requests.size()) {
    // Everything routed to the bank (the default): no subset copy.
    BackendDispatcher::Merge(bank_indices,
                             RunQueryPlan(*graph_, bank, requests, plan,
                                          *pool_, ops),
                             results);
    return results;
  }
  std::vector<QueryRequest> bank_requests;
  bank_requests.reserve(bank_indices.size());
  for (const std::size_t j : bank_indices) {
    bank_requests.push_back(requests[j]);
  }
  BackendDispatcher::Merge(bank_indices,
                           RunQueryPlan(*graph_, bank, bank_requests, plan,
                                        *pool_, ops),
                           results);
  return results;
}

}  // namespace infoflow::serve
