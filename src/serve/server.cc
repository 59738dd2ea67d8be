#include "serve/server.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <condition_variable>
#include <cstring>
#include <fstream>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/transport.h"
#include "util/check.h"
#include "util/json.h"
#include "util/timer.h"

namespace infoflow::serve {

struct Server::Background {
  std::atomic<bool> stopping{false};
  std::atomic<bool> started{false};
  int listen_fd = -1;
  std::thread accept_thread;
  std::thread refresh_thread;
  std::mutex connections_mutex;
  std::vector<std::thread> connections;

  /// Drift-rebuild worker state: the epoch callback queues the newest
  /// epoch (later epochs supersede queued ones — rebuilding onto stale
  /// models is wasted burn-in); the worker applies it off-thread.
  std::thread rebuild_thread;
  std::mutex rebuild_mutex;
  std::condition_variable rebuild_cv;
  std::shared_ptr<const stream::ModelEpoch> pending_epoch;
  /// Rebuild-worker shutdown is signalled separately from `stopping`:
  /// Stop() raises it only after the feed, listener, and every connection
  /// thread have been quiesced, so an epoch published by a late ingest
  /// line is still drained (the guarantee Stop() documents).
  bool rebuild_stop = false;

  /// Periodic metrics-snapshot writer (the CLI's --stats-every).
  std::thread stats_thread;
  /// Slow-query log sink, opened lazily on the first slow query so tests
  /// (and stdio daemons) need no Start() for it; connections share it.
  std::mutex slow_mutex;
  std::ofstream slow_out;
  bool slow_open_failed = false;
};

Status ServerOptions::Validate() const {
  if (max_batch == 0) {
    return Status::InvalidArgument("max_batch must be positive");
  }
  if (refresh_interval_ms < 0.0) {
    return Status::InvalidArgument("refresh_interval_ms must be >= 0");
  }
  if (drift_threshold < 0.0) {
    return Status::InvalidArgument("drift_threshold must be >= 0");
  }
  if (!socket_path.empty() && socket_path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return Status::InvalidArgument("socket path too long: ", socket_path);
  }
  if (stats_interval_ms < 0.0) {
    return Status::InvalidArgument("stats_interval_ms must be >= 0");
  }
  if (stats_interval_ms > 0.0 && stats_path.empty()) {
    return Status::InvalidArgument(
        "stats_interval_ms needs stats_path (the snapshot destination)");
  }
  if (slow_query_ms < 0.0) {
    return Status::InvalidArgument("slow_query_ms must be >= 0");
  }
  if (slow_query_ms > 0.0 && slow_query_path.empty()) {
    return Status::InvalidArgument(
        "slow_query_ms needs slow_query_path (the NDJSON log destination)");
  }
  return engine.Validate();
}

Result<Server> Server::Create(SampleBank bank, ServerOptions options) {
  IF_RETURN_NOT_OK(options.Validate());
  IF_RETURN_NOT_OK(options.engine.Validate());
  Server server(std::move(bank), std::move(options));
  // The reversed view is cheap (one transpose); sketch sets are built
  // lazily on the first {"topk":...} request and re-primed on publishes.
  server.rr_index_ =
      std::make_shared<seedmax::RrIndex>(server.bank_.graph_ptr());
  return server;
}

Server::Server(SampleBank bank, ServerOptions options)
    : bank_(std::move(bank)),
      options_(std::move(options)),
      background_(std::make_unique<Background>()),
      metric_batches_(&obs::GetCounter("serve.server.batches_total")),
      metric_lines_(&obs::GetCounter("serve.server.lines_total")),
      metric_connections_(&obs::GetCounter("serve.server.connections_total")),
      metric_ingest_lines_(&obs::GetCounter("serve.server.ingest_lines_total")),
      metric_rebuilds_triggered_(
          &obs::GetCounter("serve.server.rebuilds_triggered_total")),
      metric_admin_requests_(
          &obs::GetCounter("serve.server.admin_requests_total")),
      metric_topk_requests_(
          &obs::GetCounter("serve.server.topk_requests_total")),
      metric_slow_queries_(&obs::GetCounter("serve.slow_queries_total")),
      metric_oversized_lines_(
          &obs::GetCounter("serve.protocol.oversized_lines_total")),
      metric_qps_(&obs::GetGauge("serve.server.queries_per_s")),
      metric_batch_lines_(&obs::GetHistogram(
          "serve.server.batch_lines",
          {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0})) {}

Server::Server(Server&&) noexcept = default;
Server& Server::operator=(Server&&) noexcept = default;

Server::~Server() {
  if (background_ != nullptr) Stop();
}

Status Server::ServeFd(int in_fd, int out_fd) {
  auto engine = QueryEngine::Create(bank_.graph_ptr(), options_.engine);
  if (!engine.ok()) return engine.status();
  LineReader reader(in_fd, options_.interrupt);
  std::string line;
  std::vector<std::string> lines;
  // oversized[j]: line j exceeded kMaxLineBytes and was dropped unread.
  std::vector<bool> oversized;
  // Responses to lines answered while parsing (errors, admin, top-k,
  // ingest). A query line's slot stays empty: every response is non-empty,
  // so an empty slot marks the next query result.
  std::vector<std::string> early;
  std::vector<QueryRequest> requests;
  std::string out;
  while (reader.NextLine(line)) {
    WallTimer timer;
    lines.clear();
    oversized.clear();
    lines.push_back(std::move(line));
    oversized.push_back(reader.oversized());
    // Greedy batch: fold in every complete line the client already sent.
    while (lines.size() < options_.max_batch && reader.TryNextLine(line)) {
      lines.push_back(std::move(line));
      oversized.push_back(reader.oversized());
    }

    early.assign(lines.size(), std::string());
    requests.clear();
    for (std::size_t j = 0; j < lines.size(); ++j) {
      std::string& response = early[j];
      if (oversized[j]) {
        metric_oversized_lines_->Increment();
        SerializeParseError(
            Status::InvalidArgument("request line longer than ",
                                    kMaxLineBytes, " bytes"),
            JsonValue(), response);
        continue;
      }
      if (lines[j].empty()) {
        SerializeParseError(Status::InvalidArgument("empty request line"),
                            JsonValue(), response);
        continue;
      }
      auto json = ParseJson(lines[j]);
      if (!json.ok()) {
        SerializeParseError(json.status(), JsonValue(), response);
        continue;
      }
      if (IsAdminRequest(*json)) {
        metric_admin_requests_->Increment();
        auto admin = ParseAdminRequest(*json);
        if (admin.ok()) {
          response = HandleAdmin(*admin);
        } else {
          SerializeParseError(admin.status(), RequestId(*json), response);
        }
        continue;
      }
      if (IsTopkRequest(*json)) {
        metric_topk_requests_->Increment();
        auto topk = ParseTopkRequest(*json);
        if (!topk.ok()) {
          SerializeParseError(topk.status(), RequestId(*json), response);
          continue;
        }
        // Same boundary discipline as queries: a request arriving without
        // a query_id gets one minted here so its spans share a trace tree.
        if (topk->query_id == 0) topk->query_id = MintQueryId();
        response = HandleTopk(*topk);
        continue;
      }
      if (IsIngestRequest(*json)) {
        // Ingest lines are absorbed synchronously, in order with the
        // surrounding queries: a client that writes evidence then a query
        // knows the evidence was absorbed first (the bank rebuild itself
        // is asynchronous).
        auto ingest = ParseIngestRequest(*json);
        if (!ingest.ok()) {
          SerializeParseError(ingest.status(), RequestId(*json), response);
          continue;
        }
        metric_ingest_lines_->Increment();
        if (ingestor_ == nullptr) {
          SerializeIngestError(
              *ingest,
              Status::FailedPrecondition(
                  "ingestion is not enabled on this daemon "
                  "(start serve with --ingest)"),
              response);
          continue;
        }
        auto ack = ingestor_->IngestLine(ingest->record);
        if (ack.ok()) {
          SerializeIngestAck(*ingest, ack->absorbed_total, ack->epoch,
                             response);
        } else {
          SerializeIngestError(*ingest, ack.status(), response);
        }
        continue;
      }
      auto request = ParseRequest(*json);
      if (!request.ok()) {
        SerializeParseError(request.status(), RequestId(*json), response);
        continue;
      }
      // Queries arriving without a query_id (the normal case) get one
      // minted here, at the protocol boundary.
      if (request->query_id == 0) request->query_id = MintQueryId();
      requests.push_back(std::move(*request));
    }

    std::vector<QueryResult> results;
    if (!requests.empty()) {
      const std::shared_ptr<const BankGeneration> generation = bank_.Acquire();
      results = engine->AnswerBatch(*generation, requests);
      LogSlowQueries(requests, results);
    }

    // Every response goes straight into the batch buffer in line order;
    // query results are serialized in place as their lines come up.
    out.clear();
    std::size_t k = 0;
    for (const std::string& response : early) {
      if (response.empty()) {
        SerializeResult(requests[k], results[k], out);
        ++k;
      } else {
        out += response;
      }
      out += '\n';
    }
    if (!WriteAll(out_fd, out)) {
      return Status::IOError("short write to fd ", out_fd, ": ",
                             std::strerror(errno));
    }

    metric_batches_->Increment();
    metric_lines_->Increment(lines.size());
    metric_batch_lines_->Record(static_cast<double>(lines.size()));
    const double seconds = timer.Seconds();
    if (seconds > 0) {
      metric_qps_->Set(static_cast<double>(lines.size()) / seconds);
    }
    bank_.GenerationAgeSeconds();  // refreshes the age gauge
  }
  return Status::OK();
}

std::string Server::HandleTopk(const TopkRequest& request) {
  // The topk kind gets the same latency instruments as flow / community /
  // joint: a log-bucketed histogram plus p50/p95/p99 gauges refreshed per
  // request (see serve/query_plan.cc's MakeKindLatency).
  struct TopkLatency {
    obs::Histogram* hist = &obs::GetHistogram(
        "serve.query.latency_ms.topk", obs::LogBuckets(0.05, 10000.0, 3));
    obs::Gauge* p50 = &obs::GetGauge("serve.query.latency_ms.topk.p50");
    obs::Gauge* p95 = &obs::GetGauge("serve.query.latency_ms.topk.p95");
    obs::Gauge* p99 = &obs::GetGauge("serve.query.latency_ms.topk.p99");
  };
  static TopkLatency latency;

  WallTimer timer;
  obs::TraceSpan span("serve/topk", request.query_id);
  const std::shared_ptr<const BankGeneration> generation = bank_.Acquire();
  const auto outcome = [&]() -> Result<seedmax::SeedMaxResult> {
    std::shared_ptr<const seedmax::RrSketchSet> sketches;
    if (request.community.empty() && request.given.empty()) {
      // The default universe reuses (or builds and publishes) the cached
      // generation-keyed sketch set.
      auto acquired = rr_index_->Acquire(generation);
      IF_RETURN_NOT_OK(acquired.status());
      sketches = std::move(*acquired);
    } else {
      // Community / conditioned universes are request-specific: build an
      // ad-hoc sketch set against the same generation (the reversed view
      // and gathered planes amortize the inversion's fixed costs).
      obs::TraceSpan build_span("seedmax/build_sketches", request.query_id);
      seedmax::RrBuildOptions build;
      build.targets = request.community;
      build.given = request.given;
      build.min_conditional_rows = options_.engine.min_conditional_rows;
      build.pool = &rr_index_->pool();
      auto built =
          seedmax::RrSketchSet::Build(rr_index_->view(), *generation, build);
      IF_RETURN_NOT_OK(built.status());
      sketches =
          std::make_shared<const seedmax::RrSketchSet>(std::move(*built));
    }
    obs::TraceSpan select_span("seedmax/select_seeds", request.query_id);
    seedmax::SeedMaxOptions options;
    options.num_seeds = request.k;
    options.candidates = request.candidates;
    return seedmax::SelectSeeds(*sketches, options);
  }();

  const double ms = timer.Millis();
  if constexpr (obs::MetricsEnabled()) {
    latency.hist->Record(ms);
    const obs::HistogramSnapshot snap = latency.hist->Snapshot();
    latency.p50->Set(snap.Quantile(0.50));
    latency.p95->Set(snap.Quantile(0.95));
    latency.p99->Set(snap.Quantile(0.99));
  }
  return outcome.ok() ? SerializeTopkResult(request, *outcome)
                      : SerializeTopkError(request, outcome.status());
}

std::string Server::HandleAdmin(const AdminRequest& request) {
  JsonValue::Object response;
  response["id"] = request.id;
  response["ok"] = true;
  switch (request.verb) {
    case AdminRequest::Verb::kStats: {
      const obs::MetricsSnapshot snap =
          obs::MetricsRegistry::Global().Snapshot();
      auto stats = ParseJson(snap.ToJson());
      IF_CHECK(stats.ok()) << "metrics snapshot must serialize as JSON";
      response["stats"] = std::move(*stats);
      response["prometheus"] = snap.ToPrometheus();
      break;
    }
    case AdminRequest::Verb::kHealth: {
      JsonValue::Object health;
      health["role"] = "server";
      const std::shared_ptr<const BankGeneration> generation = bank_.Acquire();
      health["generation"] = static_cast<double>(generation->id());
      health["generation_age_s"] = bank_.GenerationAgeSeconds();
      health["model_epoch"] = static_cast<double>(generation->model_epoch());
      health["rows"] = static_cast<double>(generation->num_rows());
      JsonValue::Object ingest;
      ingest["enabled"] = ingestor_ != nullptr;
      if (ingestor_ != nullptr) {
        ingest["epoch"] =
            static_cast<double>(ingestor_->CurrentEpoch()->id);
        ingest["absorbed_total"] =
            static_cast<double>(ingestor_->absorbed());
        ingest["rejected_total"] =
            static_cast<double>(ingestor_->rejected());
        ingest["queue_depth"] =
            static_cast<double>(ingestor_->queue_depth());
      }
      health["ingest"] = std::move(ingest);
      response["health"] = std::move(health);
      break;
    }
    case AdminRequest::Verb::kTraceEnable:
      obs::Tracing::Enable(request.trace_capacity != 0
                               ? request.trace_capacity
                               : std::size_t{1} << 14);
      response["trace"] = "enabled";
      break;
    case AdminRequest::Verb::kTraceDisable:
      obs::Tracing::Disable();
      response["trace"] = "disabled";
      break;
    case AdminRequest::Verb::kTraceExport: {
      auto exported = ParseJson(obs::Tracing::ExportChromeJson());
      IF_CHECK(exported.ok()) << "trace export must serialize as JSON";
      response["trace"] = std::move(*exported);
      break;
    }
  }
  return JsonValue(std::move(response)).Dump();
}

void Server::LogSlowQueries(const std::vector<QueryRequest>& requests,
                            const std::vector<QueryResult>& results) {
  if (options_.slow_query_ms <= 0.0) return;
  Background& bg = *background_;
  for (std::size_t k = 0; k < requests.size(); ++k) {
    const QueryResult& result = results[k];
    const bool deadline =
        result.status.code() == StatusCode::kDeadlineExceeded;
    if (result.latency_ms < options_.slow_query_ms && !deadline) continue;
    metric_slow_queries_->Increment();
    JsonValue::Object record;
    record["ts_ms"] = static_cast<double>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    record["query_id"] = static_cast<double>(requests[k].query_id);
    record["id"] = requests[k].id;
    record["kind"] = QueryKindName(requests[k].kind);
    record["backend"] = QueryBackendName(result.backend);
    record["ok"] = result.status.ok();
    if (!result.status.ok()) {
      record["error_code"] = StatusCodeName(result.status.code());
    }
    record["latency_ms"] = result.latency_ms;
    record["generation"] = static_cast<double>(result.generation);
    record["model_epoch"] = static_cast<double>(result.model_epoch);
    record["total_rows"] = static_cast<double>(result.total_rows);
    record["effective_rows"] = static_cast<double>(result.effective_rows);
    double rhat_max = 0.0;
    for (const SinkEstimate& est : result.estimates) {
      rhat_max = std::max(rhat_max, est.diagnostics.rhat);
    }
    record["rhat_max"] = rhat_max;
    const std::string line = JsonValue(std::move(record)).Dump();
    std::lock_guard<std::mutex> lock(bg.slow_mutex);
    if (!bg.slow_out.is_open() && !bg.slow_open_failed) {
      bg.slow_out.open(options_.slow_query_path, std::ios::app);
      // A bad path must not take the serve loop down; note it once.
      bg.slow_open_failed = !bg.slow_out.is_open();
    }
    if (bg.slow_out.is_open()) {
      bg.slow_out << line << '\n';
      bg.slow_out.flush();
    }
  }
}

void Server::WriteStatsSnapshot() {
  const std::string tmp = options_.stats_path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.is_open()) return;
    out << obs::MetricsRegistry::Global().Snapshot().ToJson() << '\n';
  }
  std::rename(tmp.c_str(), options_.stats_path.c_str());
}

void Server::StatsLoop() {
  Background& bg = *background_;
  const auto interval =
      std::chrono::duration<double, std::milli>(options_.stats_interval_ms);
  auto next = std::chrono::steady_clock::now() + interval;
  while (!bg.stopping.load()) {
    if (std::chrono::steady_clock::now() < next) {
      // Sleep in short slices so Stop() is prompt.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    WriteStatsSnapshot();
    next = std::chrono::steady_clock::now() + interval;
  }
  // Stop() writes the final snapshot after joining us.
}

void Server::AttachIngestor(
    std::shared_ptr<stream::StreamIngestor> ingestor) {
  IF_CHECK(!background_->started.load())
      << "AttachIngestor must precede Start()";
  ingestor_ = std::move(ingestor);
  ingestor_->SetEpochCallback(
      [this](std::shared_ptr<const stream::ModelEpoch> epoch) {
        if (epoch->drift > options_.drift_threshold) {
          RequestRebuild(std::move(epoch));
        }
      });
}

void Server::RequestRebuild(
    std::shared_ptr<const stream::ModelEpoch> epoch) {
  Background& bg = *background_;
  {
    std::lock_guard<std::mutex> lock(bg.rebuild_mutex);
    bg.pending_epoch = std::move(epoch);  // newest epoch supersedes
  }
  metric_rebuilds_triggered_->Increment();
  bg.rebuild_cv.notify_one();
}

void Server::RebuildLoop() {
  Background& bg = *background_;
  while (true) {
    std::shared_ptr<const stream::ModelEpoch> epoch;
    {
      std::unique_lock<std::mutex> lock(bg.rebuild_mutex);
      bg.rebuild_cv.wait(lock, [&bg] {
        return bg.pending_epoch != nullptr || bg.rebuild_stop;
      });
      // A queued epoch is still applied during shutdown (the drain Stop()
      // promises); the worker exits only once nothing is pending.
      if (bg.pending_epoch == nullptr) return;
      epoch = std::move(bg.pending_epoch);
      bg.pending_epoch = nullptr;
    }
    if (bank_.Rebuild(epoch->model, epoch->id).ok()) {
      // Re-prime the sketch index on the new generation, so streamed
      // evidence deterministically invalidates stale reverse-reachable
      // sketches.
      rr_index_->Prime(bank_.Acquire());
    }
  }
}

Status Server::Start() {
  Background& bg = *background_;
  if (bg.started.exchange(true)) {
    return Status::FailedPrecondition("server already started");
  }
  if (!options_.socket_path.empty()) {
    const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
      return Status::IOError("socket(): ", std::strerror(errno));
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    unlink(options_.socket_path.c_str());
    if (bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
      const Status status = Status::IOError(
          "bind(", options_.socket_path, "): ", std::strerror(errno));
      close(fd);
      return status;
    }
    if (listen(fd, 16) < 0) {
      const Status status = Status::IOError("listen(): ", std::strerror(errno));
      close(fd);
      return status;
    }
    bg.listen_fd = fd;
    bg.accept_thread = std::thread([this] { AcceptLoop(); });
  }
  if (options_.refresh_interval_ms > 0.0) {
    bg.refresh_thread = std::thread([this] { RefreshLoop(); });
  }
  if (ingestor_ != nullptr) {
    bg.rebuild_thread = std::thread([this] { RebuildLoop(); });
  }
  if (options_.stats_interval_ms > 0.0) {
    bg.stats_thread = std::thread([this] { StatsLoop(); });
  }
  return Status::OK();
}

void Server::AcceptLoop() {
  Background& bg = *background_;
  while (!bg.stopping.load()) {
    const int conn = accept(bg.listen_fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      return;  // listen fd closed by Stop(), or fatal
    }
    metric_connections_->Increment();
    std::lock_guard<std::mutex> lock(bg.connections_mutex);
    bg.connections.emplace_back([this, conn] {
      // Each connection gets its own engine (ServeFd creates one); the bank
      // is shared and its Acquire() is thread-safe.
      (void)ServeFd(conn, conn);
      close(conn);
    });
  }
}

void Server::RefreshLoop() {
  Background& bg = *background_;
  const auto interval = std::chrono::duration<double, std::milli>(
      options_.refresh_interval_ms);
  auto next = std::chrono::steady_clock::now() + interval;
  while (!bg.stopping.load()) {
    if (std::chrono::steady_clock::now() < next) {
      // Sleep in short slices so Stop() is prompt.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    bank_.Refresh();
    rr_index_->Prime(bank_.Acquire());
    next = std::chrono::steady_clock::now() + interval;
  }
}

void Server::Stop() {
  Background& bg = *background_;
  bg.stopping.store(true);
  // Quiesce every epoch source before the rebuild worker is allowed to
  // exit: first the side-channel feed (draining it may publish one final
  // epoch), then the listener and the connection threads (an open
  // connection can absorb an {"ingest":...} line until it is joined).
  if (ingestor_ != nullptr) ingestor_->StopFeed();
  // shutdown() unblocks accept(); the fd is closed and cleared only after
  // the accept thread, which reads it, has been joined.
  if (bg.listen_fd >= 0) shutdown(bg.listen_fd, SHUT_RDWR);
  if (bg.accept_thread.joinable()) bg.accept_thread.join();
  if (bg.listen_fd >= 0) {
    close(bg.listen_fd);
    bg.listen_fd = -1;
  }
  if (bg.refresh_thread.joinable()) bg.refresh_thread.join();
  if (bg.stats_thread.joinable()) bg.stats_thread.join();
  // Final snapshot so the artifact reflects every line served, even on a
  // daemon that never ran the periodic writer (stats_path without
  // --stats-every).
  if (!options_.stats_path.empty()) WriteStatsSnapshot();
  std::vector<std::thread> connections;
  {
    std::lock_guard<std::mutex> lock(bg.connections_mutex);
    connections.swap(bg.connections);
  }
  for (std::thread& t : connections) {
    if (t.joinable()) t.join();
  }
  // Nothing can publish through this server anymore; detach the callback
  // so an ingestor kept alive by an external shared_ptr cannot call into
  // a stopped (or destroyed) server.
  if (ingestor_ != nullptr) ingestor_->SetEpochCallback(nullptr);
  // Drain the rebuild worker last: every epoch queued above is applied
  // before Stop() returns.
  {
    std::lock_guard<std::mutex> lock(bg.rebuild_mutex);
    bg.rebuild_stop = true;
  }
  bg.rebuild_cv.notify_all();
  if (bg.rebuild_thread.joinable()) bg.rebuild_thread.join();
  if (!options_.socket_path.empty()) {
    unlink(options_.socket_path.c_str());
  }
}

}  // namespace infoflow::serve
