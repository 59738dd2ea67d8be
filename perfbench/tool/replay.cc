// In-process side of the daemon benchmark. Links the infoflow library and
// pushes request lines through the same public calls `infoflow serve`
// makes: ParseJson/Parse*Request -> SampleBank::Acquire ->
// QueryEngine::AnswerBatch -> SerializeResult, plus the top-k
// (RrIndex/RrSketchSet::Build, SelectSeeds) and ingest
// (StreamIngestor::IngestLine, SampleBank::Rebuild) calls.
//
//   perfbench_replay reference --model M --pool P --out ref.ndjson
//                              [--backend bank|auto]
//   perfbench_replay trace --model M --pool P [--ingest-pool E]
//                          [--backend bank|auto] [--epoch-every N]
//                          [--limit L] --spans spans.json
//
// `reference` builds the bank exactly as the daemon does (same model, seed
// and chain options) and writes one response line per pool line: the
// answers the daemon must reproduce bit for bit.
//
// `trace` replays the pool (its first L lines; with --ingest-pool every
// fourth line is an ingest line) twice untraced and twice traced,
// alternating, each pass on freshly built state. Traced passes record a
// span around every call (kept in memory, written to --spans at exit) and
// arm the library's own span rings so each AnswerBatch can be split into
// its kernel (scan-group / given-mask) and analytic children by query id.
// A separate pass times StripWorkspace::Run per distinct frontier over the
// generation's strip plane. The last stdout line is a JSON object of
// per-layer figures.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/serialization.h"
#include "graph/strip_reachability.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "seedmax/rr_index.h"
#include "seedmax/seed_selector.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/sample_bank.h"
#include "stream/ingestor.h"
#include "util/json.h"

namespace {

using namespace infoflow;
using Clock = std::chrono::steady_clock;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_replay: %s\n", message.c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> result, const char* what) {
  if (!result.ok()) Die(std::string(what) + ": " + result.status().ToString());
  return std::move(*result);
}

// ------------------------------------------------------------------ spans

/// One recorded call: [begin, end) in ns from the pass start, under the
/// request it served (0 = pass set-up).
struct Span {
  const char* name;
  std::uint64_t request;
  std::int64_t begin_ns;
  std::int64_t end_ns;
};

/// Spans of one pass, kept in memory; recording is a no-op when disabled.
class SpanLog {
 public:
  void Start(bool enabled) {
    enabled_ = enabled;
    origin_ = Clock::now();
    spans_.clear();
    spans_.reserve(1 << 16);
  }
  bool enabled() const { return enabled_; }
  std::int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  void Add(const char* name, std::uint64_t request, std::int64_t begin) {
    spans_.push_back({name, request, begin, Now()});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

class Scoped {
 public:
  Scoped(SpanLog& log, const char* name, std::uint64_t request)
      : log_(log), name_(name), request_(request),
        begin_(log.enabled() ? log.Now() : 0) {}
  ~Scoped() {
    if (log_.enabled()) log_.Add(name_, request_, begin_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog& log_;
  const char* name_;
  std::uint64_t request_;
  std::int64_t begin_;
};

// ---------------------------------------------------------------- options

/// The daemon's default --seed: the bank it draws, and so every answer the
/// reference must reproduce, follows from it.
constexpr std::uint64_t kDaemonSeed = 1;
/// Untraced and traced passes of `trace` each.
constexpr int kPasses = 2;

struct Config {
  std::string mode;
  std::string model_path;
  std::string pool_path;
  std::string ingest_pool_path;
  std::string out_path;
  std::string spans_path;
  serve::QueryBackend backend = serve::QueryBackend::kBank;
  std::size_t epoch_every = 64;
  std::size_t limit = 0;
  /// Engine and sketch-pool workers: 0 = hardware concurrency (the
  /// daemon's default); the traced replay uses 1 so layer times add up.
  std::size_t threads = 0;
};

Config ParseConfig(int argc, char** argv) {
  if (argc < 2) Die("usage: perfbench_replay reference|trace --flags");
  Config config;
  config.mode = argv[1];
  std::map<std::string, std::string> flags;
  if ((argc - 2) % 2 != 0) Die("flags come in --name value pairs");
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) Die("unexpected argument " + key);
    flags[key.substr(2)] = argv[i + 1];
  }
  const auto get = [&](const std::string& key, const std::string& fallback) {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  };
  config.model_path = get("model", "");
  config.pool_path = get("pool", "");
  config.ingest_pool_path = get("ingest-pool", "");
  config.out_path = get("out", "");
  config.spans_path = get("spans", "");
  config.backend = Must(serve::ParseQueryBackend(get("backend", "bank")),
                        "--backend");
  config.epoch_every = std::strtoull(get("epoch-every", "64").c_str(), nullptr, 10);
  config.limit = std::strtoull(get("limit", "0").c_str(), nullptr, 10);
  if (config.model_path.empty()) Die("--model is required");
  if (config.pool_path.empty()) Die("--pool is required");
  if (config.mode == "reference") {
    if (config.out_path.empty()) Die("reference needs --out");
  } else if (config.mode == "trace") {
    if (config.spans_path.empty()) Die("trace needs --spans");
    config.threads = 1;
  } else {
    Die("unknown mode " + config.mode);
  }
  return config;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  if (lines.empty()) Die(path + " holds no lines");
  return lines;
}

// ---------------------------------------------------------------- service

/// The daemon's serving state for one pass, built with the daemon's
/// defaults (tools/infoflow_cli.cc, CmdServe).
struct Service {
  std::optional<serve::SampleBank> bank;
  std::optional<serve::QueryEngine> engine;
  std::unique_ptr<seedmax::RrIndex> rr;
  std::shared_ptr<stream::StreamIngestor> ingestor;
  std::mutex pending_mutex;
  std::shared_ptr<const stream::ModelEpoch> pending;
  std::uint64_t fill_transitions = 0;
};

std::uint64_t ChainTransitions() {
  return obs::GetCounter("mh.steps.burnin").Value() +
         obs::GetCounter("mh.steps.retained").Value();
}

void BuildService(const Config& config, const PointIcm& model, bool ingest,
                  SpanLog& log, Service& service) {
  const std::size_t num_edges = model.graph().num_edges();
  serve::BankOptions bank_options;
  bank_options.num_states = 4096;
  bank_options.chain.num_chains = 4;
  bank_options.chain.num_threads = 0;
  bank_options.chain.mh.burn_in = 4 * num_edges;
  bank_options.chain.mh.thinning = std::max<std::size_t>(8, num_edges / 8);
  {
    const std::uint64_t before = ChainTransitions();
    Scoped span(log, "sample_bank.fill", 0);
    service.bank.emplace(
        Must(serve::SampleBank::Create(model, bank_options, kDaemonSeed),
             "SampleBank::Create"));
    service.fill_transitions = ChainTransitions() - before;
  }
  serve::QueryEngineOptions engine_options;
  engine_options.min_conditional_rows = 32;
  engine_options.num_threads = config.threads;
  engine_options.lanes = LaneWidth::kAuto;
  engine_options.default_backend = config.backend;
  const auto graph = service.bank->graph_ptr();
  service.engine.emplace(
      Must(serve::QueryEngine::Create(graph, engine_options), "QueryEngine"));
  const unsigned width = ResolveStripWords(
      LaneWidth::kAuto, service.bank->rows_per_generation(),
      graph->num_nodes(), graph->num_edges());
  if (width > 1) {
    // The first batch pays this interleave lazily in the daemon.
    Scoped span(log, "sample_bank.strip_plane", 0);
    (void)service.bank->Acquire()->AcquireStripPlane(width);
  }
  service.rr = std::make_unique<seedmax::RrIndex>(graph, config.threads);
  if (ingest) {
    stream::IngestorOptions ingest_options;
    ingest_options.epoch_every = config.epoch_every;
    ingest_options.seed = kDaemonSeed;
    service.ingestor = std::make_shared<stream::StreamIngestor>(
        graph, model, ingest_options);
    Service* target = &service;
    service.ingestor->SetEpochCallback(
        [target](std::shared_ptr<const stream::ModelEpoch> epoch) {
          // The daemon's default --drift-threshold 0: any drift rebuilds.
          if (epoch->drift <= 0.0) return;
          std::lock_guard<std::mutex> lock(target->pending_mutex);
          target->pending = std::move(epoch);
        });
  }
}

/// What one handled line did, for the per-layer tallies.
struct Outcome {
  std::string response;
  bool query = false;
  bool analytic = false;
  bool analytic_refused = false;
  std::vector<std::vector<NodeId>> frontiers;
  bool topk = false;
  std::size_t evaluations = 0;
  std::size_t prune_hits = 0;
  std::size_t picks = 0;
};

std::vector<NodeId> SortedUnique(std::vector<NodeId> nodes) {
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

/// Serves one line the way serve/server.cc's ServeFd does for a one-line
/// batch, with a span around each public call.
Outcome Handle(const Config& config, Service& service, const std::string& line,
               std::uint64_t request_id, SpanLog& log) {
  Outcome outcome;
  Scoped root(log, "request", request_id);
  std::optional<JsonValue> json;
  {
    Scoped span(log, "protocol.parse", request_id);
    auto parsed = ParseJson(line);
    if (parsed.ok()) json.emplace(std::move(*parsed));
  }
  if (!json.has_value()) Die("pool line is not JSON: " + line);

  if (serve::IsTopkRequest(*json)) {
    outcome.topk = true;
    std::optional<serve::TopkRequest> request;
    {
      Scoped span(log, "protocol.parse", request_id);
      request.emplace(Must(serve::ParseTopkRequest(*json), "ParseTopkRequest"));
      request->query_id = request_id;
    }
    std::shared_ptr<const serve::BankGeneration> generation;
    {
      Scoped span(log, "sample_bank.acquire", request_id);
      generation = service.bank->Acquire();
    }
    std::shared_ptr<const seedmax::RrSketchSet> sketches;
    Status status;
    {
      Scoped span(log, "seedmax.build", request_id);
      if (request->community.empty() && request->given.empty()) {
        auto acquired = service.rr->Acquire(generation);
        if (acquired.ok()) sketches = std::move(*acquired);
        status = acquired.status();
      } else {
        seedmax::RrBuildOptions build;
        build.targets = request->community;
        build.given = request->given;
        build.min_conditional_rows = 32;
        build.pool = &service.rr->pool();
        auto built = seedmax::RrSketchSet::Build(service.rr->view(),
                                                 *generation, build);
        if (built.ok()) {
          sketches = std::make_shared<const seedmax::RrSketchSet>(
              std::move(*built));
        }
        status = built.status();
      }
    }
    std::optional<Result<seedmax::SeedMaxResult>> selected;
    if (status.ok()) {
      Scoped span(log, "seedmax.select", request_id);
      seedmax::SeedMaxOptions options;
      options.num_seeds = request->k;
      options.candidates = request->candidates;
      selected.emplace(seedmax::SelectSeeds(*sketches, options));
    }
    Scoped span(log, "protocol.serialize", request_id);
    if (selected.has_value() && selected->ok()) {
      const seedmax::SeedMaxResult& result = **selected;
      outcome.evaluations = result.evaluations;
      outcome.prune_hits = result.prune_hits;
      outcome.picks = result.picks.size();
      outcome.response = serve::SerializeTopkResult(*request, result);
    } else {
      outcome.response = serve::SerializeTopkError(
          *request, selected.has_value() ? selected->status() : status);
    }
    return outcome;
  }

  if (serve::IsIngestRequest(*json)) {
    if (service.ingestor == nullptr) Die("ingest line without --ingest-pool");
    std::optional<serve::IngestRequest> request;
    {
      Scoped span(log, "protocol.parse", request_id);
      request.emplace(Must(serve::ParseIngestRequest(*json), "ParseIngestRequest"));
    }
    std::optional<Result<stream::IngestAck>> ack;
    {
      Scoped span(log, "stream.ingest", request_id);
      ack.emplace(service.ingestor->IngestLine(request->record));
    }
    {
      Scoped span(log, "protocol.serialize", request_id);
      outcome.response =
          (*ack).ok() ? serve::SerializeIngestAck(*request, (*ack)->absorbed_total,
                                                  (*ack)->epoch)
                      : serve::SerializeIngestError(*request, (*ack).status());
    }
    std::shared_ptr<const stream::ModelEpoch> epoch;
    {
      std::lock_guard<std::mutex> lock(service.pending_mutex);
      epoch = std::move(service.pending);
      service.pending = nullptr;
    }
    if (epoch != nullptr) {
      // The daemon applies this on its rebuild thread; here it runs inline
      // so its cost is attributed to the line that triggered it.
      Scoped span(log, "sample_bank.rebuild", request_id);
      if (service.bank->Rebuild(epoch->model, epoch->id).ok()) {
        service.rr->Prime(service.bank->Acquire());
      }
    }
    return outcome;
  }

  outcome.query = true;
  std::vector<serve::QueryRequest> requests;
  {
    Scoped span(log, "protocol.parse", request_id);
    requests.push_back(Must(serve::ParseRequest(*json), "ParseRequest"));
    requests.back().query_id = request_id;
  }
  std::shared_ptr<const serve::BankGeneration> generation;
  {
    Scoped span(log, "sample_bank.acquire", request_id);
    generation = service.bank->Acquire();
  }
  std::vector<serve::QueryResult> results;
  {
    Scoped span(log, "query_plan.answer_batch", request_id);
    results = service.engine->AnswerBatch(*generation, requests);
  }
  {
    Scoped span(log, "protocol.serialize", request_id);
    outcome.response = serve::SerializeResult(requests[0], results[0]);
  }
  const serve::QueryRequest& request = requests[0];
  const serve::QueryResult& result = results[0];
  outcome.analytic = result.backend == serve::QueryBackend::kAnalytic;
  const serve::QueryBackend asked = request.backend.value_or(config.backend);
  outcome.analytic_refused = asked == serve::QueryBackend::kAuto &&
                             request.kind != serve::QueryKind::kJoint &&
                             request.given.empty() && !outcome.analytic;
  if (!outcome.analytic && result.status.ok()) {
    // Every BFS the plan runs: the query's source frontier plus one per
    // condition / joint flow source.
    if (request.kind != serve::QueryKind::kJoint) {
      outcome.frontiers.push_back(SortedUnique(request.sources));
    }
    for (const FlowConditions* set : {&request.given, &request.flows}) {
      for (const FlowConstraint& c : *set) outcome.frontiers.push_back({c.source});
    }
  }
  return outcome;
}

// ---------------------------------------------------------------- reference

int RunReference(const Config& config, const PointIcm& model) {
  const std::vector<std::string> pool = ReadLines(config.pool_path);
  SpanLog log;
  log.Start(false);
  Service service;
  BuildService(config, model, false, log, service);
  std::map<std::string, std::string> answered;
  std::ofstream out(config.out_path, std::ios::trunc);
  if (!out) Die("cannot write " + config.out_path);
  std::uint64_t request_id = 0;
  for (const std::string& line : pool) {
    auto it = answered.find(line);
    if (it == answered.end()) {
      it = answered
               .emplace(line, Handle(config, service, line, ++request_id, log)
                                  .response)
               .first;
    }
    out << it->second << '\n';
  }
  out.close();
  if (!out) Die("short write to " + config.out_path);
  std::printf("{\"lines\":%zu,\"distinct\":%zu}\n", pool.size(),
              answered.size());
  return 0;
}

// -------------------------------------------------------------------- trace

/// Per-layer sums over the traced passes.
struct Tally {
  std::map<std::string, std::int64_t> ns;
  std::map<std::string, std::uint64_t> count;
  void Add(const std::string& name, std::int64_t ns_value, std::uint64_t n = 1) {
    ns[name] += ns_value;
    count[name] += n;
  }
  double MeanNs(const std::string& name) const {
    const auto it = count.find(name);
    if (it == count.end() || it->second == 0) return 0.0;
    return static_cast<double>(ns.at(name)) / static_cast<double>(it->second);
  }
  std::int64_t Total(const std::string& name) const {
    const auto it = ns.find(name);
    return it == ns.end() ? 0 : it->second;
  }
};

/// Library span time per query id, from the obs rings' export: the kernel
/// (scan groups and conditioning masks) and the analytic estimator.
struct Children {
  std::map<std::uint64_t, std::int64_t> kernel_ns;
  std::map<std::uint64_t, std::int64_t> analytic_ns;
};

Children LibraryChildren() {
  Children children;
  const JsonValue trace =
      Must(ParseJson(obs::Tracing::ExportChromeJson()), "trace export");
  const JsonValue* events = trace.Find("traceEvents");
  if (events == nullptr || !events->is_array()) return children;
  for (const JsonValue& event : events->AsArray()) {
    const JsonValue* name = event.Find("name");
    const JsonValue* dur = event.Find("dur");
    const JsonValue* args = event.Find("args");
    if (name == nullptr || dur == nullptr || args == nullptr) continue;
    const JsonValue* qid = args->Find("query_id");
    if (qid == nullptr) continue;
    const auto id = static_cast<std::uint64_t>(qid->AsNumber());
    const auto ns = static_cast<std::int64_t>(dur->AsNumber() * 1000.0);
    const std::string& n = name->AsString();
    if (n == "serve/plan/scan_group" || n == "serve/plan/given_mask") {
      children.kernel_ns[id] += ns;
    } else if (n == "serve/analytic") {
      children.analytic_ns[id] += ns;
    }
  }
  return children;
}

/// ns per row of StripWorkspace::Run over every strip of the generation,
/// once per distinct frontier (0 when there is none).
double ReplayNsPerRow(const serve::SampleBank& bank,
                      const std::set<std::vector<NodeId>>& frontiers) {
  if (frontiers.empty()) return 0.0;
  const auto generation = bank.Acquire();
  const DirectedGraph& graph = *bank.graph_ptr();
  const unsigned w = ResolveStripWords(LaneWidth::kAuto, generation->num_rows(),
                                       graph.num_nodes(), graph.num_edges());
  std::shared_ptr<const StripPlane> plane;
  if (w > 1) plane = generation->AcquireStripPlane(w);
  const std::size_t strips =
      w > 1 ? plane->num_strips : generation->num_blocks();
  auto workspace = StripWorkspace::Create(w, graph);
  const auto begin = Clock::now();
  for (const std::vector<NodeId>& sources : frontiers) {
    for (std::size_t s = 0; s < strips; ++s) {
      if (w > 1) {
        workspace->Run(graph, sources, plane->StripWords(s),
                       plane->StripLaneMask(s));
      } else {
        const std::uint64_t mask = generation->BlockLaneMask(s);
        workspace->Run(graph, sources, generation->BlockEdgeWords(s), &mask);
      }
    }
  }
  const double ns = std::chrono::duration<double, std::nano>(Clock::now() - begin).count();
  return ns / (static_cast<double>(frontiers.size()) *
               static_cast<double>(generation->num_rows()));
}

std::uint64_t BankBytes(const serve::SampleBank& bank) {
  const auto generation = bank.Acquire();
  const DirectedGraph& graph = *bank.graph_ptr();
  std::uint64_t bytes = 8ULL * (generation->num_rows() * generation->words_per_row() +
                                generation->num_blocks() * generation->num_edges());
  const unsigned w = ResolveStripWords(LaneWidth::kAuto, generation->num_rows(),
                                       graph.num_nodes(), graph.num_edges());
  if (w > 1) bytes += 8ULL * generation->AcquireStripPlane(w)->words.size();
  return bytes;
}

void WriteSpans(const std::string& path,
                const std::vector<std::vector<Span>>& passes) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) Die("cannot write " + path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    for (const Span& span : passes[p]) {
      out << (first ? "" : ",") << "{\"name\":\"" << span.name
          << "\",\"ph\":\"X\",\"pid\":" << p << ",\"tid\":0,\"ts\":"
          << static_cast<double>(span.begin_ns) / 1000.0 << ",\"dur\":"
          << static_cast<double>(span.end_ns - span.begin_ns) / 1000.0
          << ",\"args\":{\"request\":" << span.request << "}}";
      first = false;
    }
  }
  out << "]}\n";
  if (!out) Die("short write to " + path);
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

int RunTrace(const Config& config, const PointIcm& model) {
  const std::vector<std::string> pool = ReadLines(config.pool_path);
  std::vector<std::string> ingest_pool;
  if (!config.ingest_pool_path.empty()) {
    ingest_pool = ReadLines(config.ingest_pool_path);
  }
  const bool ingest = !ingest_pool.empty();
  // The replayed stream: pool order; with ingest, one line in four is the
  // next evidence line, so a short replay still fits and rebuilds several
  // model epochs.
  std::vector<std::string> stream;
  const std::size_t length = config.limit == 0 ? pool.size() : config.limit;
  for (std::size_t k = 0, r = 0, i = 0; k < length; ++k) {
    if (ingest && k % 4 == 0) {
      stream.push_back(ingest_pool[i++ % ingest_pool.size()]);
    } else {
      stream.push_back(pool[r++ % pool.size()]);
    }
  }
  Tally tally;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<double> accounted_s;
  std::vector<std::vector<Span>> kept;
  std::set<std::vector<NodeId>> frontiers;
  std::uint64_t queries = 0, analytic = 0, refused = 0;
  std::uint64_t topk = 0, evaluations = 0, prune_hits = 0, picks = 0;
  std::uint64_t response_bytes = 0, responses = 0;
  std::uint64_t fill_transitions = 0;
  std::optional<Service> last;
  for (int p = 0; p < 2 * kPasses; ++p) {
    const bool traced = p % 2 == 1;
    SpanLog log;
    log.Start(traced);
    if (traced) {
      obs::Tracing::Clear();
      obs::Tracing::Enable(std::size_t{1} << 18);
    }
    last.reset();
    last.emplace();
    Service& service = *last;
    BuildService(config, model, ingest, log, service);
    const std::uint64_t base = static_cast<std::uint64_t>(p + 1) << 32;
    std::vector<Outcome> outcomes;
    outcomes.reserve(stream.size());
    const auto begin = Clock::now();
    for (std::size_t k = 0; k < stream.size(); ++k) {
      outcomes.push_back(Handle(config, service, stream[k], base + k + 1, log));
    }
    const double wall =
        std::chrono::duration<double>(Clock::now() - begin).count();
    if (!traced) {
      untraced_s.push_back(wall);
      continue;
    }
    obs::Tracing::Disable();
    traced_s.push_back(wall);
    const Children children = LibraryChildren();
    // Self time of each layer: a span minus the child spans inside it. The
    // calls under each "request" root account for the replay's wall time.
    std::int64_t accounted = 0;
    for (const Span& span : log.spans()) {
      const std::int64_t ns = span.end_ns - span.begin_ns;
      const std::string name = span.name;
      if (span.request == 0) {  // pass set-up
        tally.Add(name, ns);
        continue;
      }
      if (name == "request") continue;
      accounted += ns;
      if (name != "query_plan.answer_batch") {
        tally.Add(name, ns);
        continue;
      }
      const auto k = children.kernel_ns.find(span.request);
      const auto a = children.analytic_ns.find(span.request);
      const std::int64_t kernel = k == children.kernel_ns.end() ? 0 : k->second;
      const std::int64_t est = a == children.analytic_ns.end() ? 0 : a->second;
      tally.Add("graph.kernel", kernel);
      tally.Add("analytic.answer", est);
      tally.Add("query_plan.answer_batch_self", ns - kernel - est);
    }
    accounted_s.push_back(1e-9 * static_cast<double>(accounted));
    fill_transitions += service.fill_transitions;
    for (const Outcome& outcome : outcomes) {
      response_bytes += outcome.response.size();
      ++responses;
      if (outcome.query) {
        ++queries;
        analytic += outcome.analytic ? 1 : 0;
        refused += outcome.analytic_refused ? 1 : 0;
        for (const auto& frontier : outcome.frontiers) frontiers.insert(frontier);
      }
      if (outcome.topk) {
        ++topk;
        evaluations += outcome.evaluations;
        prune_hits += outcome.prune_hits;
        picks += outcome.picks;
      }
    }
    kept.push_back(log.spans());
  }

  const double replay_ns_per_row = ReplayNsPerRow(*last->bank, frontiers);
  const double untraced = Median(untraced_s);
  const double traced = Median(traced_s);
  const auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const auto mean_us = [&](const char* name, std::uint64_t n) {
    return per(static_cast<double>(tally.Total(name)) * 1e-3, static_cast<double>(n));
  };
  std::ostringstream out;
  out.precision(9);
  out << "{\"protocol.parse_us\":" << mean_us("protocol.parse", responses)
      << ",\"protocol.serialize_us\":" << mean_us("protocol.serialize", responses)
      << ",\"protocol.response_bytes\":"
      << per(static_cast<double>(response_bytes), static_cast<double>(responses))
      << ",\"query_plan.answer_batch_self_us\":"
      << mean_us("query_plan.answer_batch_self", queries)
      << ",\"graph.kernel_us\":" << mean_us("graph.kernel", queries)
      << ",\"graph.replay_ns_per_row\":" << replay_ns_per_row
      << ",\"sample_bank.fill_s\":" << tally.MeanNs("sample_bank.fill") * 1e-9
      << ",\"sample_bank.strip_plane_ms\":" << tally.MeanNs("sample_bank.strip_plane") * 1e-6
      << ",\"sample_bank.bytes\":" << BankBytes(*last->bank)
      << ",\"sample_bank.rebuild_s\":" << tally.MeanNs("sample_bank.rebuild") * 1e-9
      << ",\"multi_chain.transitions_per_s\":"
      << per(static_cast<double>(fill_transitions),
             static_cast<double>(tally.Total("sample_bank.fill")) * 1e-9)
      << ",\"analytic.answer_us\":" << mean_us("analytic.answer", analytic)
      << ",\"analytic.refused\":" << refused
      << ",\"seedmax.build_ms\":" << tally.MeanNs("seedmax.build") * 1e-6
      << ",\"seedmax.select_ms\":" << tally.MeanNs("seedmax.select") * 1e-6
      << ",\"seedmax.celf_evaluations\":"
      << per(static_cast<double>(evaluations), static_cast<double>(topk))
      << ",\"seedmax.prune_ratio\":"
      << per(static_cast<double>(prune_hits), static_cast<double>(picks))
      << ",\"stream.ingest_us\":" << tally.MeanNs("stream.ingest") * 1e-3
      << ",\"replay.untraced_s\":" << untraced
      << ",\"replay.accounted_s\":" << Median(accounted_s)
      << ",\"obs.trace_overhead\":" << per(traced - untraced, untraced) << "}";
  WriteSpans(config.spans_path, kept);
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Config config = ParseConfig(argc, argv);
  const PointIcm model = Must(LoadPointIcm(config.model_path), "model");
  return config.mode == "reference" ? RunReference(config, model)
                                    : RunTrace(config, model);
}
