#include "serve/protocol.h"

#include <atomic>
#include <cmath>
#include <limits>
#include <utility>

namespace infoflow::serve {
namespace {

/// Reads a node id from a JSON number (must be a non-negative integer).
Result<NodeId> ParseNodeId(const JsonValue& value, const char* field) {
  if (!value.is_number()) {
    return Status::InvalidArgument("'", field, "' must be a number");
  }
  if (const auto id = JsonToInteger<NodeId>(value)) return *id;
  const double number = value.AsNumber();
  if (number > 0 && number == std::floor(number)) {
    return Status::InvalidArgument("'", field, "' must be at most ",
                                   std::numeric_limits<NodeId>::max(),
                                   ", got ", number);
  }
  return Status::InvalidArgument("'", field,
                                 "' must be a non-negative integer, got ",
                                 number);
}

/// Reads an optional `query_id` member into `query_id` / `provided`.
Status ParseQueryId(const JsonValue& json, std::uint64_t& query_id,
                    bool& provided) {
  const JsonValue* field = json.Find("query_id");
  if (field == nullptr) return Status::OK();
  const auto parsed = JsonToInteger<std::uint64_t>(*field);
  if (!parsed) {
    return Status::InvalidArgument(
        "'query_id' must be a non-negative 64-bit integer");
  }
  query_id = *parsed;
  provided = true;
  return Status::OK();
}

/// Reads `field` (singular, a number) or `fields` (plural, an array) into a
/// node list; absent → empty.
Result<std::vector<NodeId>> ParseNodeList(const JsonValue& json,
                                          const char* singular,
                                          const char* plural) {
  std::vector<NodeId> nodes;
  if (const JsonValue* one = json.Find(singular)) {
    auto id = ParseNodeId(*one, singular);
    if (!id.ok()) return id.status();
    nodes.push_back(*id);
  }
  if (const JsonValue* many = json.Find(plural)) {
    if (!many->is_array()) {
      return Status::InvalidArgument("'", plural, "' must be an array");
    }
    for (const JsonValue& entry : many->AsArray()) {
      auto id = ParseNodeId(entry, plural);
      if (!id.ok()) return id.status();
      nodes.push_back(*id);
    }
  }
  return nodes;
}

/// Reads a condition-grammar string field ("0>3 4!>7"); absent → empty.
Result<FlowConditions> ParseConditionsField(const JsonValue& json,
                                            const char* field) {
  const JsonValue* value = json.Find(field);
  if (value == nullptr) return FlowConditions{};
  if (!value->is_string()) {
    return Status::InvalidArgument("'", field,
                                   "' must be a condition string like "
                                   "\"0>3 4!>7\"");
  }
  return ParseFlowConditions(value->AsString());
}

/// Streams one JSON object into a string. Callers add members in ascending
/// key order, the order a JsonValue::Object (a std::map) dumps in, so the
/// bytes equal those of a JsonValue tree holding the same members.
class ObjectWriter {
 public:
  explicit ObjectWriter(std::string& out) : out_(out) { out_.push_back('{'); }

  /// Writes `"key":` and returns the buffer for the value.
  std::string& Key(std::string_view key) {
    if (!first_) out_.push_back(',');
    first_ = false;
    AppendJsonString(out_, key);
    out_.push_back(':');
    return out_;
  }
  void Number(std::string_view key, double value) {
    AppendJsonNumber(Key(key), value);
  }
  void String(std::string_view key, std::string_view value) {
    AppendJsonString(Key(key), value);
  }
  void Bool(std::string_view key, bool value) {
    Key(key) += value ? "true" : "false";
  }
  void Close() { out_.push_back('}'); }

 private:
  std::string& out_;
  bool first_ = true;
};

/// "error":{"code":...,"message":...}
void WriteError(ObjectWriter& response, const Status& status) {
  ObjectWriter error(response.Key("error"));
  error.String("code", StatusCodeName(status.code()));
  error.String("message", status.message());
  error.Close();
}

/// "query_id", echoed only when the client itself put it on the wire: a
/// server-minted one is observability plumbing (trace spans, slow-query
/// log), and echoing it would break the byte-identical guarantee between
/// otherwise-identical runs whose mint counters differ.
void WriteQueryId(ObjectWriter& response, bool provided,
                  std::uint64_t query_id) {
  if (provided && query_id != 0) {
    response.Number("query_id", static_cast<double>(query_id));
  }
}

/// The failure line shared by queries and top-k requests:
/// {"error":{...},"id":...,"ok":false[,"query_id":...]}.
void AppendRequestError(std::string& out, const std::string& id,
                        bool query_id_provided, std::uint64_t query_id,
                        const Status& status) {
  ObjectWriter response(out);
  WriteError(response, status);
  response.String("id", id);
  response.Bool("ok", false);
  WriteQueryId(response, query_id_provided, query_id);
  response.Close();
}

}  // namespace

bool IsIngestRequest(const JsonValue& json) {
  return json.is_object() && json.Find("ingest") != nullptr;
}

bool IsAdminRequest(const JsonValue& json) {
  return json.is_object() &&
         (json.Find("stats") != nullptr || json.Find("health") != nullptr ||
          json.Find("trace") != nullptr);
}

Result<AdminRequest> ParseAdminRequest(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  AdminRequest request;
  if (const JsonValue* id = json.Find("id")) {
    if (!id->is_string()) {
      return Status::InvalidArgument("'id' must be a string");
    }
    request.id = id->AsString();
  }
  const JsonValue* stats = json.Find("stats");
  const JsonValue* health = json.Find("health");
  const JsonValue* trace = json.Find("trace");
  const int verbs = (stats != nullptr) + (health != nullptr) +
                    (trace != nullptr);
  if (verbs != 1) {
    return Status::InvalidArgument(
        "admin request must carry exactly one of 'stats' | 'health' | "
        "'trace'");
  }
  if (stats != nullptr) {
    request.verb = AdminRequest::Verb::kStats;
    return request;
  }
  if (health != nullptr) {
    request.verb = AdminRequest::Verb::kHealth;
    return request;
  }
  if (!trace->is_object()) {
    return Status::InvalidArgument(
        "'trace' must be an object like {\"enable\":true} or "
        "{\"export\":true}");
  }
  const JsonValue* enable = trace->Find("enable");
  const JsonValue* export_flag = trace->Find("export");
  if ((enable != nullptr) == (export_flag != nullptr)) {
    return Status::InvalidArgument(
        "'trace' takes exactly one of 'enable' (bool) or 'export' (true)");
  }
  if (export_flag != nullptr) {
    if (!export_flag->is_bool() || !export_flag->AsBool()) {
      return Status::InvalidArgument("'trace.export' must be true");
    }
    request.verb = AdminRequest::Verb::kTraceExport;
    return request;
  }
  if (!enable->is_bool()) {
    return Status::InvalidArgument("'trace.enable' must be a boolean");
  }
  request.verb = enable->AsBool() ? AdminRequest::Verb::kTraceEnable
                                  : AdminRequest::Verb::kTraceDisable;
  if (const JsonValue* capacity = trace->Find("events_per_thread")) {
    const auto parsed = JsonToInteger<std::size_t>(*capacity, 1);
    if (!parsed) {
      return Status::InvalidArgument(
          "'trace.events_per_thread' must be a positive integer");
    }
    request.trace_capacity = *parsed;
  }
  return request;
}

bool IsTopkRequest(const JsonValue& json) {
  return json.is_object() && json.Find("topk") != nullptr;
}

Result<TopkRequest> ParseTopkRequest(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  TopkRequest request;
  if (const JsonValue* id = json.Find("id")) {
    if (!id->is_string()) {
      return Status::InvalidArgument("'id' must be a string");
    }
    request.id = id->AsString();
  }
  IF_RETURN_NOT_OK(
      ParseQueryId(json, request.query_id, request.query_id_provided));
  const JsonValue* k = json.Find("topk");
  const auto parsed_k =
      k == nullptr ? std::nullopt : JsonToInteger<std::size_t>(*k, 1);
  if (!parsed_k) {
    return Status::InvalidArgument(
        "'topk' must be a positive integer (the seed-set size)");
  }
  request.k = *parsed_k;
  auto candidates = ParseNodeList(json, "candidate", "candidates");
  if (!candidates.ok()) return candidates.status();
  request.candidates = std::move(*candidates);
  if (const JsonValue* community = json.Find("community")) {
    if (!community->is_array()) {
      return Status::InvalidArgument("'community' must be an array");
    }
    for (const JsonValue& entry : community->AsArray()) {
      auto id = ParseNodeId(entry, "community");
      if (!id.ok()) return id.status();
      request.community.push_back(*id);
    }
  }
  auto given = ParseConditionsField(json, "given");
  if (!given.ok()) return given.status();
  request.given = std::move(*given);
  return request;
}

void SerializeTopkResult(const TopkRequest& request,
                         const seedmax::SeedMaxResult& result,
                         std::string& out) {
  ObjectWriter response(out);
  response.Number("effective_rows", static_cast<double>(result.effective_rows));
  response.Number("evaluations", static_cast<double>(result.evaluations));
  response.Number("generation", static_cast<double>(result.generation));
  response.String("id", request.id);
  response.String("kind", "topk");
  response.Number("mcse", result.mcse);
  response.Number("model_epoch", static_cast<double>(result.model_epoch));
  response.Bool("ok", true);
  response.Number("prune_hits", static_cast<double>(result.prune_hits));
  WriteQueryId(response, request.query_id_provided, request.query_id);
  std::string& seeds = response.Key("seeds");
  seeds.push_back('[');
  for (std::size_t i = 0; i < result.picks.size(); ++i) {
    const seedmax::SeedPick& pick = result.picks[i];
    if (i > 0) seeds.push_back(',');
    ObjectWriter entry(seeds);
    entry.Number("marginal_coverage",
                 static_cast<double>(pick.marginal_coverage));
    entry.Number("mcse", pick.mcse);
    entry.Number("node", static_cast<double>(pick.node));
    entry.Number("spread", pick.spread);
    entry.Close();
  }
  seeds.push_back(']');
  response.Number("sketches", static_cast<double>(result.num_sketches));
  response.Number("spread", result.spread);
  response.Number("total_rows", static_cast<double>(result.total_rows));
  response.Number("universe", static_cast<double>(result.universe));
  response.Close();
}

void SerializeTopkError(const TopkRequest& request, const Status& status,
                        std::string& out) {
  AppendRequestError(out, request.id, request.query_id_provided,
                     request.query_id, status);
}

std::uint64_t MintQueryId() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

Result<IngestRequest> ParseIngestRequest(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  IngestRequest request;
  if (const JsonValue* id = json.Find("id")) {
    if (!id->is_string()) {
      return Status::InvalidArgument("'id' must be a string");
    }
    request.id = id->AsString();
  }
  const JsonValue* record = json.Find("ingest");
  if (record == nullptr || !record->is_string()) {
    return Status::InvalidArgument(
        "'ingest' must be an evidence record string");
  }
  request.record = record->AsString();
  return request;
}

void SerializeIngestAck(const IngestRequest& request,
                        std::uint64_t absorbed_total, std::uint64_t epoch,
                        std::string& out) {
  ObjectWriter response(out);
  response.Number("absorbed_total", static_cast<double>(absorbed_total));
  response.Number("epoch", static_cast<double>(epoch));
  response.String("id", request.id);
  response.Bool("ingested", true);
  response.Bool("ok", true);
  response.Close();
}

void SerializeIngestError(const IngestRequest& request, const Status& status,
                          std::string& out) {
  ObjectWriter response(out);
  WriteError(response, status);
  response.String("id", request.id);
  response.Bool("ingested", false);
  response.Bool("ok", false);
  response.Close();
}

Result<QueryRequest> ParseRequest(const JsonValue& json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  QueryRequest request;
  if (const JsonValue* id = json.Find("id")) {
    if (!id->is_string()) {
      return Status::InvalidArgument("'id' must be a string");
    }
    request.id = id->AsString();
  }

  // A client may stamp its own query id, so its spans carry an id it knows.
  IF_RETURN_NOT_OK(
      ParseQueryId(json, request.query_id, request.query_id_provided));

  auto sources = ParseNodeList(json, "source", "sources");
  if (!sources.ok()) return sources.status();
  request.sources = std::move(*sources);
  auto sinks = ParseNodeList(json, "sink", "sinks");
  if (!sinks.ok()) return sinks.status();
  request.sinks = std::move(*sinks);

  auto flows = ParseConditionsField(json, "flows");
  if (!flows.ok()) return flows.status();
  request.flows = std::move(*flows);
  auto given = ParseConditionsField(json, "given");
  if (!given.ok()) return given.status();
  request.given = std::move(*given);

  if (const JsonValue* timeout = json.Find("timeout_ms")) {
    if (!timeout->is_number() || timeout->AsNumber() < 0) {
      return Status::InvalidArgument("'timeout_ms' must be a number >= 0");
    }
    request.timeout_ms = timeout->AsNumber();
  }

  // Backend: absent → the engine default (the daemon's --backend flag).
  if (const JsonValue* backend = json.Find("backend")) {
    if (!backend->is_string()) {
      return Status::InvalidArgument(
          "'backend' must be a string (auto | analytic | bank)");
    }
    auto parsed = ParseQueryBackend(backend->AsString());
    if (!parsed.ok()) return parsed.status();
    request.backend = *parsed;
  }

  // Kind: explicit when present, inferred from the fields otherwise.
  if (const JsonValue* kind = json.Find("kind")) {
    if (!kind->is_string()) {
      return Status::InvalidArgument("'kind' must be a string");
    }
    const std::string& name = kind->AsString();
    if (name == "flow") {
      request.kind = QueryKind::kFlow;
    } else if (name == "community") {
      request.kind = QueryKind::kCommunity;
    } else if (name == "joint") {
      request.kind = QueryKind::kJoint;
    } else {
      return Status::InvalidArgument(
          "unknown kind '", name, "' (expected flow | community | joint)");
    }
  } else if (!request.flows.empty()) {
    request.kind = QueryKind::kJoint;
  } else if (request.sinks.size() > 1) {
    request.kind = QueryKind::kCommunity;
  } else {
    request.kind = QueryKind::kFlow;
  }

  if (request.kind == QueryKind::kJoint &&
      (!request.sources.empty() || !request.sinks.empty())) {
    return Status::InvalidArgument(
        "joint queries take 'flows', not sources/sinks");
  }
  if (request.kind != QueryKind::kJoint && !request.flows.empty()) {
    return Status::InvalidArgument("'flows' is only valid with kind=joint");
  }
  return request;
}

Result<QueryRequest> ParseRequestLine(std::string_view line) {
  auto json = ParseJson(line);
  if (!json.ok()) return json.status();
  return ParseRequest(*json);
}

void SerializeResult(const QueryRequest& request, const QueryResult& result,
                     std::string& out) {
  if (!result.status.ok()) {
    AppendRequestError(out, request.id, request.query_id_provided,
                       request.query_id, result.status);
    return;
  }
  ObjectWriter response(out);
  // Which estimator actually answered (never "auto"): "bank" for the
  // classic Eq. 5 replay, "analytic" for the sampling-free path.
  response.String("backend", QueryBackendName(result.backend));
  response.Number("effective_rows", static_cast<double>(result.effective_rows));
  std::string& estimates = response.Key("estimates");
  estimates.push_back('[');
  for (std::size_t i = 0; i < result.estimates.size(); ++i) {
    const SinkEstimate& est = result.estimates[i];
    if (i > 0) estimates.push_back(',');
    ObjectWriter entry(estimates);
    entry.Number("ess", est.diagnostics.ess);
    entry.Number("mcse", est.diagnostics.mcse);
    entry.Number("rhat", est.diagnostics.rhat);
    entry.Number("sink", static_cast<double>(est.sink));
    entry.Number("value", est.value);
    entry.Close();
  }
  estimates.push_back(']');
  response.Bool("frontier_shared", result.frontier_shared);
  response.Number("generation", static_cast<double>(result.generation));
  response.String("id", request.id);
  response.String("kind", QueryKindName(request.kind));
  response.Number("model_epoch", static_cast<double>(result.model_epoch));
  response.Bool("ok", true);
  WriteQueryId(response, request.query_id_provided, request.query_id);
  response.Number("total_rows", static_cast<double>(result.total_rows));
  response.Close();
}

JsonValue RequestId(const JsonValue& json) {
  const JsonValue* id = json.Find("id");
  return id != nullptr && id->is_string() ? *id : JsonValue();
}

void SerializeParseError(const Status& status, const JsonValue& id,
                         std::string& out) {
  ObjectWriter response(out);
  WriteError(response, status);
  id.DumpTo(response.Key("id"));
  response.Bool("ok", false);
  response.Close();
}

std::string SerializeResult(const QueryRequest& request,
                            const QueryResult& result) {
  std::string out;
  SerializeResult(request, result, out);
  return out;
}

std::string SerializeParseError(const Status& status, const JsonValue& id) {
  std::string out;
  SerializeParseError(status, id, out);
  return out;
}

std::string SerializeIngestAck(const IngestRequest& request,
                               std::uint64_t absorbed_total,
                               std::uint64_t epoch) {
  std::string out;
  SerializeIngestAck(request, absorbed_total, epoch, out);
  return out;
}

std::string SerializeIngestError(const IngestRequest& request,
                                 const Status& status) {
  std::string out;
  SerializeIngestError(request, status, out);
  return out;
}

std::string SerializeTopkResult(const TopkRequest& request,
                                const seedmax::SeedMaxResult& result) {
  std::string out;
  SerializeTopkResult(request, result, out);
  return out;
}

std::string SerializeTopkError(const TopkRequest& request,
                               const Status& status) {
  std::string out;
  SerializeTopkError(request, status, out);
  return out;
}

}  // namespace infoflow::serve
