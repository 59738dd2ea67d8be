/// \file protocol.h
/// \brief The serve daemon's newline-delimited JSON wire format.
///
/// One request object per line in, one response object per line out,
/// positionally ordered within a batch. Requests:
///
/// \code{.json}
///   {"id":"q1","source":0,"sink":3}
///   {"id":"q2","sources":[0,5],"sinks":[3,7,9],"given":"1>4 2!>6",
///    "timeout_ms":50}
///   {"id":"q3","kind":"joint","flows":"0>3 5>7"}
/// \endcode
///
/// `source`/`sink` accept a single number or the plural array form;
/// `flows` and `given` use the CLI's condition grammar ("u>v" requires
/// u ⤳ v, "u!>v" forbids it — see core/ParseFlowConditions). `kind` is
/// optional: "joint" is inferred from `flows`, "community" from multiple
/// sinks, "flow" otherwise. Responses:
///
/// \code{.json}
///   {"id":"q1","ok":true,"generation":1,"total_rows":4096,
///    "effective_rows":4096,"frontier_shared":false,
///    "estimates":[{"sink":3,"value":0.42,"mcse":0.011,"ess":812.3,
///                  "rhat":1.002}]}
///   {"id":"q4","ok":false,"error":{"code":"failed-precondition",
///    "message":"conditional query q4: only 3 of 4096 bank rows ..."}}
/// \endcode

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "seedmax/seed_selector.h"
#include "serve/query_engine.h"
#include "util/json.h"
#include "util/status.h"

namespace infoflow::serve {

/// \brief One streamed-evidence submission on the serve connection:
/// {"id":"i1","ingest":"0|0 1|0>1"} (the `ingest` value is any line
/// stream/ParseEvidenceLine accepts — a native attributed/trace record or
/// a {"attributed":...}/{"trace":...} envelope re-encoded as a string).
/// Acknowledged with {"id":"i1","ok":true,"ingested":true,
/// "absorbed_total":N,"epoch":E}.
struct IngestRequest {
  /// Caller-assigned id echoed in the acknowledgement.
  std::string id;
  /// The evidence record line to absorb.
  std::string record;
};

/// True when the (already-parsed) request object is an ingest submission
/// (has an "ingest" member) rather than a query.
bool IsIngestRequest(const JsonValue& json);

/// \brief Parses one ingest submission ("ingest" must be a string).
Result<IngestRequest> ParseIngestRequest(const JsonValue& json);

/// \brief One live-introspection verb on the serve connection:
///
/// \code{.json}
///   {"id":"s1","stats":true}
///   {"id":"h1","health":true}
///   {"id":"t1","trace":{"enable":true,"events_per_thread":4096}}
///   {"id":"t2","trace":{"enable":false}}
///   {"id":"t3","trace":{"export":true}}
/// \endcode
///
/// `stats` answers with the metrics snapshot embedded as JSON plus a
/// Prometheus text exposition; `health` with bank generation / model epoch /
/// ingest state and queue depth; `trace` arms, disarms, or exports the span
/// ring buffers of the running daemon.
struct AdminRequest {
  enum class Verb { kStats, kHealth, kTraceEnable, kTraceDisable,
                    kTraceExport };
  /// Caller-assigned id echoed in the response.
  std::string id;
  Verb verb = Verb::kStats;
  /// Ring capacity for kTraceEnable; 0 = keep the default.
  std::size_t trace_capacity = 0;
};

/// True when the (already-parsed) request object is an admin verb (has a
/// "stats", "health", or "trace" member) rather than a query.
bool IsAdminRequest(const JsonValue& json);

/// \brief Parses one admin verb object.
Result<AdminRequest> ParseAdminRequest(const JsonValue& json);

/// \brief One top-k seed-selection request on the serve connection
/// (seedmax/: greedy max-coverage over the bank's reverse-reachable
/// sketches):
///
/// \code{.json}
///   {"id":"m1","topk":3}
///   {"id":"m2","topk":2,"candidates":[0,1,2],"community":[7,8,9],
///    "given":"0>3"}
/// \endcode
///
/// `topk` is the seed-set size k; `candidates` restricts eligible seeds;
/// `community` restricts the spread universe (constrained
/// flow-maximization: seeds maximize expected reach *into* the listed
/// nodes); `given` conditions the underlying pseudo-states (Eq. 7–8,
/// same grammar as query conditioning). Answered with the seed picks,
/// their running unbiased spread estimates and MCSE, and the sketch
/// provenance (generation, sketch count, CELF evaluation/prune counters).
struct TopkRequest {
  /// Caller-assigned id echoed in the response.
  std::string id;
  /// Request-level trace id (minted at the boundary when absent; echoed
  /// only when the client provided one — same discipline as queries).
  std::uint64_t query_id = 0;
  bool query_id_provided = false;
  /// Seed-set size k.
  std::size_t k = 1;
  /// Eligible seeds (empty: every node).
  std::vector<NodeId> candidates;
  /// Spread universe (empty: every node).
  std::vector<NodeId> community;
  /// Eq. 7–8 conditioning of the pseudo-states.
  FlowConditions given;
};

/// True when the (already-parsed) request object is a top-k seed
/// selection (has a "topk" member) rather than a query.
bool IsTopkRequest(const JsonValue& json);

/// \brief Parses one top-k request ("topk" must be a positive integer).
Result<TopkRequest> ParseTopkRequest(const JsonValue& json);

/// \brief Process-wide monotonic query-id mint (first id is 1). The serve
/// boundary stamps every query that arrives without one, so each request's
/// spans — parse, plan, replay, assemble — share an id across threads.
std::uint64_t MintQueryId();

/// \brief Parses one request object (already-parsed JSON). Range checks
/// against the graph happen later, in QueryEngine::AnswerBatch.
Result<QueryRequest> ParseRequest(const JsonValue& json);

/// Convenience: ParseJson + ParseRequest on one protocol line.
Result<QueryRequest> ParseRequestLine(std::string_view line);

/// \brief The client's id to echo for a request object: its "id" member
/// when that is a string, null otherwise (including non-objects).
JsonValue RequestId(const JsonValue& json);

// ---------------------------------------------------------- serializers
//
// Each serializer writes one response line, without the trailing newline,
// in two forms: appended to `out` (the daemon writes a whole batch into one
// buffer this way) or returned as a string. Members are streamed straight
// into the buffer in ascending key order with the same AppendJsonString /
// AppendJsonNumber primitives JsonValue::Dump uses, so every line is
// byte-identical to the Dump() of a JsonValue object holding the same
// members. Errors carry {"error":{"code":...,"message":...}} and
// "ok":false. A `query_id` is echoed only when the client sent one.

/// \brief A query's response line: the echoed id and the estimates with
/// their diagnostics, or the error of a failed query.
void SerializeResult(const QueryRequest& request, const QueryResult& result,
                     std::string& out);
std::string SerializeResult(const QueryRequest& request,
                            const QueryResult& result);

/// \brief An error response for a line that failed to parse. `id` is the
/// echoed RequestId of a line that parsed as JSON; null for a line that is
/// not JSON at all.
void SerializeParseError(const Status& status, const JsonValue& id,
                         std::string& out);
std::string SerializeParseError(const Status& status,
                                const JsonValue& id = {});

/// \brief Acknowledgement line for an absorbed record.
void SerializeIngestAck(const IngestRequest& request,
                        std::uint64_t absorbed_total, std::uint64_t epoch,
                        std::string& out);
std::string SerializeIngestAck(const IngestRequest& request,
                               std::uint64_t absorbed_total,
                               std::uint64_t epoch);

/// \brief Error line for a rejected ingest submission (parse/validation
/// failure, or ingestion not enabled on this daemon).
void SerializeIngestError(const IngestRequest& request, const Status& status,
                          std::string& out);
std::string SerializeIngestError(const IngestRequest& request,
                                 const Status& status);

/// \brief Response line for a completed top-k selection.
void SerializeTopkResult(const TopkRequest& request,
                         const seedmax::SeedMaxResult& result,
                         std::string& out);
std::string SerializeTopkResult(const TopkRequest& request,
                                const seedmax::SeedMaxResult& result);

/// \brief Error line for a failed selection (validation, conditional
/// floor, out-of-range nodes).
void SerializeTopkError(const TopkRequest& request, const Status& status,
                        std::string& out);
std::string SerializeTopkError(const TopkRequest& request,
                               const Status& status);

}  // namespace infoflow::serve
