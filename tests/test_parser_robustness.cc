/// \file test_parser_robustness.cc
/// \brief Fuzz-style robustness sweeps: every text parser in the library
/// must return a Status (never crash, never corrupt) on arbitrary input —
/// random bytes, truncations of valid documents, and hostile near-misses.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

#include "core/serialization.h"
#include "graph/generators.h"
#include "learn/evidence_io.h"
#include "twitter/retweet_parser.h"
#include "twitter/tweet_io.h"
#include "serve/protocol.h"
#include "util/csv.h"
#include "util/json.h"

namespace infoflow {
namespace {

std::string RandomBytes(Rng& rng, std::size_t length) {
  std::string out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    // Printable-ish mix plus newlines and separators the parsers key on.
    static const char kAlphabet[] =
        "abcdefghijklmnopqrstuvwxyz0123456789 \n\t|:>,\"@.!-";
    out += kAlphabet[rng.NextBounded(sizeof(kAlphabet) - 1)];
  }
  return out;
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, RandomBytesNeverCrashParsers) {
  Rng rng(GetParam());
  const UserRegistry registry = UserRegistry::Sequential(10);
  GraphBuilder b(4);
  b.AddEdge(0, 1).CheckOK();
  b.AddEdge(1, 2).CheckOK();
  const DirectedGraph graph = std::move(b).Build();
  for (int i = 0; i < 50; ++i) {
    const std::string junk = RandomBytes(rng, 1 + rng.NextBounded(300));
    (void)DeserializePointIcm(junk);
    (void)DeserializeBetaIcm(junk);
    (void)DeserializeAttributedEvidence(junk, graph);
    (void)DeserializeUnattributedEvidence(junk);
    (void)DeserializeTweetLog(junk, registry);
    (void)ParseCsv(junk);
    std::vector<std::string> mentions;
    std::string base;
    SplitRetweetChain(junk, &mentions, &base);
  }
}

TEST_P(ParserFuzz, TruncatedValidDocumentsFailCleanly) {
  Rng rng(GetParam() + 1000);
  auto g = std::make_shared<const DirectedGraph>(
      UniformRandomGraph(8, 20, rng));
  const BetaIcm model = BetaIcm::RandomSynthetic(g, rng);
  const std::string full = SerializeBetaIcm(model);
  for (int i = 0; i < 40; ++i) {
    const std::size_t cut = rng.NextBounded(full.size());
    auto result = DeserializeBetaIcm(full.substr(0, cut));
    // Most truncations break the record count and must fail; a cut inside
    // the final number still reads as a (different) valid document. Either
    // way: an error Status or a fully valid model, never a crash or a
    // half-constructed result.
    if (result.ok()) {
      EXPECT_EQ(result->graph().num_edges(), model.graph().num_edges());
      for (EdgeId e = 0; e < result->graph().num_edges(); ++e) {
        EXPECT_GT(result->alpha(e), 0.0);
        EXPECT_GT(result->beta(e), 0.0);
      }
    }
  }
}

TEST_P(ParserFuzz, SingleByteCorruptionsNeverCrash) {
  Rng rng(GetParam() + 2000);
  GraphBuilder b(3);
  b.AddEdge(0, 1).CheckOK();
  b.AddEdge(1, 2).CheckOK();
  auto g = std::make_shared<const DirectedGraph>(std::move(b).Build());
  const PointIcm model(g, {0.25, 0.75});
  const std::string full = SerializePointIcm(model);
  for (int i = 0; i < 100; ++i) {
    std::string corrupted = full;
    const std::size_t pos = rng.NextBounded(corrupted.size());
    corrupted[pos] =
        static_cast<char>('!' + rng.NextBounded(90));
    auto result = DeserializePointIcm(corrupted);
    if (result.ok()) {
      // A corruption that still parses must yield a *valid* model.
      EXPECT_EQ(result->graph().num_edges(), 2u);
      for (EdgeId e = 0; e < 2; ++e) {
        EXPECT_GE(result->prob(e), 0.0);
        EXPECT_LE(result->prob(e), 1.0);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(ParserRobustness, RetweetChainPathologies) {
  std::vector<std::string> mentions;
  std::string base;
  // Deep nesting.
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += "RT @u" + std::to_string(i) + ": ";
  deep += "core";
  SplitRetweetChain(deep, &mentions, &base);
  EXPECT_EQ(mentions.size(), 200u);
  EXPECT_EQ(base, "core");
  // Empty and whitespace-only.
  SplitRetweetChain("", &mentions, &base);
  EXPECT_TRUE(mentions.empty());
  SplitRetweetChain("   ", &mentions, &base);
  EXPECT_TRUE(mentions.empty());
  // "RT @" with nothing after.
  SplitRetweetChain("RT @", &mentions, &base);
  EXPECT_TRUE(mentions.empty());
  EXPECT_EQ(base, "RT @");
  // Colon with empty handle.
  SplitRetweetChain("RT @: hi", &mentions, &base);
  EXPECT_TRUE(mentions.empty());
}

TEST(ParserRobustness, EvidenceIoHostileNearMisses) {
  GraphBuilder b(3);
  b.AddEdge(0, 1).CheckOK();
  const DirectedGraph graph = std::move(b).Build();
  // Huge claimed counts must not allocate unboundedly or crash.
  EXPECT_FALSE(DeserializeAttributedEvidence(
                   "infoflow-attributed v1\nobjects 99999999999\n", graph)
                   .ok());
  EXPECT_FALSE(DeserializeUnattributedEvidence(
                   "infoflow-traces v1\ntraces 18446744073709551615\n")
                   .ok());
  // Node ids at the NodeId boundary.
  EXPECT_FALSE(DeserializeAttributedEvidence(
                   "infoflow-attributed v1\nobjects 1\n4294967295|0|\n",
                   graph)
                   .ok());
  // Negative numbers.
  EXPECT_FALSE(DeserializeUnattributedEvidence(
                   "infoflow-traces v1\ntraces 1\n-3:1.0\n")
                   .ok());
}

TEST(ParserRobustness, JsonToIntegerChecksTheRangeBeforeConverting) {
  constexpr double kTwoTo53 = 9007199254740992.0;
  constexpr double kTwoTo64 = 18446744073709551616.0;
  const double inf = std::numeric_limits<double>::infinity();
  // NodeId: its max converts, the next integer up does not.
  EXPECT_EQ(JsonToInteger<NodeId>(JsonValue(4294967295.0)),
            std::numeric_limits<NodeId>::max());
  EXPECT_FALSE(JsonToInteger<NodeId>(JsonValue(4294967296.0)));
  EXPECT_FALSE(JsonToInteger<NodeId>(JsonValue(1e20)));
  EXPECT_FALSE(JsonToInteger<NodeId>(JsonValue(1e300)));
  EXPECT_FALSE(JsonToInteger<NodeId>(JsonValue(inf)));
  EXPECT_FALSE(JsonToInteger<NodeId>(JsonValue(-inf)));
  EXPECT_FALSE(
      JsonToInteger<NodeId>(JsonValue(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_FALSE(JsonToInteger<NodeId>(JsonValue(-1.0)));
  EXPECT_FALSE(JsonToInteger<NodeId>(JsonValue(0.5)));
  EXPECT_FALSE(JsonToInteger<NodeId>(JsonValue("3")));
  // 64-bit targets: 2^53 and 2^63 convert exactly; 2^64 (the double that
  // uint64's max rounds to) is out of range.
  EXPECT_EQ(JsonToInteger<std::uint64_t>(JsonValue(kTwoTo53)),
            std::uint64_t{1} << 53);
  EXPECT_EQ(JsonToInteger<std::uint64_t>(JsonValue(kTwoTo53 * 1024.0)),
            std::uint64_t{1} << 63);
  EXPECT_FALSE(JsonToInteger<std::uint64_t>(JsonValue(kTwoTo64)));
  // The lower bound is the caller's.
  EXPECT_FALSE(JsonToInteger<std::size_t>(JsonValue(0.0), 1));
  EXPECT_EQ(JsonToInteger<std::size_t>(JsonValue(1.0), 1), 1u);
  EXPECT_EQ(JsonToInteger<int>(JsonValue(-5.0), -10), -5);
  EXPECT_FALSE(JsonToInteger<int>(JsonValue(2147483648.0), -10));
}

/// The status code name a protocol parse ends in ("ok" on success).
template <typename ParseFn>
std::string ParseOutcome(std::string_view line, ParseFn parse) {
  auto json = ParseJson(line);
  if (!json.ok()) return StatusCodeName(json.status().code());
  auto parsed = parse(*json);
  return parsed.ok() ? "ok" : StatusCodeName(parsed.status().code());
}

TEST(ParserRobustness, ProtocolRejectsOutOfRangeNumbersAsInvalidArgument) {
  const auto query = [](const JsonValue& json) {
    return serve::ParseRequest(json);
  };
  const auto topk = [](const JsonValue& json) {
    return serve::ParseTopkRequest(json);
  };
  const auto admin = [](const JsonValue& json) {
    return serve::ParseAdminRequest(json);
  };
  for (const char* line : {
           R"({"id":"a","source":1e300,"sink":1})",
           R"({"id":"b","source":0,"sink":1e20})",
           R"({"source":0,"sink":4294967296})",
           R"({"sources":[0,1e300],"sink":1})",
           R"({"source":0,"sinks":[1,-1]})",
           R"({"source":0,"sink":1,"query_id":1e20})",
           R"({"source":0,"sink":1,"query_id":18446744073709551616})",
       }) {
    EXPECT_EQ(ParseOutcome(line, query), "invalid-argument") << line;
  }
  for (const char* line : {
           R"({"id":"c","topk":1e300})",
           R"({"topk":1e20})",
           R"({"topk":0})",
           R"({"topk":2.5})",
           R"({"topk":3,"query_id":1e300})",
           R"({"topk":2,"candidates":[1e300]})",
           R"({"topk":2,"community":[4294967296]})",
       }) {
    EXPECT_EQ(ParseOutcome(line, topk), "invalid-argument") << line;
  }
  EXPECT_EQ(ParseOutcome(
                R"({"trace":{"enable":true,"events_per_thread":1e300}})",
                admin),
            "invalid-argument");

  // The edge values themselves parse: the largest NodeId (which the engine
  // then answers as out of range for this graph) and a 2^53 query id.
  auto edge = serve::ParseRequestLine(
      R"({"source":4294967295,"sink":0,"query_id":9007199254740992})");
  ASSERT_TRUE(edge.ok()) << edge.status();
  EXPECT_EQ(edge->sources.front(), std::numeric_limits<NodeId>::max());
  EXPECT_EQ(edge->query_id, std::uint64_t{1} << 53);
  EXPECT_EQ(ParseOutcome(R"({"topk":9007199254740992})", topk), "ok");
}

}  // namespace
}  // namespace infoflow
