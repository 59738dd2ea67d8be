/// Tests for the serve subsystem: SampleBank packing and generations, the
/// QueryEngine's estimators against the direct samplers and the exact
/// enumerator, the NDJSON protocol, and the daemon's fd serving loop.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <bit>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>

#include "core/exact_flow.h"
#include "core/mh_sampler.h"
#include "core/multi_chain.h"
#include "graph/generators.h"
#include "seedmax/seed_selector.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/sample_bank.h"
#include "serve/server.h"
#include "serve/transport.h"
#include "util/json.h"
#include "util/timer.h"

namespace infoflow::serve {
namespace {

std::shared_ptr<const DirectedGraph> Share(DirectedGraph g) {
  return std::make_shared<const DirectedGraph>(std::move(g));
}

PointIcm SmallRandomModel(std::uint64_t seed, NodeId nodes, EdgeId edges) {
  Rng rng(seed);
  auto g = Share(UniformRandomGraph(nodes, edges, rng));
  std::vector<double> probs(g->num_edges());
  for (double& p : probs) p = rng.Uniform(0.1, 0.9);
  return PointIcm(g, probs);
}

/// A conditioning constraint that is satisfiable by construction: requiring
/// flow along an existing edge (its activation alone implies the flow), so
/// a bank filtered by it keeps a healthy fraction of rows on any graph.
FlowConstraint EdgeConstraint(const PointIcm& model, EdgeId e = 0) {
  const Edge& edge = model.graph().edge(e);
  return {edge.src, edge.dst, true};
}

BankOptions FastBank(std::size_t states, std::size_t chains = 4) {
  BankOptions options;
  options.num_states = states;
  options.chain.num_chains = chains;
  options.chain.mh.burn_in = 1200;
  options.chain.mh.thinning = 4;
  return options;
}

QueryEngine MakeEngine(const SampleBank& bank,
                       QueryEngineOptions options = {}) {
  auto engine = QueryEngine::Create(bank.graph_ptr(), options);
  EXPECT_TRUE(engine.ok()) << engine.status();
  return std::move(engine).ValueOrDie();
}

QueryRequest FlowQuery(NodeId source, NodeId sink) {
  QueryRequest request;
  request.kind = QueryKind::kFlow;
  request.sources = {source};
  request.sinks = {sink};
  return request;
}

/// Exact equality of two result sets: statuses, row accounting, estimates
/// and diagnostics.
void ExpectIdenticalResults(const std::vector<QueryResult>& expected,
                            const std::vector<QueryResult>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t q = 0; q < expected.size(); ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    EXPECT_EQ(expected[q].status.code(), actual[q].status.code());
    EXPECT_EQ(expected[q].status.message(), actual[q].status.message());
    EXPECT_EQ(expected[q].effective_rows, actual[q].effective_rows);
    EXPECT_EQ(expected[q].total_rows, actual[q].total_rows);
    EXPECT_EQ(expected[q].generation, actual[q].generation);
    ASSERT_EQ(expected[q].estimates.size(), actual[q].estimates.size());
    for (std::size_t s = 0; s < expected[q].estimates.size(); ++s) {
      const SinkEstimate& want = expected[q].estimates[s];
      const SinkEstimate& got = actual[q].estimates[s];
      EXPECT_EQ(want.sink, got.sink);
      EXPECT_DOUBLE_EQ(want.value, got.value);
      EXPECT_DOUBLE_EQ(want.diagnostics.mcse, got.diagnostics.mcse);
      EXPECT_DOUBLE_EQ(want.diagnostics.ess, got.diagnostics.ess);
      EXPECT_DOUBLE_EQ(want.diagnostics.rhat, got.diagnostics.rhat);
    }
  }
}

// ------------------------------------------------------------- SampleBank

TEST(SampleBank, RowsMatchDirectChainSamplesBitForBit) {
  // The bank must store exactly the retained states the chains produce:
  // row k·R+i of generation 1 is chain k's i-th retained sample, packed.
  const PointIcm model = SmallRandomModel(7, 10, 24);
  const BankOptions options = FastBank(64, /*chains=*/3);
  auto bank = SampleBank::Create(model, options, /*seed=*/42);
  ASSERT_TRUE(bank.ok()) << bank.status();
  const auto generation = bank->Acquire();
  ASSERT_EQ(generation->id(), 1u);
  const std::size_t per_chain = generation->rows_per_chain();

  for (std::size_t k = 0; k < generation->num_chains(); ++k) {
    auto direct = MhSampler::Create(
        model, {}, options.chain.mh,
        Rng(MultiChainSampler::DeriveChainSeed(42, k)));
    ASSERT_TRUE(direct.ok());
    for (std::size_t i = 0; i < per_chain; ++i) {
      const PseudoState& state = direct->NextSample();
      const PseudoState row = generation->UnpackRow(k * per_chain + i);
      ASSERT_EQ(state, row) << "chain " << k << " sample " << i;
    }
  }
}

TEST(SampleBank, RowCountAndLayout) {
  const PointIcm model = SmallRandomModel(3, 8, 20);
  // 100 states over 3 chains → ⌈100/3⌉ = 34 per chain, 102 rows.
  auto bank = SampleBank::Create(model, FastBank(100, 3), 5);
  ASSERT_TRUE(bank.ok());
  const auto generation = bank->Acquire();
  EXPECT_EQ(generation->num_rows(), 102u);
  EXPECT_EQ(generation->rows_per_chain(), 34u);
  EXPECT_EQ(bank->rows_per_generation(), 102u);
  EXPECT_EQ(generation->words_per_row(), PackedRowWords(20));
  EXPECT_EQ(generation->ChainOfRow(0), 0u);
  EXPECT_EQ(generation->ChainOfRow(34), 1u);
  EXPECT_EQ(generation->ChainOfRow(101), 2u);
}

TEST(SampleBank, RefreshPublishesNewGenerationWithoutInvalidatingReaders) {
  const PointIcm model = SmallRandomModel(11, 10, 24);
  auto bank = SampleBank::Create(model, FastBank(128), 9);
  ASSERT_TRUE(bank.ok());
  const auto before = bank->Acquire();
  ASSERT_EQ(before->id(), 1u);
  // Snapshot a row, refresh, and check the old generation is untouched
  // while the new one differs (the chains moved on).
  const PseudoState row0 = before->UnpackRow(0);
  bank->Refresh();
  const auto after = bank->Acquire();
  EXPECT_EQ(after->id(), 2u);
  EXPECT_EQ(before->id(), 1u);
  EXPECT_EQ(before->UnpackRow(0), row0);
  bool any_difference = false;
  for (std::size_t r = 0; r < before->num_rows() && !any_difference; ++r) {
    any_difference = before->UnpackRow(r) != after->UnpackRow(r);
  }
  EXPECT_TRUE(any_difference);
}

TEST(SampleBank, ValidatesOptions) {
  const PointIcm model = SmallRandomModel(1, 6, 12);
  BankOptions zero;
  zero.num_states = 0;
  EXPECT_FALSE(SampleBank::Create(model, zero, 1).ok());
}

// ------------------------------------------------------------ QueryEngine

TEST(QueryEngine, UnconditionalFlowMatchesMultiChainExactly) {
  // The bank reuses the *same* retained states a fresh engine with the same
  // seed would draw, so the estimates must agree bit-for-bit (indicator
  // sums of 0/1 are exact in floating point).
  const PointIcm model = SmallRandomModel(13, 10, 26);
  const BankOptions options = FastBank(2000);
  auto bank = SampleBank::Create(model, options, 77);
  ASSERT_TRUE(bank.ok());
  QueryEngine engine = MakeEngine(*bank);

  auto direct = MultiChainSampler::Create(model, {}, options.chain, 77);
  ASSERT_TRUE(direct.ok());
  const MultiChainEstimate expected =
      direct->EstimateFlowProbability(0, 9, options.num_states);

  const auto generation = bank->Acquire();
  const std::vector<QueryResult> results =
      engine.AnswerBatch(*generation, {FlowQuery(0, 9)});
  ASSERT_EQ(results.size(), 1u);
  ASSERT_TRUE(results[0].status.ok()) << results[0].status;
  ASSERT_EQ(results[0].estimates.size(), 1u);
  EXPECT_DOUBLE_EQ(results[0].estimates[0].value, expected.value);
  EXPECT_EQ(results[0].effective_rows, generation->num_rows());
  EXPECT_DOUBLE_EQ(results[0].estimates[0].diagnostics.mcse,
                   expected.diagnostics.mcse);
}

TEST(QueryEngine, CommunityAndJointMatchMultiChainExactly) {
  // 1600 states over 4 chains → 400 per chain: even, so the multi-chain
  // estimators' even-length split-chain truncation drops nothing and the
  // comparison is exact.
  const PointIcm model = SmallRandomModel(17, 12, 30);
  const BankOptions options = FastBank(1600);
  auto bank = SampleBank::Create(model, options, 31);
  ASSERT_TRUE(bank.ok());
  QueryEngine engine = MakeEngine(*bank);
  const auto generation = bank->Acquire();

  QueryRequest community;
  community.kind = QueryKind::kCommunity;
  community.sources = {0, 1};
  community.sinks = {5, 8, 11};
  QueryRequest joint;
  joint.kind = QueryKind::kJoint;
  joint.flows = {{0, 5, true}, {1, 8, true}};
  const std::vector<QueryResult> results =
      engine.AnswerBatch(*generation, {community, joint});
  ASSERT_TRUE(results[0].status.ok());
  ASSERT_TRUE(results[1].status.ok());

  auto direct1 = MultiChainSampler::Create(model, {}, options.chain, 31);
  ASSERT_TRUE(direct1.ok());
  const std::vector<MultiChainEstimate> expected =
      direct1->EstimateCommunityFlowMulti({0, 1}, {5, 8, 11},
                                          options.num_states);
  ASSERT_EQ(results[0].estimates.size(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_DOUBLE_EQ(results[0].estimates[j].value, expected[j].value);
  }

  auto direct2 = MultiChainSampler::Create(model, {}, options.chain, 31);
  ASSERT_TRUE(direct2.ok());
  const MultiChainEstimate joint_expected =
      direct2->EstimateJointFlowProbability(joint.flows, options.num_states);
  ASSERT_EQ(results[1].estimates.size(), 1u);
  EXPECT_DOUBLE_EQ(results[1].estimates[0].value, joint_expected.value);
}

TEST(QueryEngine, FrontierDedupSharesOneScanAndPreservesAnswers) {
  const PointIcm model = SmallRandomModel(19, 10, 24);
  auto bank = SampleBank::Create(model, FastBank(600), 12);
  ASSERT_TRUE(bank.ok());
  QueryEngine engine = MakeEngine(*bank);
  const auto generation = bank->Acquire();

  // Same frontier {2}, different sinks → merged; distinct frontier → not.
  std::vector<QueryRequest> batch = {FlowQuery(2, 7), FlowQuery(2, 9),
                                     FlowQuery(3, 7)};
  const std::vector<QueryResult> merged =
      engine.AnswerBatch(*generation, batch);
  EXPECT_TRUE(merged[0].frontier_shared);
  EXPECT_TRUE(merged[1].frontier_shared);
  EXPECT_FALSE(merged[2].frontier_shared);

  // Answers are identical to the queries run alone.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::vector<QueryResult> alone =
        engine.AnswerBatch(*generation, {batch[i]});
    EXPECT_DOUBLE_EQ(merged[i].estimates[0].value,
                     alone[0].estimates[0].value);
  }
}

TEST(QueryEngine, ConditionalReportsEffectiveRows) {
  const PointIcm model = SmallRandomModel(23, 8, 16);
  QueryEngineOptions engine_options;
  engine_options.min_conditional_rows = 8;
  auto bank = SampleBank::Create(model, FastBank(1000), 3);
  ASSERT_TRUE(bank.ok());
  QueryEngine engine = MakeEngine(*bank, engine_options);
  const auto generation = bank->Acquire();

  QueryRequest request = FlowQuery(0, 5);
  request.given = {EdgeConstraint(model)};
  const std::vector<QueryResult> results =
      engine.AnswerBatch(*generation, {request});
  ASSERT_TRUE(results[0].status.ok()) << results[0].status;
  EXPECT_GT(results[0].effective_rows, 0u);
  EXPECT_LT(results[0].effective_rows, results[0].total_rows);
  // The filtered mean is a probability.
  EXPECT_GE(results[0].estimates[0].value, 0.0);
  EXPECT_LE(results[0].estimates[0].value, 1.0);
}

TEST(QueryEngine, ConditionalFloorFailsWithDescriptiveStatus) {
  const PointIcm model = SmallRandomModel(29, 8, 16);
  QueryEngineOptions engine_options;
  engine_options.min_conditional_rows = 1 << 20;  // unreachable floor
  auto bank = SampleBank::Create(model, FastBank(400), 4);
  ASSERT_TRUE(bank.ok());
  QueryEngine engine = MakeEngine(*bank, engine_options);

  QueryRequest request = FlowQuery(0, 5);
  request.id = "cond-query";
  request.given = {{1, 4, true}};
  const std::vector<QueryResult> results =
      engine.AnswerBatch(*bank->Acquire(), {request});
  EXPECT_EQ(results[0].status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(results[0].status.message().find("cond-query"),
            std::string::npos);
  EXPECT_NE(results[0].status.message().find("floor"), std::string::npos);
}

TEST(QueryEngine, RejectsInvalidRequestsIndividually) {
  const PointIcm model = SmallRandomModel(31, 8, 16);
  auto bank = SampleBank::Create(model, FastBank(200), 6);
  ASSERT_TRUE(bank.ok());
  QueryEngine engine = MakeEngine(*bank);
  const auto generation = bank->Acquire();

  QueryRequest contradictory = FlowQuery(0, 5);
  contradictory.given = {{1, 4, true}, {1, 4, false}};
  QueryRequest out_of_range = FlowQuery(0, 999);
  QueryRequest empty_joint;
  empty_joint.kind = QueryKind::kJoint;
  QueryRequest good = FlowQuery(0, 5);

  const std::vector<QueryResult> results = engine.AnswerBatch(
      *generation, {contradictory, out_of_range, empty_joint, good});
  EXPECT_EQ(results[0].status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(results[0].status.message().find("contradict"),
            std::string::npos);
  EXPECT_EQ(results[1].status.code(), StatusCode::kOutOfRange);
  EXPECT_EQ(results[2].status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(results[3].status.ok());
}

TEST(QueryEngine, DeadlineExceededOnImpossibleTimeout) {
  const PointIcm model = SmallRandomModel(37, 10, 24);
  auto bank = SampleBank::Create(model, FastBank(2000), 21);
  ASSERT_TRUE(bank.ok());
  QueryEngine engine = MakeEngine(*bank);

  QueryRequest request = FlowQuery(0, 5);
  request.timeout_ms = 1e-7;  // expires before the first row chunk
  const std::vector<QueryResult> results =
      engine.AnswerBatch(*bank->Acquire(), {request});
  EXPECT_EQ(results[0].status.code(), StatusCode::kDeadlineExceeded);
}

TEST(QueryEngine, BatchAndScalarReachabilityAgreeBitForBit) {
  // The bit-parallel path must be an exact drop-in: same indicator sets,
  // same doubles, same effective-row counts — across every query kind,
  // including conditionals, on a bank whose row count is not a multiple of
  // 64 (225 per chain × 4 chains = 900 rows; 900 mod 64 = 4, so the final
  // block is ragged).
  const PointIcm model = SmallRandomModel(41, 12, 30);
  auto bank = SampleBank::Create(model, FastBank(900), 55);
  ASSERT_TRUE(bank.ok());
  const auto generation = bank->Acquire();
  ASSERT_NE(generation->num_rows() % 64, 0u);

  QueryEngineOptions scalar_options;
  scalar_options.use_batch_reachability = false;
  scalar_options.min_conditional_rows = 4;
  QueryEngineOptions batch_options;
  batch_options.min_conditional_rows = 4;
  QueryEngine batch = MakeEngine(*bank, batch_options);
  QueryEngine scalar = MakeEngine(*bank, scalar_options);

  QueryRequest community;
  community.kind = QueryKind::kCommunity;
  community.sources = {0, 3};
  community.sinks = {5, 8, 11};
  QueryRequest joint;
  joint.kind = QueryKind::kJoint;
  joint.flows = {{0, 5, true}, {1, 8, false}};
  QueryRequest conditional = FlowQuery(0, 9);
  conditional.given = {EdgeConstraint(model)};
  QueryRequest forbid_conditional = FlowQuery(2, 7);
  forbid_conditional.given = {EdgeConstraint(model), {0, 11, false}};
  QueryRequest conditional_joint;
  conditional_joint.kind = QueryKind::kJoint;
  conditional_joint.flows = {{2, 9, true}};
  conditional_joint.given = {EdgeConstraint(model)};
  const std::vector<QueryRequest> requests = {
      FlowQuery(0, 9),  community,          joint,
      conditional,      forbid_conditional, conditional_joint};

  const std::vector<QueryResult> via_batch =
      batch.AnswerBatch(*generation, requests);
  const std::vector<QueryResult> via_scalar =
      scalar.AnswerBatch(*generation, requests);
  ASSERT_EQ(via_batch.size(), via_scalar.size());
  for (std::size_t i = 0; i < via_batch.size(); ++i) {
    ASSERT_EQ(via_batch[i].status.code(), via_scalar[i].status.code())
        << "request " << i;
    if (!via_batch[i].status.ok()) continue;
    EXPECT_EQ(via_batch[i].effective_rows, via_scalar[i].effective_rows)
        << "request " << i;
    ASSERT_EQ(via_batch[i].estimates.size(), via_scalar[i].estimates.size());
    for (std::size_t j = 0; j < via_batch[i].estimates.size(); ++j) {
      EXPECT_DOUBLE_EQ(via_batch[i].estimates[j].value,
                       via_scalar[i].estimates[j].value)
          << "request " << i << " sink " << j;
      EXPECT_DOUBLE_EQ(via_batch[i].estimates[j].diagnostics.mcse,
                       via_scalar[i].estimates[j].diagnostics.mcse)
          << "request " << i << " sink " << j;
    }
  }
}

TEST(QueryEngine, LaneWidthsAgreeBitForBitIncludingConditionals) {
  // Widening the replay past 64 lanes must be invisible in the answers:
  // engines pinned to 64, 256, and 512 lanes (and auto, which picks 512
  // here) return the scalar engine's doubles exactly, across every query
  // kind. 150 per chain × 4 chains = 600 rows: ≥512 so auto steps up to
  // 8-word strips, 600 mod 64 = 24 so the tail block is ragged, and the
  // second strip carries dead blocks past the bank (10 blocks over strips
  // of 8).
  const PointIcm model = SmallRandomModel(61, 12, 30);
  auto bank = SampleBank::Create(model, FastBank(600), 77);
  ASSERT_TRUE(bank.ok());
  const auto generation = bank->Acquire();
  ASSERT_GE(generation->num_rows(), 512u);
  ASSERT_NE(generation->num_rows() % 64, 0u);

  QueryRequest community;
  community.kind = QueryKind::kCommunity;
  community.sources = {0, 3};
  community.sinks = {5, 8, 11};
  QueryRequest joint;
  joint.kind = QueryKind::kJoint;
  joint.flows = {{0, 5, true}, {1, 8, false}};
  QueryRequest conditional = FlowQuery(0, 9);
  conditional.given = {EdgeConstraint(model)};
  QueryRequest forbid_conditional = FlowQuery(2, 7);
  forbid_conditional.given = {EdgeConstraint(model), {0, 11, false}};
  const std::vector<QueryRequest> requests = {FlowQuery(0, 9), community,
                                              joint, conditional,
                                              forbid_conditional};

  QueryEngineOptions scalar_options;
  scalar_options.use_batch_reachability = false;
  scalar_options.min_conditional_rows = 4;
  QueryEngine scalar = MakeEngine(*bank, scalar_options);
  const std::vector<QueryResult> reference =
      scalar.AnswerBatch(*generation, requests);

  for (const LaneWidth lanes :
       {LaneWidth::k64, LaneWidth::k256, LaneWidth::k512, LaneWidth::kAuto}) {
    QueryEngineOptions options;
    options.min_conditional_rows = 4;
    options.lanes = lanes;
    QueryEngine engine = MakeEngine(*bank, options);
    const std::vector<QueryResult> results =
        engine.AnswerBatch(*generation, requests);
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ASSERT_EQ(results[i].status.code(), reference[i].status.code())
          << LaneWidthName(lanes) << " request " << i;
      if (!results[i].status.ok()) continue;
      EXPECT_EQ(results[i].effective_rows, reference[i].effective_rows)
          << LaneWidthName(lanes) << " request " << i;
      ASSERT_EQ(results[i].estimates.size(), reference[i].estimates.size());
      for (std::size_t j = 0; j < results[i].estimates.size(); ++j) {
        EXPECT_DOUBLE_EQ(results[i].estimates[j].value,
                         reference[i].estimates[j].value)
            << LaneWidthName(lanes) << " request " << i << " sink " << j;
        EXPECT_DOUBLE_EQ(results[i].estimates[j].diagnostics.mcse,
                         reference[i].estimates[j].diagnostics.mcse)
            << LaneWidthName(lanes) << " request " << i << " sink " << j;
      }
    }
  }
}

TEST(QueryEngine, DuplicateSourcesDedupedBeforeFanOut) {
  const PointIcm model = SmallRandomModel(43, 10, 24);
  auto bank = SampleBank::Create(model, FastBank(600), 14);
  ASSERT_TRUE(bank.ok());
  QueryEngine engine = MakeEngine(*bank);
  const auto generation = bank->Acquire();

  // {2, 2, 2} canonicalizes to {2}: the two queries share one frontier
  // scan and agree with the deduplicated query run alone.
  QueryRequest noisy = FlowQuery(2, 7);
  noisy.sources = {2, 2, 2};
  const std::vector<QueryResult> results =
      engine.AnswerBatch(*generation, {noisy, FlowQuery(2, 7)});
  EXPECT_TRUE(results[0].frontier_shared);
  EXPECT_TRUE(results[1].frontier_shared);
  ASSERT_TRUE(results[0].status.ok());
  EXPECT_DOUBLE_EQ(results[0].estimates[0].value,
                   results[1].estimates[0].value);
}

TEST(QueryEngine, OutOfRangeSourceFailsWithDescriptiveStatus) {
  // An out-of-range endpoint must surface as a per-query Status the caller
  // can read, never reach the BFS workspaces' IF_CHECK aborts.
  const PointIcm model = SmallRandomModel(47, 8, 16);
  auto bank = SampleBank::Create(model, FastBank(200), 8);
  ASSERT_TRUE(bank.ok());
  QueryEngine engine = MakeEngine(*bank);

  QueryRequest bad_source = FlowQuery(0, 5);
  bad_source.sources = {0, 888};
  const std::vector<QueryResult> results =
      engine.AnswerBatch(*bank->Acquire(), {bad_source});
  EXPECT_EQ(results[0].status.code(), StatusCode::kOutOfRange);
  EXPECT_NE(results[0].status.message().find("888"), std::string::npos);
  EXPECT_NE(results[0].status.message().find("source"), std::string::npos);
}

TEST(QueryEngine, FollowsGenerationSwapsAndKeepsOldGenerationsAnswerable) {
  // One engine answers whichever generation it is handed: after a refresh
  // it answers the new rows, and a reader still holding the old generation
  // gets exactly the answers that generation gave before the swap.
  const PointIcm model = SmallRandomModel(37, 24, 60);
  auto bank = SampleBank::Create(model, FastBank(128), 6);
  ASSERT_TRUE(bank.ok());
  QueryRequest community;
  community.kind = QueryKind::kCommunity;
  community.sources = {0, 3};
  community.sinks = {5, 8, 11};
  QueryRequest joint;
  joint.kind = QueryKind::kJoint;
  joint.flows = {{0, 5, true}, {1, 8, false}};
  QueryRequest conditional = FlowQuery(2, 9);
  conditional.given = {EdgeConstraint(model)};
  const std::vector<QueryRequest> batch = {FlowQuery(0, 9), community, joint,
                                           conditional};
  QueryEngine engine = MakeEngine(*bank);

  const auto first = bank->Acquire();
  const std::vector<QueryResult> before = engine.AnswerBatch(*first, batch);
  bank->Refresh();
  const auto second = bank->Acquire();
  ASSERT_EQ(second->id(), 2u);
  for (const QueryResult& result : engine.AnswerBatch(*second, batch)) {
    EXPECT_EQ(result.generation, 2u);
  }
  ExpectIdenticalResults(before, engine.AnswerBatch(*first, batch));
}

TEST(SampleBank, EdgeMajorPlaneMatchesRowsIncludingRaggedTail) {
  // The transposed plane must agree bit-for-bit with the packed rows:
  // bit s of BlockEdgeWords(b)[e] is EdgeActive(b·64+s, e), and lanes past
  // the final ragged row stay zero. 34 per chain × 3 chains = 102 rows →
  // blocks of 64 and 38.
  const PointIcm model = SmallRandomModel(53, 10, 24);
  auto bank = SampleBank::Create(model, FastBank(100, 3), 16);
  ASSERT_TRUE(bank.ok());
  const auto generation = bank->Acquire();
  ASSERT_EQ(generation->num_rows(), 102u);
  ASSERT_EQ(generation->num_blocks(), 2u);
  EXPECT_EQ(generation->BlockLaneMask(0), ~std::uint64_t{0});
  EXPECT_EQ(generation->BlockLaneMask(1),
            (std::uint64_t{1} << (102 - 64)) - 1);
  for (std::size_t b = 0; b < generation->num_blocks(); ++b) {
    const std::uint64_t* words = generation->BlockEdgeWords(b);
    const std::uint64_t lanes = generation->BlockLaneMask(b);
    for (EdgeId e = 0; e < generation->num_edges(); ++e) {
      ASSERT_EQ(words[e] & ~lanes, 0u) << "block " << b << " edge " << e;
      for (std::size_t s = 0; s < 64; ++s) {
        const std::size_t row = b * 64 + s;
        if (row >= generation->num_rows()) break;
        ASSERT_EQ((words[e] >> s) & 1,
                  generation->EdgeActive(row, e) ? 1u : 0u)
            << "block " << b << " lane " << s << " edge " << e;
      }
    }
  }
}

TEST(SampleBank, OneWordStripPlaneIsTheEdgeMajorPlane) {
  // AcquireStripPlane(1) hands out the plane built at fill time — the same
  // words at the same addresses as BlockEdgeWords, no copy — with the
  // block lane masks, on a ragged bank: 100 per chain × 3 chains = 300 rows
  // → four full blocks and one of 44.
  const PointIcm model = SmallRandomModel(61, 10, 24);
  auto bank = SampleBank::Create(model, FastBank(300, 3), 19);
  ASSERT_TRUE(bank.ok());
  const auto generation = bank->Acquire();
  ASSERT_EQ(generation->num_rows(), 300u);
  ASSERT_EQ(generation->num_blocks(), 5u);
  const auto plane = generation->AcquireStripPlane(1);
  EXPECT_EQ(plane.get(), generation->AcquireStripPlane(1).get());
  EXPECT_EQ(plane->width, 1u);
  EXPECT_EQ(plane->num_edges, generation->num_edges());
  ASSERT_EQ(plane->num_strips, generation->num_blocks());
  for (std::size_t b = 0; b < generation->num_blocks(); ++b) {
    EXPECT_EQ(plane->StripWords(b), generation->BlockEdgeWords(b))
        << "block " << b;
    EXPECT_EQ(plane->StripLaneMask(b)[0], generation->BlockLaneMask(b))
        << "block " << b;
  }
  EXPECT_EQ(plane->StripLaneMask(4)[0], (std::uint64_t{1} << 44) - 1);
  if constexpr (obs::MetricsEnabled()) {
    const double words = static_cast<double>(
        generation->num_blocks() * (generation->num_edges() + 1));
    EXPECT_EQ(obs::GetGauge("serve.bank.plane_bytes.64").Value(), 8 * words);
    EXPECT_EQ(obs::GetGauge("serve.bank.plane_bytes.rows").Value(),
              8.0 * static_cast<double>(generation->num_rows() *
                                        generation->words_per_row()));
    const auto wide = generation->AcquireStripPlane(8);
    EXPECT_EQ(obs::GetGauge("serve.bank.plane_bytes.512").Value(),
              8.0 * static_cast<double>(wide->words.size() +
                                        wide->lane_masks.size()));
  }
}

TEST(SampleBank, RefreshAndRebuildUnderConcurrentEdgeMajorReaders) {
  // Generations are immutable after publish: readers holding a generation
  // scan its edge-major plane while the bank refreshes and rebuilds
  // underneath them. Run under TSan (the CI tsan job matches "Bank") this
  // proves the plane needs no locking beyond the publish pointer swap.
  const PointIcm model = SmallRandomModel(59, 10, 24);
  auto bank = SampleBank::Create(model, FastBank(150, 3), 18);
  ASSERT_TRUE(bank.ok());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(3);
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto generation = bank->Acquire();
        for (std::size_t b = 0; b < generation->num_blocks(); ++b) {
          const std::uint64_t* words = generation->BlockEdgeWords(b);
          const std::uint64_t lanes = generation->BlockLaneMask(b);
          for (EdgeId e = 0; e < generation->num_edges(); ++e) {
            // The plane always agrees with the rows of *this* generation.
            for (std::size_t s = 0; s < 64; ++s) {
              const std::size_t row = b * 64 + s;
              if (row >= generation->num_rows()) break;
              const bool bit = ((words[e] >> s) & 1) != 0;
              if (bit != generation->EdgeActive(row, e)) {
                failures.fetch_add(1, std::memory_order_relaxed);
              }
            }
            if ((words[e] & ~lanes) != 0) {
              failures.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      }
    });
  }
  for (std::uint64_t i = 0; i < 3; ++i) {
    bank->Refresh();
    ASSERT_TRUE(bank->Rebuild(model, /*model_epoch=*/2 + i).ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GE(bank->Acquire()->id(), 7u);
}

TEST(SampleBank, StripPlaneAcquireUnderConcurrentRefreshMatchesBlocks) {
  // AcquireStripPlane lazily interleaves and publishes per (generation,
  // width) with a keep-one-winner swap. Readers racing on first acquisition
  // while the bank refreshes and rebuilds underneath must always see a
  // plane that matches their own generation's edge-major blocks word for
  // word, with zero words and lane masks past the bank's last block. Run
  // under TSan (the CI tsan job matches "Bank") this proves the lazy build
  // publishes safely.
  const PointIcm model = SmallRandomModel(67, 10, 24);
  auto bank = SampleBank::Create(model, FastBank(150, 3), 23);
  ASSERT_TRUE(bank.ok());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(3);
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      const unsigned width = t % 2 == 0 ? 4 : 8;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto generation = bank->Acquire();
        const auto plane = generation->AcquireStripPlane(width);
        if (plane->width != width ||
            plane->num_blocks != generation->num_blocks()) {
          failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (std::size_t s = 0; s < plane->num_strips; ++s) {
          const std::uint64_t* words = plane->StripWords(s);
          const std::uint64_t* lanes = plane->StripLaneMask(s);
          for (unsigned w = 0; w < width; ++w) {
            const std::size_t b = s * width + w;
            if (b >= generation->num_blocks()) {
              if (lanes[w] != 0) {
                failures.fetch_add(1, std::memory_order_relaxed);
              }
              continue;
            }
            if (lanes[w] != generation->BlockLaneMask(b)) {
              failures.fetch_add(1, std::memory_order_relaxed);
            }
            const std::uint64_t* block = generation->BlockEdgeWords(b);
            for (EdgeId e = 0; e < generation->num_edges(); ++e) {
              if (words[e * width + w] != block[e]) {
                failures.fetch_add(1, std::memory_order_relaxed);
              }
            }
          }
        }
      }
    });
  }
  for (std::uint64_t i = 0; i < 3; ++i) {
    bank->Refresh();
    ASSERT_TRUE(bank->Rebuild(model, /*model_epoch=*/2 + i).ok());
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(failures.load(), 0u);
}

// -------------------------------------------- estimator agreement properties

TEST(ServeProperty, BankAgreesWithIndependentSamplerWithinThreeMcse) {
  // Acceptance property: bank estimates and a direct sampler run with a
  // *different* seed agree within 3× their combined MCSE — on several
  // random graphs, unconditional and conditional.
  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    const PointIcm model =
        SmallRandomModel(seed, 12, 30);
    const BankOptions options = FastBank(4000);
    auto bank = SampleBank::Create(model, options, seed);
    ASSERT_TRUE(bank.ok());
    QueryEngine engine = MakeEngine(*bank);
    const auto generation = bank->Acquire();

    // Unconditional.
    QueryRequest query = FlowQuery(0, 11);
    auto direct = MultiChainSampler::Create(model, {}, options.chain,
                                            seed + 5000);
    ASSERT_TRUE(direct.ok());
    const MultiChainEstimate expected =
        direct->EstimateFlowProbability(0, 11, options.num_states);
    const std::vector<QueryResult> results =
        engine.AnswerBatch(*generation, {query});
    ASSERT_TRUE(results[0].status.ok());
    const SinkEstimate& est = results[0].estimates[0];
    const double tolerance =
        3.0 * std::sqrt(est.diagnostics.mcse * est.diagnostics.mcse +
                        expected.diagnostics.mcse *
                            expected.diagnostics.mcse) +
        1e-9;
    EXPECT_NEAR(est.value, expected.value, tolerance)
        << "seed " << seed << ": bank mcse " << est.diagnostics.mcse
        << ", direct mcse " << expected.diagnostics.mcse;

    // Conditional: filter-based bank estimate vs a sampler constrained to
    // the conditioning set (both estimate Eq. 8's numerator/denominator
    // ratio, by different routes).
    QueryRequest conditional = FlowQuery(0, 11);
    conditional.given = {EdgeConstraint(model)};
    auto constrained = MultiChainSampler::Create(
        model, conditional.given, options.chain, seed + 9000);
    ASSERT_TRUE(constrained.ok());
    const MultiChainEstimate cond_expected =
        constrained->EstimateFlowProbability(0, 11, options.num_states);
    const std::vector<QueryResult> cond_results =
        engine.AnswerBatch(*generation, {conditional});
    ASSERT_TRUE(cond_results[0].status.ok()) << cond_results[0].status;
    const SinkEstimate& cond_est = cond_results[0].estimates[0];
    const double cond_tolerance =
        3.0 * std::sqrt(
                  cond_est.diagnostics.mcse * cond_est.diagnostics.mcse +
                  cond_expected.diagnostics.mcse *
                      cond_expected.diagnostics.mcse) +
        1e-9;
    EXPECT_NEAR(cond_est.value, cond_expected.value, cond_tolerance)
        << "seed " << seed << ": effective rows "
        << cond_results[0].effective_rows;
  }
}

TEST(ServeProperty, BankMatchesExactEnumerationOnTinyGraphs) {
  // Ground truth: on graphs small enough for 2^m enumeration, bank
  // estimates must land within 3×MCSE of the exact probabilities —
  // unconditional and conditional.
  for (const std::uint64_t seed : {7u, 77u}) {
    const PointIcm model = SmallRandomModel(seed, 7, 12);
    const BankOptions options = FastBank(6000);
    auto bank = SampleBank::Create(model, options, seed * 13);
    ASSERT_TRUE(bank.ok());
    QueryEngine engine = MakeEngine(*bank);
    const auto generation = bank->Acquire();

    QueryRequest unconditional = FlowQuery(0, 6);
    QueryRequest conditional = FlowQuery(0, 6);
    conditional.given = {EdgeConstraint(model)};
    const std::vector<QueryResult> results =
        engine.AnswerBatch(*generation, {unconditional, conditional});

    ASSERT_TRUE(results[0].status.ok());
    const double exact = ExactFlowByEnumeration(model, 0, 6);
    const SinkEstimate& est = results[0].estimates[0];
    EXPECT_NEAR(est.value, exact,
                std::max(3.0 * est.diagnostics.mcse, 1e-3))
        << "seed " << seed;

    ASSERT_TRUE(results[1].status.ok()) << results[1].status;
    auto cond_exact = ExactConditionalFlowByEnumeration(
        model, 0, 6, conditional.given);
    ASSERT_TRUE(cond_exact.ok());
    const SinkEstimate& cond_est = results[1].estimates[0];
    EXPECT_NEAR(cond_est.value, *cond_exact,
                std::max(3.0 * cond_est.diagnostics.mcse, 1e-3))
        << "seed " << seed << ": effective rows "
        << results[1].effective_rows;
  }
}

// --------------------------------------------------------------- protocol

TEST(Protocol, ParsesSingularAndPluralForms) {
  auto flow = ParseRequestLine(R"({"id":"a","source":1,"sink":4})");
  ASSERT_TRUE(flow.ok()) << flow.status();
  EXPECT_EQ(flow->kind, QueryKind::kFlow);
  EXPECT_EQ(flow->sources, std::vector<NodeId>({1}));
  EXPECT_EQ(flow->sinks, std::vector<NodeId>({4}));

  auto community =
      ParseRequestLine(R"({"sources":[0,2],"sinks":[3,4,5],"timeout_ms":9})");
  ASSERT_TRUE(community.ok());
  EXPECT_EQ(community->kind, QueryKind::kCommunity);
  EXPECT_EQ(community->sources, std::vector<NodeId>({0, 2}));
  EXPECT_EQ(community->sinks, std::vector<NodeId>({3, 4, 5}));
  EXPECT_DOUBLE_EQ(community->timeout_ms, 9.0);

  auto joint = ParseRequestLine(R"({"kind":"joint","flows":"0>3 2!>4"})");
  ASSERT_TRUE(joint.ok());
  EXPECT_EQ(joint->kind, QueryKind::kJoint);
  ASSERT_EQ(joint->flows.size(), 2u);
  EXPECT_TRUE(joint->flows[0].must_flow);
  EXPECT_FALSE(joint->flows[1].must_flow);

  auto given = ParseRequestLine(R"({"source":0,"sink":3,"given":"1>2"})");
  ASSERT_TRUE(given.ok());
  ASSERT_EQ(given->given.size(), 1u);
  EXPECT_EQ(given->given[0].source, 1u);
}

TEST(Protocol, RejectsMalformedRequests) {
  EXPECT_FALSE(ParseRequestLine("[1,2,3]").ok());
  EXPECT_FALSE(ParseRequestLine(R"({"source":-1,"sink":3})").ok());
  EXPECT_FALSE(ParseRequestLine(R"({"source":0.5,"sink":3})").ok());
  EXPECT_FALSE(ParseRequestLine(R"({"source":0,"sink":3,"given":"x>y"})").ok());
  EXPECT_FALSE(
      ParseRequestLine(R"({"kind":"sideways","source":0,"sink":3})").ok());
  EXPECT_FALSE(
      ParseRequestLine(R"({"kind":"joint","flows":"0>3","sink":2})").ok());
  EXPECT_FALSE(
      ParseRequestLine(R"({"source":0,"sink":3,"flows":"1>2"})").ok());
  EXPECT_FALSE(
      ParseRequestLine(R"({"source":0,"sink":3,"timeout_ms":-1})").ok());
}

TEST(Protocol, SerializesResultsAndErrors) {
  QueryRequest request = FlowQuery(0, 3);
  request.id = "q9";
  QueryResult result;
  result.generation = 4;
  result.total_rows = 100;
  result.effective_rows = 60;
  SinkEstimate est;
  est.sink = 3;
  est.value = 0.25;
  est.diagnostics.mcse = 0.01;
  est.diagnostics.ess = 400.0;
  est.diagnostics.rhat = 1.001;
  result.estimates.push_back(est);
  const std::string line = SerializeResult(request, result);
  auto parsed = ParseJson(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("id")->AsString(), "q9");
  EXPECT_TRUE(parsed->Find("ok")->AsBool());
  EXPECT_DOUBLE_EQ(parsed->Find("effective_rows")->AsNumber(), 60.0);
  const JsonValue& entry = parsed->Find("estimates")->AsArray().at(0);
  EXPECT_DOUBLE_EQ(entry.Find("value")->AsNumber(), 0.25);
  EXPECT_DOUBLE_EQ(entry.Find("mcse")->AsNumber(), 0.01);

  QueryResult failed;
  failed.status = Status::FailedPrecondition("too few rows");
  const std::string error_line = SerializeResult(request, failed);
  auto error = ParseJson(error_line);
  ASSERT_TRUE(error.ok());
  EXPECT_FALSE(error->Find("ok")->AsBool());
  EXPECT_EQ(error->Find("error")->Find("code")->AsString(),
            "failed-precondition");

  auto parse_error = ParseJson(SerializeParseError(
      Status::ParseError("bad line")));
  ASSERT_TRUE(parse_error.ok());
  EXPECT_TRUE(parse_error->Find("id")->is_null());
}

TEST(Protocol, TopkRequestsParseWithAllFields) {
  auto json = ParseJson(
      R"({"id":"m1","topk":3,"candidates":[0,1,2],"community":[5,6],)"
      R"("given":"0>1","query_id":9})");
  ASSERT_TRUE(json.ok());
  EXPECT_TRUE(IsTopkRequest(*json));
  auto query = ParseJson(R"({"id":"q","source":0,"sink":1})");
  ASSERT_TRUE(query.ok());
  EXPECT_FALSE(IsTopkRequest(*query));

  auto request = ParseTopkRequest(*json);
  ASSERT_TRUE(request.ok()) << request.status();
  EXPECT_EQ(request->id, "m1");
  EXPECT_EQ(request->k, 3u);
  EXPECT_EQ(request->candidates, (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(request->community, (std::vector<NodeId>{5, 6}));
  ASSERT_EQ(request->given.size(), 1u);
  EXPECT_TRUE(request->query_id_provided);
  EXPECT_EQ(request->query_id, 9u);

  for (const char* bad :
       {R"({"topk":0})", R"({"topk":-2})", R"({"topk":1.5})",
        R"({"topk":"three"})", R"({"topk":2,"candidates":[-1]})",
        R"({"topk":2,"community":0})", R"({"topk":2,"given":"x>y"})"}) {
    auto line = ParseJson(bad);
    ASSERT_TRUE(line.ok());
    EXPECT_TRUE(IsTopkRequest(*line)) << bad;
    EXPECT_FALSE(ParseTopkRequest(*line).ok()) << bad;
  }
}

// ------------------------------------------- serializer differential test

/// The tree-building serializers the streamed ones replaced, kept as
/// oracles: each builds a JsonValue object (std::map, so keys dump in
/// ascending order) and dumps it.
namespace oracle {

void SetQueryId(JsonValue::Object& response, bool provided,
                std::uint64_t query_id) {
  if (provided && query_id != 0) {
    response["query_id"] = static_cast<double>(query_id);
  }
}

JsonValue ErrorObject(const Status& status) {
  JsonValue::Object error;
  error["code"] = StatusCodeName(status.code());
  error["message"] = status.message();
  return JsonValue(std::move(error));
}

std::string Result(const QueryRequest& request, const QueryResult& result) {
  JsonValue::Object response;
  response["id"] = request.id;
  SetQueryId(response, request.query_id_provided, request.query_id);
  if (!result.status.ok()) {
    response["ok"] = false;
    response["error"] = ErrorObject(result.status);
    return JsonValue(std::move(response)).Dump();
  }
  response["ok"] = true;
  response["kind"] = QueryKindName(request.kind);
  response["backend"] = QueryBackendName(result.backend);
  response["generation"] = static_cast<double>(result.generation);
  response["model_epoch"] = static_cast<double>(result.model_epoch);
  response["total_rows"] = static_cast<double>(result.total_rows);
  response["effective_rows"] = static_cast<double>(result.effective_rows);
  response["frontier_shared"] = result.frontier_shared;
  JsonValue::Array estimates;
  for (const SinkEstimate& est : result.estimates) {
    JsonValue::Object entry;
    entry["sink"] = static_cast<double>(est.sink);
    entry["value"] = est.value;
    entry["mcse"] = est.diagnostics.mcse;
    entry["ess"] = est.diagnostics.ess;
    entry["rhat"] = est.diagnostics.rhat;
    estimates.push_back(std::move(entry));
  }
  response["estimates"] = std::move(estimates);
  return JsonValue(std::move(response)).Dump();
}

std::string ParseError(const Status& status, JsonValue id) {
  JsonValue::Object response;
  response["id"] = std::move(id);
  response["ok"] = false;
  response["error"] = ErrorObject(status);
  return JsonValue(std::move(response)).Dump();
}

std::string IngestAck(const IngestRequest& request,
                      std::uint64_t absorbed_total, std::uint64_t epoch) {
  JsonValue::Object response;
  response["id"] = request.id;
  response["ok"] = true;
  response["ingested"] = true;
  response["absorbed_total"] = static_cast<double>(absorbed_total);
  response["epoch"] = static_cast<double>(epoch);
  return JsonValue(std::move(response)).Dump();
}

std::string IngestError(const IngestRequest& request, const Status& status) {
  JsonValue::Object response;
  response["id"] = request.id;
  response["ok"] = false;
  response["ingested"] = false;
  response["error"] = ErrorObject(status);
  return JsonValue(std::move(response)).Dump();
}

std::string TopkResult(const TopkRequest& request,
                       const seedmax::SeedMaxResult& result) {
  JsonValue::Object response;
  response["id"] = request.id;
  SetQueryId(response, request.query_id_provided, request.query_id);
  response["ok"] = true;
  response["kind"] = "topk";
  response["generation"] = static_cast<double>(result.generation);
  response["model_epoch"] = static_cast<double>(result.model_epoch);
  response["total_rows"] = static_cast<double>(result.total_rows);
  response["effective_rows"] = static_cast<double>(result.effective_rows);
  response["universe"] = static_cast<double>(result.universe);
  response["sketches"] = static_cast<double>(result.num_sketches);
  response["evaluations"] = static_cast<double>(result.evaluations);
  response["prune_hits"] = static_cast<double>(result.prune_hits);
  JsonValue::Array seeds;
  for (const seedmax::SeedPick& pick : result.picks) {
    JsonValue::Object entry;
    entry["node"] = static_cast<double>(pick.node);
    entry["marginal_coverage"] =
        static_cast<double>(pick.marginal_coverage);
    entry["spread"] = pick.spread;
    entry["mcse"] = pick.mcse;
    seeds.push_back(std::move(entry));
  }
  response["seeds"] = std::move(seeds);
  response["spread"] = result.spread;
  response["mcse"] = result.mcse;
  return JsonValue(std::move(response)).Dump();
}

std::string TopkError(const TopkRequest& request, const Status& status) {
  JsonValue::Object response;
  response["id"] = request.id;
  SetQueryId(response, request.query_id_provided, request.query_id);
  response["ok"] = false;
  response["error"] = ErrorObject(status);
  return JsonValue(std::move(response)).Dump();
}

}  // namespace oracle

/// Random inputs for the serializers: hostile strings, every status code,
/// and doubles that hit each branch of the number writer.
class SerializerFuzz {
 public:
  explicit SerializerFuzz(std::uint64_t seed) : rng_(seed) {}

  /// Mixes quotes, backslashes, every control character and plain text.
  std::string Text() {
    static const char kPieces[] = "ab\"\\/ \n\r\t\b\f{}:,0e-";
    std::string out;
    const std::size_t length = rng_.NextBounded(12);
    for (std::size_t i = 0; i < length; ++i) {
      const std::uint64_t pick = rng_.NextBounded(3);
      if (pick == 0) {
        out.push_back(static_cast<char>(rng_.NextBounded(0x20)));
      } else if (pick == 1) {
        out.push_back(kPieces[rng_.NextBounded(sizeof(kPieces) - 1)]);
      } else {
        out.push_back(static_cast<char>(0x20 + rng_.NextBounded(0x5f)));
      }
    }
    return out;
  }

  double Number() {
    switch (rng_.NextBounded(9)) {
      case 0: return std::numeric_limits<double>::quiet_NaN();
      case 1: return rng_.NextBounded(2) ? HUGE_VAL : -HUGE_VAL;
      case 2: return rng_.NextBounded(2) ? 0.0 : -0.0;
      case 3: return static_cast<double>(rng_.NextBounded(100000));
      case 4: return std::bit_cast<double>(rng_.NextU64());
      case 5: return static_cast<double>(rng_.NextBounded(4097)) / 4096.0;
      case 6: return 1.0 + rng_.NextDouble() * 1e-3;  // an R-hat
      default: return rng_.NextDouble() * 1000.0;     // an ESS or MCSE
    }
  }

  /// Counters, including ones past 2^53 that print in %g form.
  std::uint64_t Count() {
    return rng_.NextBounded(4) == 0 ? rng_.NextU64() : rng_.NextBounded(5000);
  }

  Status ErrorStatus() {
    const auto code = static_cast<StatusCode>(
        1 + rng_.NextBounded(static_cast<int>(StatusCode::kInternal)));
    return Status(code, Text());
  }

  /// Provided, provided-but-zero, or minted (not echoed).
  void QueryId(std::uint64_t& query_id, bool& provided) {
    provided = rng_.NextBounded(2) == 0;
    query_id = rng_.NextBounded(5) == 0 ? 0 : Count() + 1;
  }

  std::uint64_t Bounded(std::uint64_t bound) { return rng_.NextBounded(bound); }

 private:
  Rng rng_;
};

TEST(Protocol, StreamedSerializersMatchTreeOracles) {
  SerializerFuzz fuzz(20120401);
  for (int round = 0; round < 3000; ++round) {
    QueryRequest request;
    request.id = fuzz.Text();
    fuzz.QueryId(request.query_id, request.query_id_provided);
    request.kind = static_cast<QueryKind>(fuzz.Bounded(3));
    QueryResult result;
    if (fuzz.Bounded(4) == 0) result.status = fuzz.ErrorStatus();
    result.backend =
        fuzz.Bounded(2) ? QueryBackend::kAnalytic : QueryBackend::kBank;
    result.generation = fuzz.Count();
    result.model_epoch = fuzz.Count();
    result.total_rows = fuzz.Count();
    result.effective_rows = fuzz.Count();
    result.frontier_shared = fuzz.Bounded(2) == 0;
    const std::size_t sinks = fuzz.Bounded(6);  // 0: an empty estimate list
    for (std::size_t i = 0; i < sinks; ++i) {
      SinkEstimate est;
      est.sink = static_cast<NodeId>(fuzz.Bounded(100000));
      est.value = fuzz.Number();
      est.diagnostics.mcse = fuzz.Number();
      est.diagnostics.ess = fuzz.Number();
      est.diagnostics.rhat = fuzz.Number();
      result.estimates.push_back(est);
    }
    ASSERT_EQ(SerializeResult(request, result),
              oracle::Result(request, result));
    // The appending form writes the same bytes after what is already there.
    std::string appended = "prefix\n";
    SerializeResult(request, result, appended);
    ASSERT_EQ(appended, "prefix\n" + oracle::Result(request, result));

    const Status parse_status = fuzz.ErrorStatus();
    ASSERT_EQ(SerializeParseError(parse_status),
              oracle::ParseError(parse_status, JsonValue()));
    const JsonValue echoed(fuzz.Text());
    ASSERT_EQ(SerializeParseError(parse_status, echoed),
              oracle::ParseError(parse_status, echoed));

    IngestRequest ingest;
    ingest.id = fuzz.Text();
    const std::uint64_t absorbed = fuzz.Count();
    const std::uint64_t epoch = fuzz.Count();
    ASSERT_EQ(SerializeIngestAck(ingest, absorbed, epoch),
              oracle::IngestAck(ingest, absorbed, epoch));
    const Status ingest_status = fuzz.ErrorStatus();
    ASSERT_EQ(SerializeIngestError(ingest, ingest_status),
              oracle::IngestError(ingest, ingest_status));

    TopkRequest topk;
    topk.id = fuzz.Text();
    fuzz.QueryId(topk.query_id, topk.query_id_provided);
    seedmax::SeedMaxResult picked;
    const std::size_t k = fuzz.Bounded(5);
    for (std::size_t i = 0; i < k; ++i) {
      picked.picks.push_back({static_cast<NodeId>(fuzz.Bounded(100000)),
                              fuzz.Count(), fuzz.Number(), fuzz.Number()});
    }
    picked.spread = fuzz.Number();
    picked.mcse = fuzz.Number();
    picked.evaluations = fuzz.Count();
    picked.prune_hits = fuzz.Count();
    picked.generation = fuzz.Count();
    picked.model_epoch = fuzz.Count();
    picked.num_sketches = fuzz.Count();
    picked.universe = fuzz.Count();
    picked.total_rows = fuzz.Count();
    picked.effective_rows = fuzz.Count();
    ASSERT_EQ(SerializeTopkResult(topk, picked),
              oracle::TopkResult(topk, picked));
    const Status topk_status = fuzz.ErrorStatus();
    ASSERT_EQ(SerializeTopkError(topk, topk_status),
              oracle::TopkError(topk, topk_status));
  }
}

TEST(Protocol, TopkSerializersEchoIdAndProvenance) {
  TopkRequest request;
  request.id = "m1";
  request.query_id = 9;
  request.query_id_provided = true;
  seedmax::SeedMaxResult result;
  result.picks = {{4, 120, 3.5, 0.10}, {2, 60, 5.0, 0.12}};
  result.spread = 5.0;
  result.mcse = 0.12;
  result.evaluations = 7;
  result.prune_hits = 1;
  result.generation = 2;
  result.model_epoch = 1;
  result.num_sketches = 640;
  result.universe = 10;
  result.total_rows = 64;
  result.effective_rows = 64;

  auto line = ParseJson(SerializeTopkResult(request, result));
  ASSERT_TRUE(line.ok());
  EXPECT_EQ(line->Find("id")->AsString(), "m1");
  EXPECT_TRUE(line->Find("ok")->AsBool());
  EXPECT_EQ(line->Find("kind")->AsString(), "topk");
  EXPECT_DOUBLE_EQ(line->Find("query_id")->AsNumber(), 9.0);
  EXPECT_DOUBLE_EQ(line->Find("generation")->AsNumber(), 2.0);
  EXPECT_DOUBLE_EQ(line->Find("sketches")->AsNumber(), 640.0);
  EXPECT_DOUBLE_EQ(line->Find("universe")->AsNumber(), 10.0);
  EXPECT_DOUBLE_EQ(line->Find("prune_hits")->AsNumber(), 1.0);
  const auto& seeds = line->Find("seeds")->AsArray();
  ASSERT_EQ(seeds.size(), 2u);
  EXPECT_DOUBLE_EQ(seeds[0].Find("node")->AsNumber(), 4.0);
  EXPECT_DOUBLE_EQ(seeds[0].Find("marginal_coverage")->AsNumber(), 120.0);
  EXPECT_DOUBLE_EQ(seeds[1].Find("spread")->AsNumber(), 5.0);
  EXPECT_DOUBLE_EQ(line->Find("spread")->AsNumber(), 5.0);

  // A mint-stamped (not client-provided) id is never echoed.
  request.query_id_provided = false;
  auto unstamped = ParseJson(SerializeTopkResult(request, result));
  ASSERT_TRUE(unstamped.ok());
  EXPECT_EQ(unstamped->Find("query_id"), nullptr);

  request.query_id_provided = true;
  auto error = ParseJson(SerializeTopkError(
      request, Status::FailedPrecondition("below the conditional floor")));
  ASSERT_TRUE(error.ok());
  EXPECT_FALSE(error->Find("ok")->AsBool());
  EXPECT_EQ(error->Find("error")->Find("code")->AsString(),
            "failed-precondition");
  EXPECT_DOUBLE_EQ(error->Find("query_id")->AsNumber(), 9.0);
}

// ----------------------------------------------------------------- server

/// Runs one ServeFd conversation over pipes: writes `input`, closes, and
/// returns everything the server wrote back.
std::string RoundTrip(Server& server, const std::string& input) {
  int in_pipe[2];
  int out_pipe[2];
  EXPECT_EQ(pipe(in_pipe), 0);
  EXPECT_EQ(pipe(out_pipe), 0);
  EXPECT_EQ(write(in_pipe[1], input.data(), input.size()),
            static_cast<ssize_t>(input.size()));
  close(in_pipe[1]);
  const Status status = server.ServeFd(in_pipe[0], out_pipe[1]);
  EXPECT_TRUE(status.ok()) << status;
  close(in_pipe[0]);
  close(out_pipe[1]);
  std::string output;
  char chunk[4096];
  ssize_t got;
  while ((got = read(out_pipe[0], chunk, sizeof(chunk))) > 0) {
    output.append(chunk, static_cast<std::size_t>(got));
  }
  close(out_pipe[0]);
  return output;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = text.find('\n', start);
    if (end == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

Server MakeServer(const PointIcm& model, ServerOptions options = {}) {
  auto bank = SampleBank::Create(model, FastBank(300), 14);
  EXPECT_TRUE(bank.ok());
  auto server = Server::Create(std::move(bank).ValueOrDie(), options);
  EXPECT_TRUE(server.ok()) << server.status();
  return std::move(server).ValueOrDie();
}

/// 64 pipelined lines in one write, then a line split across two writes:
/// the reader hands back the same lines in the same order, whether it
/// blocks in read(2) or polls for an interrupt flag.
TEST(LineReader, PipelinedAndSplitLinesComeOutInOrder) {
  for (const bool with_interrupt : {false, true}) {
    SCOPED_TRACE(with_interrupt ? "interruptible" : "blocking");
    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    volatile std::sig_atomic_t flag = 0;
    LineReader reader(fds[0], with_interrupt ? &flag : nullptr);

    std::vector<std::string> sent;
    std::string batch;
    for (int i = 0; i < 64; ++i) {
      sent.push_back(R"({"id":"q)" + std::to_string(i) +
                     R"(","source":0,"sink":)" + std::to_string(i) + "}");
      batch += sent.back() + "\n";
    }
    const std::string split = R"({"id":"split","source":1,"sink":2})";
    batch += split.substr(0, 10);
    ASSERT_TRUE(WriteAll(fds[1], batch));

    std::vector<std::string> got;
    std::string line;
    ASSERT_TRUE(reader.NextLine(line));
    got.push_back(line);
    while (reader.TryNextLine(line)) got.push_back(line);
    EXPECT_EQ(got, sent);  // the half line is not delivered early

    ASSERT_TRUE(WriteAll(fds[1], split.substr(10) + "\nlast-no-newline"));
    close(fds[1]);
    ASSERT_TRUE(reader.NextLine(line));
    EXPECT_EQ(line, split);
    ASSERT_TRUE(reader.NextLine(line));
    EXPECT_EQ(line, "last-no-newline");  // an unterminated tail at EOF
    EXPECT_FALSE(reader.NextLine(line));
    EXPECT_FALSE(reader.TryNextLine(line));
    close(fds[0]);
  }
}

/// Lines up to kMaxLineBytes come through intact; a longer one — whether
/// its newline arrives or the stream ends first — pops once as an empty,
/// oversized() line.
TEST(LineReader, OverlongLinesPopOnceAsOversized) {
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  const std::string at_cap(kMaxLineBytes, 'a');
  std::thread writer([&, fd = fds[1]] {
    const std::string input = at_cap + "\n" +
                              std::string(kMaxLineBytes + 1, 'b') + "\nok\n" +
                              std::string(kMaxLineBytes + 70000, 'c');
    EXPECT_TRUE(WriteAll(fd, input));
    close(fd);
  });
  LineReader reader(fds[0]);
  std::string line;
  ASSERT_TRUE(reader.NextLine(line));
  EXPECT_FALSE(reader.oversized());
  EXPECT_EQ(line, at_cap);
  ASSERT_TRUE(reader.NextLine(line));
  EXPECT_TRUE(reader.oversized());
  EXPECT_TRUE(line.empty());
  ASSERT_TRUE(reader.NextLine(line));
  EXPECT_FALSE(reader.oversized());
  EXPECT_EQ(line, "ok");
  ASSERT_TRUE(reader.NextLine(line));  // the unterminated tail at EOF
  EXPECT_TRUE(reader.oversized());
  EXPECT_TRUE(line.empty());
  EXPECT_FALSE(reader.NextLine(line));
  writer.join();
  close(fds[0]);
}

/// A 2 MiB line with no newline in it, then a valid query: the long line
/// is dropped with one invalid-argument error (id null) and the query after
/// it is still answered.
TEST(Server, OversizedLineGetsOneErrorAndServingContinues) {
  const PointIcm model = SmallRandomModel(47, 10, 24);
  Server server = MakeServer(model);
  int in_pipe[2];
  int out_pipe[2];
  ASSERT_EQ(pipe(in_pipe), 0);
  ASSERT_EQ(pipe(out_pipe), 0);
  // The pipe holds far less than the long line, so a writer thread feeds
  // it while ServeFd reads.
  std::thread writer([fd = in_pipe[1]] {
    const std::string input = std::string(2 << 20, 'x') + "\n" +
                              R"({"id":"after","source":0,"sink":5})" + "\n";
    EXPECT_TRUE(WriteAll(fd, input));
    close(fd);
  });
  const std::uint64_t before =
      obs::GetCounter("serve.protocol.oversized_lines_total").Value();
  const Status status = server.ServeFd(in_pipe[0], out_pipe[1]);
  writer.join();
  ASSERT_TRUE(status.ok()) << status;
  close(in_pipe[0]);
  close(out_pipe[1]);
  std::string output;
  char chunk[4096];
  ssize_t got;
  while ((got = read(out_pipe[0], chunk, sizeof(chunk))) > 0) {
    output.append(chunk, static_cast<std::size_t>(got));
  }
  close(out_pipe[0]);

  const std::vector<std::string> lines = SplitLines(output);
  ASSERT_EQ(lines.size(), 2u) << output;
  auto error = ParseJson(lines[0]);
  ASSERT_TRUE(error.ok());
  EXPECT_FALSE(error->Find("ok")->AsBool());
  EXPECT_TRUE(error->Find("id")->is_null());
  EXPECT_EQ(error->Find("error")->Find("code")->AsString(), "invalid-argument");
  auto answer = ParseJson(lines[1]);
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(answer->Find("ok")->AsBool());
  EXPECT_EQ(answer->Find("id")->AsString(), "after");
  if constexpr (obs::MetricsEnabled()) {
    EXPECT_EQ(obs::GetCounter("serve.protocol.oversized_lines_total").Value(),
              before + 1);
  }
}

TEST(Server, ServesBatchesInOrderWithPerLineErrors) {
  const PointIcm model = SmallRandomModel(41, 10, 24);
  Server server = MakeServer(model);
  const std::string output = RoundTrip(
      server,
      "{\"id\":\"a\",\"source\":0,\"sink\":5}\n"
      "this is not json\n"
      "{\"id\":\"b\",\"sources\":[0,1],\"sinks\":[5,7]}\n");
  const std::vector<std::string> lines = SplitLines(output);
  ASSERT_EQ(lines.size(), 3u);

  auto first = ParseJson(lines[0]);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->Find("id")->AsString(), "a");
  EXPECT_TRUE(first->Find("ok")->AsBool());
  EXPECT_EQ(first->Find("generation")->AsNumber(), 1.0);

  auto second = ParseJson(lines[1]);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->Find("ok")->AsBool());
  EXPECT_TRUE(second->Find("id")->is_null());

  auto third = ParseJson(lines[2]);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->Find("id")->AsString(), "b");
  EXPECT_EQ(third->Find("estimates")->AsArray().size(), 2u);
}

TEST(Server, AnswersOverUnixSocket) {
  const PointIcm model = SmallRandomModel(43, 10, 24);
  ServerOptions options;
  options.socket_path = testing::TempDir() + "/infoflow_serve_test.sock";
  Server server = MakeServer(model, options);
  ASSERT_TRUE(server.Start().ok());

  const int client = socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(client, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(connect(client, reinterpret_cast<const sockaddr*>(&addr),
                    sizeof(addr)),
            0);
  const std::string request = "{\"id\":\"s1\",\"source\":0,\"sink\":5}\n";
  ASSERT_EQ(write(client, request.data(), request.size()),
            static_cast<ssize_t>(request.size()));
  shutdown(client, SHUT_WR);
  std::string output;
  char chunk[4096];
  ssize_t got;
  while ((got = read(client, chunk, sizeof(chunk))) > 0) {
    output.append(chunk, static_cast<std::size_t>(got));
  }
  close(client);
  server.Stop();

  auto response = ParseJson(SplitLines(output).at(0));
  ASSERT_TRUE(response.ok()) << output;
  EXPECT_EQ(response->Find("id")->AsString(), "s1");
  EXPECT_TRUE(response->Find("ok")->AsBool());
}

TEST(Server, BackgroundRefreshUnderConcurrentConnections) {
  // The refresh thread publishes new generations while several connections
  // answer batches; every answer names a live generation and the refresher
  // drains on Stop (this suite runs under TSan in CI).
  const PointIcm model = SmallRandomModel(43, 16, 40);
  ServerOptions options;
  options.refresh_interval_ms = 1.0;
  Server server = MakeServer(model, options);
  ASSERT_TRUE(server.Start().ok());
  std::vector<std::thread> clients;
  std::atomic<int> answered{0};
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&server, &answered] {
      for (int i = 0; i < 4; ++i) {
        const std::string output = RoundTrip(
            server,
            "{\"id\":\"x\",\"source\":0,\"sink\":5}\n"
            "{\"id\":\"y\",\"source\":1,\"sink\":7,\"given\":\"0>5\"}\n");
        const std::vector<std::string> lines = SplitLines(output);
        ASSERT_EQ(lines.size(), 2u);
        for (const std::string& line : lines) {
          auto parsed = ParseJson(line);
          ASSERT_TRUE(parsed.ok()) << line;
          ASSERT_GE(parsed->Find("generation")->AsNumber(), 1.0);
        }
        answered.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  // Hold the door open until at least one background refresh has landed
  // (the clients can outrun the first 1 ms tick on a fast machine).
  WallTimer waited;
  while (server.bank().Acquire()->id() == 1u && waited.Millis() < 5000.0) {
    std::this_thread::yield();
  }
  server.Stop();
  EXPECT_EQ(answered.load(), 12);
  EXPECT_GT(server.bank().Acquire()->id(), 1u);
}

TEST(Server, StopIsIdempotentAndLeavesServeFdAnswering) {
  const PointIcm model = SmallRandomModel(53, 12, 30);
  ServerOptions options;
  options.refresh_interval_ms = 0.5;
  options.socket_path = testing::TempDir() + "/infoflow_serve_stop.sock";
  Server server = MakeServer(model, options);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_FALSE(
      RoundTrip(server, "{\"id\":\"q\",\"source\":0,\"sink\":3}\n").empty());
  server.Stop();
  server.Stop();
  // Stop ends only the background work; the fd loop still answers.
  const std::string after =
      RoundTrip(server, "{\"id\":\"r\",\"source\":0,\"sink\":3}\n");
  auto parsed = ParseJson(SplitLines(after).at(0));
  ASSERT_TRUE(parsed.ok()) << after;
  EXPECT_TRUE(parsed->Find("ok")->AsBool());
}

TEST(Server, ParseErrorsEchoTheClientId) {
  // Once a line parses as a JSON object with a string "id", every parse
  // error (query, topk, ingest, admin) echoes that id; a line that is not
  // JSON, or carries no string id, answers with a null id.
  const PointIcm model = SmallRandomModel(45, 10, 24);
  Server server = MakeServer(model);
  const std::string output = RoundTrip(
      server,
      "{\"id\":\"f\",\"source\":-1,\"sink\":5}\n"
      "{\"id\":\"a\",\"source\":1e300,\"sink\":1}\n"
      "{\"id\":\"t\",\"topk\":1e300}\n"
      "{\"id\":\"i\",\"ingest\":7}\n"
      "{\"id\":\"s\",\"stats\":true,\"health\":true}\n"
      "{\"id\":7,\"source\":-1,\"sink\":5}\n"
      "{\"source\":-1,\"sink\":5}\n"
      "not json\n");
  const std::vector<std::string> lines = SplitLines(output);
  ASSERT_EQ(lines.size(), 8u);
  const char* expected_ids[] = {"f", "a", "t", "i", "s"};
  for (std::size_t k = 0; k < lines.size(); ++k) {
    SCOPED_TRACE(lines[k]);
    auto parsed = ParseJson(lines[k]);
    ASSERT_TRUE(parsed.ok());
    EXPECT_FALSE(parsed->Find("ok")->AsBool());
    EXPECT_EQ(parsed->Find("error")->Find("code")->AsString(),
              k + 1 < lines.size() ? "invalid-argument" : "parse-error");
    if (k < std::size(expected_ids)) {
      EXPECT_EQ(parsed->Find("id")->AsString(), expected_ids[k]);
    } else {
      EXPECT_TRUE(parsed->Find("id")->is_null());
    }
  }
}

TEST(Server, ValidatesOptions) {
  ServerOptions bad;
  bad.max_batch = 0;
  EXPECT_FALSE(bad.Validate().ok());
  ServerOptions negative;
  negative.refresh_interval_ms = -1.0;
  EXPECT_FALSE(negative.Validate().ok());
  EXPECT_TRUE(ServerOptions{}.Validate().ok());
}

TEST(Server, ValidatesObservabilityOptions) {
  ServerOptions stats_without_path;
  stats_without_path.stats_interval_ms = 100.0;
  EXPECT_FALSE(stats_without_path.Validate().ok());
  stats_without_path.stats_path = "/tmp/stats.json";
  EXPECT_TRUE(stats_without_path.Validate().ok());

  ServerOptions negative_stats;
  negative_stats.stats_interval_ms = -1.0;
  EXPECT_FALSE(negative_stats.Validate().ok());

  ServerOptions slow_without_path;
  slow_without_path.slow_query_ms = 5.0;
  EXPECT_FALSE(slow_without_path.Validate().ok());
  slow_without_path.slow_query_path = "/tmp/slow.ndjson";
  EXPECT_TRUE(slow_without_path.Validate().ok());

  ServerOptions negative_slow;
  negative_slow.slow_query_ms = -1.0;
  EXPECT_FALSE(negative_slow.Validate().ok());
}

TEST(Server, AdminStatsVerbAnswersInlineWithPrometheusText) {
  const PointIcm model = SmallRandomModel(47, 10, 24);
  // One line per batch: the admin verb must observe the query before it.
  ServerOptions options;
  options.max_batch = 1;
  Server server = MakeServer(model, options);
  const std::string output = RoundTrip(
      server,
      "{\"id\":\"q1\",\"source\":0,\"sink\":5}\n"
      "{\"id\":\"st\",\"stats\":true}\n");
  const std::vector<std::string> lines = SplitLines(output);
  ASSERT_EQ(lines.size(), 2u);

  auto stats = ParseJson(lines[1]);
  ASSERT_TRUE(stats.ok()) << lines[1];
  EXPECT_EQ(stats->Find("id")->AsString(), "st");
  EXPECT_TRUE(stats->Find("ok")->AsBool());
  const JsonValue* snapshot = stats->Find("stats");
  ASSERT_NE(snapshot, nullptr);
  EXPECT_NE(snapshot->Find("counters"), nullptr);
  EXPECT_NE(snapshot->Find("gauges"), nullptr);
  EXPECT_NE(snapshot->Find("histograms"), nullptr);

  const JsonValue* prometheus = stats->Find("prometheus");
  ASSERT_NE(prometheus, nullptr);
  const std::string exposition = prometheus->AsString();
  if (obs::MetricsEnabled()) {
    // The query answered above must already be visible in the scrape,
    // including the per-kind latency quantile gauges.
    EXPECT_NE(exposition.find("# TYPE"), std::string::npos);
    EXPECT_NE(exposition.find("serve_query_latency_ms_flow_p50"),
              std::string::npos);
    EXPECT_NE(exposition.find("serve_query_latency_ms_flow_p99"),
              std::string::npos);
    // Every non-comment line is `name[{labels}] value` with a finite value.
    for (const std::string& line : SplitLines(exposition)) {
      if (line.empty() || line[0] == '#') continue;
      const std::size_t space = line.rfind(' ');
      ASSERT_NE(space, std::string::npos) << line;
      char* end = nullptr;
      const double value = std::strtod(line.c_str() + space + 1, &end);
      EXPECT_EQ(*end, '\0') << line;
      EXPECT_TRUE(std::isfinite(value)) << line;
    }
  } else {
    EXPECT_EQ(exposition, "");
  }
}

TEST(Server, AdminHealthVerbReportsBankAndIngestState) {
  const PointIcm model = SmallRandomModel(48, 10, 24);
  Server server = MakeServer(model);
  const std::string output =
      RoundTrip(server, "{\"id\":\"he\",\"health\":true}\n");
  auto health_line = ParseJson(SplitLines(output).at(0));
  ASSERT_TRUE(health_line.ok()) << output;
  EXPECT_EQ(health_line->Find("id")->AsString(), "he");
  EXPECT_TRUE(health_line->Find("ok")->AsBool());
  const JsonValue* health = health_line->Find("health");
  ASSERT_NE(health, nullptr);
  EXPECT_EQ(health->Find("role")->AsString(), "server");
  EXPECT_GE(health->Find("generation")->AsNumber(), 1.0);
  EXPECT_GE(health->Find("generation_age_s")->AsNumber(), 0.0);
  EXPECT_GE(health->Find("model_epoch")->AsNumber(), 1.0);
  EXPECT_GT(health->Find("rows")->AsNumber(), 0.0);
  const JsonValue* ingest = health->Find("ingest");
  ASSERT_NE(ingest, nullptr);
  EXPECT_FALSE(ingest->Find("enabled")->AsBool());
}

TEST(Server, AdminTraceVerbsArmExportAndDisarm) {
  const PointIcm model = SmallRandomModel(49, 10, 24);
  // One line per batch so arm → query → export happen in sequence rather
  // than being folded into a single greedy batch.
  ServerOptions options;
  options.max_batch = 1;
  Server server = MakeServer(model, options);
  const std::string output = RoundTrip(
      server,
      "{\"id\":\"t1\",\"trace\":{\"enable\":true,\"events_per_thread\":64}}\n"
      "{\"id\":\"q1\",\"source\":0,\"sink\":5}\n"
      "{\"id\":\"t2\",\"trace\":{\"export\":true}}\n"
      "{\"id\":\"t3\",\"trace\":{\"enable\":false}}\n");
  const std::vector<std::string> lines = SplitLines(output);
  ASSERT_EQ(lines.size(), 4u);

  auto enabled = ParseJson(lines[0]);
  ASSERT_TRUE(enabled.ok());
  EXPECT_EQ(enabled->Find("trace")->AsString(), "enabled");

  auto exported = ParseJson(lines[2]);
  ASSERT_TRUE(exported.ok());
  const JsonValue* trace = exported->Find("trace");
  ASSERT_NE(trace, nullptr);
  const JsonValue* events = trace->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  if (obs::MetricsEnabled()) {
    // The query answered between arm and export left spans in the ring,
    // all tagged with the same server-minted query id.
    EXPECT_FALSE(events->AsArray().empty());
    bool saw_query_id = false;
    for (const JsonValue& event : events->AsArray()) {
      const JsonValue* args = event.Find("args");
      if (args != nullptr && args->Find("query_id") != nullptr) {
        saw_query_id = true;
        EXPECT_GE(args->Find("query_id")->AsNumber(), 1.0);
      }
    }
    EXPECT_TRUE(saw_query_id);
  } else {
    EXPECT_TRUE(events->AsArray().empty());
  }

  auto disabled = ParseJson(lines[3]);
  ASSERT_TRUE(disabled.ok());
  EXPECT_EQ(disabled->Find("trace")->AsString(), "disabled");
}

TEST(Server, EchoesQueryIdOnlyWhenTheClientSentOne) {
  const PointIcm model = SmallRandomModel(50, 10, 24);
  Server server = MakeServer(model);
  const std::string output = RoundTrip(
      server,
      "{\"id\":\"a\",\"source\":0,\"sink\":5,\"query_id\":77}\n"
      "{\"id\":\"b\",\"source\":0,\"sink\":5}\n");
  const std::vector<std::string> lines = SplitLines(output);
  ASSERT_EQ(lines.size(), 2u);

  auto with_id = ParseJson(lines[0]);
  ASSERT_TRUE(with_id.ok());
  ASSERT_NE(with_id->Find("query_id"), nullptr);
  EXPECT_EQ(with_id->Find("query_id")->AsNumber(), 77.0);

  // Server-minted ids are internal (trace + slow log only): echoing them
  // would make responses depend on process-global mint state and break
  // byte-identical replays.
  auto without_id = ParseJson(lines[1]);
  ASSERT_TRUE(without_id.ok());
  EXPECT_TRUE(without_id->Find("ok")->AsBool());
  EXPECT_EQ(without_id->Find("query_id"), nullptr);
}

TEST(Server, TopkVerbMatchesDirectSelectionOverTheSameBank) {
  const PointIcm model = SmallRandomModel(53, 12, 30);
  Server server = MakeServer(model);
  const std::string output = RoundTrip(
      server,
      "{\"id\":\"m1\",\"topk\":2,\"query_id\":31}\n"
      "{\"id\":\"m2\",\"topk\":2,\"community\":[3,4,5]}\n"
      "{\"id\":\"bad\",\"topk\":0}\n");
  const std::vector<std::string> lines = SplitLines(output);
  ASSERT_EQ(lines.size(), 3u);

  auto m1 = ParseJson(lines[0]);
  ASSERT_TRUE(m1.ok());
  EXPECT_EQ(m1->Find("id")->AsString(), "m1");
  EXPECT_TRUE(m1->Find("ok")->AsBool());
  EXPECT_EQ(m1->Find("kind")->AsString(), "topk");
  EXPECT_DOUBLE_EQ(m1->Find("query_id")->AsNumber(), 31.0);
  const auto& picks = m1->Find("seeds")->AsArray();
  ASSERT_EQ(picks.size(), 2u);

  // The served answer must match a direct selection over the same bank
  // generation exactly — same seeds, same spread estimate.
  auto generation = server.bank().Acquire();
  auto sketches = server.rr_index()->Acquire(generation);
  ASSERT_TRUE(sketches.ok()) << sketches.status();
  seedmax::SeedMaxOptions options;
  options.num_seeds = 2;
  auto direct = seedmax::SelectSeeds(**sketches, options);
  ASSERT_TRUE(direct.ok()) << direct.status();
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_DOUBLE_EQ(picks[i].Find("node")->AsNumber(),
                     static_cast<double>(direct->picks[i].node));
    EXPECT_DOUBLE_EQ(picks[i].Find("spread")->AsNumber(),
                     direct->picks[i].spread);
  }
  EXPECT_DOUBLE_EQ(m1->Find("spread")->AsNumber(), direct->spread);
  EXPECT_DOUBLE_EQ(m1->Find("sketches")->AsNumber(),
                   static_cast<double>(direct->num_sketches));

  // Community-constrained request: universe shrinks to the community.
  auto m2 = ParseJson(lines[1]);
  ASSERT_TRUE(m2.ok());
  EXPECT_TRUE(m2->Find("ok")->AsBool());
  EXPECT_DOUBLE_EQ(m2->Find("universe")->AsNumber(), 3.0);
  EXPECT_LE(m2->Find("spread")->AsNumber(), 3.0 + 1e-12);

  // Malformed k: rejected on the parse path, echoing the client's id.
  auto bad = ParseJson(lines[2]);
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad->Find("ok")->AsBool());
  EXPECT_EQ(bad->Find("id")->AsString(), "bad");
  EXPECT_EQ(bad->Find("error")->Find("code")->AsString(),
            "invalid-argument");
}

TEST(Server, SlowQueryLogAppendsStructuredRecords) {
  const PointIcm model = SmallRandomModel(51, 10, 24);
  const std::string log_path =
      testing::TempDir() + "/infoflow_slow_query_test.ndjson";
  std::remove(log_path.c_str());
  ServerOptions options;
  options.slow_query_ms = 1e-6;  // Every query qualifies as slow.
  options.slow_query_path = log_path;
  Server server = MakeServer(model, options);
  const std::string output = RoundTrip(
      server,
      "{\"id\":\"a\",\"source\":0,\"sink\":5,\"query_id\":123}\n"
      "{\"id\":\"b\",\"sources\":[0,1],\"sinks\":[5,7]}\n");
  ASSERT_EQ(SplitLines(output).size(), 2u);

  std::ifstream log(log_path);
  ASSERT_TRUE(log.good()) << log_path;
  std::vector<std::string> records;
  std::string line;
  while (std::getline(log, line)) records.push_back(line);
  ASSERT_EQ(records.size(), 2u);

  auto first = ParseJson(records[0]);
  ASSERT_TRUE(first.ok()) << records[0];
  EXPECT_EQ(first->Find("id")->AsString(), "a");
  EXPECT_EQ(first->Find("query_id")->AsNumber(), 123.0);
  EXPECT_EQ(first->Find("kind")->AsString(), "flow");
  EXPECT_TRUE(first->Find("ok")->AsBool());
  EXPECT_GE(first->Find("latency_ms")->AsNumber(), 0.0);
  EXPECT_GE(first->Find("ts_ms")->AsNumber(), 1.0);
  EXPECT_GE(first->Find("generation")->AsNumber(), 1.0);
  EXPECT_GE(first->Find("model_epoch")->AsNumber(), 1.0);
  EXPECT_GT(first->Find("total_rows")->AsNumber(), 0.0);
  EXPECT_GT(first->Find("effective_rows")->AsNumber(), 0.0);
  ASSERT_NE(first->Find("rhat_max"), nullptr);

  // The second request arrived without a query_id: the mint stamps one,
  // and the slow log records it even though the response does not.
  auto second = ParseJson(records[1]);
  ASSERT_TRUE(second.ok()) << records[1];
  EXPECT_EQ(second->Find("id")->AsString(), "b");
  EXPECT_GE(second->Find("query_id")->AsNumber(), 1.0);

  std::remove(log_path.c_str());
}

TEST(Server, StopWritesTheStatsSnapshot) {
  const PointIcm model = SmallRandomModel(52, 10, 24);
  const std::string stats_path =
      testing::TempDir() + "/infoflow_stats_test.json";
  std::remove(stats_path.c_str());
  ServerOptions options;
  options.stats_path = stats_path;
  Server server = MakeServer(model, options);
  ASSERT_TRUE(server.Start().ok());
  server.Stop();

  std::ifstream stats_file(stats_path);
  ASSERT_TRUE(stats_file.good()) << stats_path;
  std::string contents((std::istreambuf_iterator<char>(stats_file)),
                       std::istreambuf_iterator<char>());
  auto snapshot = ParseJson(contents);
  ASSERT_TRUE(snapshot.ok()) << contents;
  EXPECT_NE(snapshot->Find("counters"), nullptr);
  EXPECT_NE(snapshot->Find("gauges"), nullptr);
  EXPECT_NE(snapshot->Find("histograms"), nullptr);
  std::remove(stats_path.c_str());
}

}  // namespace
}  // namespace infoflow::serve
