/// Tests for the seed-selection subsystem: the reversed-graph view's edge
/// permutation, RR sketch accounting (ragged tails, community targets,
/// Eq. 7–8 conditioning), the CELF selector against exhaustive greedy on
/// the same sketches, the differential check against Monte-Carlo CELF via
/// exact-enumeration spread, and the RrIndex publish discipline under
/// concurrent readers.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/exact_flow.h"
#include "core/influence_max.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "seedmax/rr_index.h"
#include "seedmax/seed_selector.h"
#include "serve/sample_bank.h"

namespace infoflow::seedmax {
namespace {

std::shared_ptr<const DirectedGraph> Share(DirectedGraph g) {
  return std::make_shared<const DirectedGraph>(std::move(g));
}

PointIcm SmallRandomModel(std::uint64_t seed, NodeId nodes, EdgeId edges) {
  Rng rng(seed);
  auto g = Share(UniformRandomGraph(nodes, edges, rng));
  std::vector<double> probs(g->num_edges());
  for (double& p : probs) p = rng.Uniform(0.2, 0.8);
  return PointIcm(g, probs);
}

serve::BankOptions FastBank(std::size_t states, std::size_t chains = 4,
                            std::size_t thinning = 4) {
  serve::BankOptions options;
  options.num_states = states;
  options.chain.num_chains = chains;
  options.chain.mh.burn_in = 1200;
  options.chain.mh.thinning = thinning;
  return options;
}

serve::SampleBank MakeBank(const PointIcm& model, std::size_t states,
                           std::uint64_t seed = 21, std::size_t chains = 4,
                           std::size_t thinning = 4) {
  auto bank = serve::SampleBank::Create(
      model, FastBank(states, chains, thinning), seed);
  EXPECT_TRUE(bank.ok()) << bank.status();
  return std::move(bank).ValueOrDie();
}

/// Exact expected spread Σ_x Pr[x | M] · |reach(S; x)| by enumeration over
/// all 2^m pseudo-states — the definitional ground truth the RR-sketch
/// estimate universe · covered / R is unbiased for. Requires m <= 20.
double ExactSpreadByEnumeration(const PointIcm& model,
                                const std::vector<NodeId>& seeds) {
  const DirectedGraph& graph = model.graph();
  const EdgeId m = graph.num_edges();
  EXPECT_LE(m, 20u);
  double spread = 0.0;
  std::vector<NodeId> stack;
  std::vector<bool> reached(graph.num_nodes());
  for (std::uint64_t x = 0; x < (std::uint64_t{1} << m); ++x) {
    double pr = 1.0;
    for (EdgeId e = 0; e < m; ++e) {
      pr *= (x >> e) & 1 ? model.prob(e) : 1.0 - model.prob(e);
    }
    std::fill(reached.begin(), reached.end(), false);
    stack.assign(seeds.begin(), seeds.end());
    std::size_t count = 0;
    for (NodeId s : seeds) reached[s] = true;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      ++count;
      for (EdgeId e : graph.OutEdges(u)) {
        const NodeId v = graph.edge(e).dst;
        if (((x >> e) & 1) && !reached[v]) {
          reached[v] = true;
          stack.push_back(v);
        }
      }
    }
    spread += pr * static_cast<double>(count);
  }
  return spread;
}

/// Plain greedy max-coverage over the sketch set — recomputes every
/// candidate's gain each round (no laziness, no pruning). The CELF
/// selector must pick the identical seeds.
std::vector<NodeId> ExhaustiveGreedy(const RrSketchSet& sketches,
                                     std::size_t k) {
  std::vector<std::uint64_t> covered(sketches.num_groups(), 0);
  std::vector<bool> taken(sketches.num_nodes(), false);
  std::vector<NodeId> seeds;
  for (std::size_t round = 0; round < k; ++round) {
    NodeId best = 0;
    std::uint64_t best_gain = 0;
    bool found = false;
    for (NodeId u = 0; u < sketches.num_nodes(); ++u) {
      if (taken[u]) continue;
      std::uint64_t gain = 0;
      for (const RrPosting& p : sketches.Postings(u)) {
        gain += static_cast<std::uint64_t>(
            std::popcount(p.lanes & ~covered[p.group]));
      }
      // Same deterministic tie-break as SelectSeeds: smaller node id.
      if (!found || gain > best_gain) {
        best = u;
        best_gain = gain;
        found = true;
      }
    }
    taken[best] = true;
    for (const RrPosting& p : sketches.Postings(best)) {
      covered[p.group] |= p.lanes;
    }
    seeds.push_back(best);
  }
  return seeds;
}

// ------------------------------------------------------ ReversedGraphView

TEST(ReversedGraphView, TransposesEdgesAndMapsIdsBack) {
  GraphBuilder b(4);
  b.AddEdge(0, 1).CheckOK();
  b.AddEdge(0, 2).CheckOK();
  b.AddEdge(1, 3).CheckOK();
  b.AddEdge(2, 3).CheckOK();
  auto g = Share(std::move(b).Build());
  const ReversedGraphView view = ReversedGraphView::Build(g);

  ASSERT_EQ(view.reversed().num_edges(), g->num_edges());
  ASSERT_EQ(view.reversed().num_nodes(), g->num_nodes());
  for (EdgeId re = 0; re < view.reversed().num_edges(); ++re) {
    const Edge& rev = view.reversed().edge(re);
    const Edge& fwd = g->edge(view.ParentEdge(re));
    EXPECT_EQ(rev.src, fwd.dst);
    EXPECT_EQ(rev.dst, fwd.src);
  }
}

TEST(ReversedGraphView, GatherStripAppliesTheEdgePermutation) {
  const PointIcm model = SmallRandomModel(11, 12, 30);
  const ReversedGraphView view = ReversedGraphView::Build(model.graph_ptr());
  const EdgeId m = model.graph().num_edges();
  for (const unsigned width : {1u, 4u, 8u}) {
    // Every word distinct, so a misplaced edge or word shows.
    std::vector<std::uint64_t> parent_strip(std::size_t{m} * width);
    for (std::size_t i = 0; i < parent_strip.size(); ++i) {
      parent_strip[i] = 0x1111u * (i + 1);
    }
    std::vector<std::uint64_t> reversed_strip(parent_strip.size());
    view.GatherStrip(parent_strip.data(), width, reversed_strip.data());
    for (EdgeId re = 0; re < m; ++re) {
      for (unsigned w = 0; w < width; ++w) {
        EXPECT_EQ(reversed_strip[std::size_t{re} * width + w],
                  parent_strip[std::size_t{view.ParentEdge(re)} * width + w])
            << "width " << width << " edge " << re << " word " << w;
      }
    }
  }
}

// ------------------------------------------------------------- RrSketchSet

TEST(RrSketchSet, UnconditionedAccountingAndLaneHygiene) {
  const PointIcm model = SmallRandomModel(5, 12, 30);
  serve::SampleBank bank = MakeBank(model, 256);
  const auto generation = bank.Acquire();
  const ReversedGraphView view = ReversedGraphView::Build(bank.graph_ptr());
  auto sketches = RrSketchSet::Build(view, *generation);
  ASSERT_TRUE(sketches.ok()) << sketches.status();

  const std::size_t n = model.graph().num_nodes();
  EXPECT_EQ(sketches->generation(), generation->id());
  EXPECT_EQ(sketches->model_epoch(), generation->model_epoch());
  EXPECT_EQ(sketches->universe(), n);
  EXPECT_EQ(sketches->total_rows(), generation->num_rows());
  EXPECT_EQ(sketches->effective_rows(), generation->num_rows());
  EXPECT_FALSE(sketches->conditioned());
  EXPECT_EQ(sketches->num_sketches(),
            static_cast<std::uint64_t>(generation->num_rows()) * n);
  EXPECT_EQ(sketches->num_groups(), n * generation->num_blocks());

  // Every posting's lanes stay inside its block's surviving-lane mask, and
  // every node covers its own target's sketches in *every* lane (u reaches
  // u in all pseudo-states).
  const std::size_t blocks = generation->num_blocks();
  for (NodeId u = 0; u < n; ++u) {
    std::uint64_t own_sketches = 0;
    for (const RrPosting& p : sketches->Postings(u)) {
      const std::size_t block = p.group % blocks;
      EXPECT_EQ(p.lanes & ~generation->BlockLaneMask(block), 0u);
      EXPECT_NE(p.lanes, 0u);
      if (p.group / blocks == u) {
        own_sketches +=
            static_cast<std::uint64_t>(std::popcount(p.lanes));
      }
    }
    EXPECT_EQ(own_sketches, generation->num_rows())
        << "node " << u << " must cover its own target in every row";
  }
}

TEST(RrSketchSet, RaggedTailRowsAreMaskedNotPadded) {
  const PointIcm model = SmallRandomModel(9, 10, 18);
  // 500 states over 3 chains → 501 rows: seven full 64-lane blocks plus a
  // 53-lane tail whose dead lanes must never appear in a posting.
  serve::SampleBank bank = MakeBank(model, 500, /*seed=*/3, /*chains=*/3,
                                    /*thinning=*/16);
  const auto generation = bank.Acquire();
  ASSERT_EQ(generation->num_rows(), 501u);
  ASSERT_EQ(generation->num_blocks(), 8u);
  ASSERT_EQ(generation->BlockLaneMask(7),
            (std::uint64_t{1} << (501 - 448)) - 1);

  const ReversedGraphView view = ReversedGraphView::Build(bank.graph_ptr());
  auto sketches = RrSketchSet::Build(view, *generation);
  ASSERT_TRUE(sketches.ok()) << sketches.status();
  const std::size_t n = model.graph().num_nodes();
  EXPECT_EQ(sketches->num_sketches(), 501u * n);
  std::uint64_t covered_by_all = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (const RrPosting& p : sketches->Postings(u)) {
      const std::size_t block = p.group % generation->num_blocks();
      EXPECT_EQ(p.lanes & ~generation->BlockLaneMask(block), 0u)
          << "posting for node " << u << " leaks dead tail lanes";
      covered_by_all += static_cast<std::uint64_t>(std::popcount(p.lanes));
    }
  }
  EXPECT_GT(covered_by_all, 0u);

  // The estimate over a ragged bank is still calibrated: a single-seed
  // spread matches per-target exact enumeration within 3 MCSE.
  SeedMaxOptions options;
  options.num_seeds = 1;
  auto result = SelectSeeds(*sketches, options);
  ASSERT_TRUE(result.ok()) << result.status();
  const double exact =
      ExactSpreadByEnumeration(model, {result->picks[0].node});
  EXPECT_NEAR(result->spread, exact, 3.0 * result->mcse + 1e-9);
}

TEST(RrSketchSet, SingleSeedSpreadMatchesEq5PerTargetEnumeration) {
  const PointIcm model = SmallRandomModel(17, 9, 18);
  serve::SampleBank bank = MakeBank(model, 2048);
  const auto generation = bank.Acquire();
  const ReversedGraphView view = ReversedGraphView::Build(bank.graph_ptr());
  auto sketches = RrSketchSet::Build(view, *generation);
  ASSERT_TRUE(sketches.ok()) << sketches.status();

  SeedMaxOptions options;
  options.num_seeds = 1;
  auto result = SelectSeeds(*sketches, options);
  ASSERT_TRUE(result.ok()) << result.status();
  const NodeId seed = result->picks[0].node;

  // Spread of {s} decomposes into per-target Eq. 5 flow probabilities.
  double exact = 0.0;
  for (NodeId t = 0; t < model.graph().num_nodes(); ++t) {
    exact += t == seed ? 1.0 : ExactFlowByEnumeration(model, seed, t);
  }
  EXPECT_NEAR(result->spread, exact, 3.0 * result->mcse);
  EXPECT_GT(result->mcse, 0.0);
}

TEST(RrSketchSet, CommunityTargetsRestrictTheUniverse) {
  const PointIcm model = SmallRandomModel(23, 12, 30);
  serve::SampleBank bank = MakeBank(model, 512);
  const auto generation = bank.Acquire();
  const ReversedGraphView view = ReversedGraphView::Build(bank.graph_ptr());

  RrBuildOptions build;
  build.targets = {3, 7, 9};
  auto sketches = RrSketchSet::Build(view, *generation, build);
  ASSERT_TRUE(sketches.ok()) << sketches.status();
  EXPECT_EQ(sketches->universe(), 3u);
  EXPECT_EQ(sketches->num_sketches(), generation->num_rows() * 3u);
  EXPECT_EQ(sketches->num_groups(), 3u * generation->num_blocks());

  // Spread into a 3-node community is bounded by the community size.
  SeedMaxOptions options;
  options.num_seeds = 2;
  auto result = SelectSeeds(*sketches, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_LE(result->spread, 3.0 + 1e-12);
  EXPECT_GT(result->spread, 0.0);

  RrBuildOptions duplicate;
  duplicate.targets = {3, 3};
  EXPECT_EQ(RrSketchSet::Build(view, *generation, duplicate).status().code(),
            StatusCode::kInvalidArgument);
  RrBuildOptions out_of_range;
  out_of_range.targets = {99};
  EXPECT_EQ(
      RrSketchSet::Build(view, *generation, out_of_range).status().code(),
      StatusCode::kOutOfRange);
}

TEST(RrSketchSet, ConditioningNarrowsLanesAndMatchesEq7) {
  const PointIcm model = SmallRandomModel(29, 9, 18);
  serve::SampleBank bank = MakeBank(model, 4096);
  const auto generation = bank.Acquire();
  const ReversedGraphView view = ReversedGraphView::Build(bank.graph_ptr());

  // Condition on flow along an existing edge — satisfiable by
  // construction, but strict enough to kill some rows.
  const Edge& edge = model.graph().edge(0);
  RrBuildOptions build;
  build.given = {{edge.src, edge.dst, true}};
  auto sketches = RrSketchSet::Build(view, *generation, build);
  ASSERT_TRUE(sketches.ok()) << sketches.status();
  EXPECT_TRUE(sketches->conditioned());
  EXPECT_LT(sketches->effective_rows(), sketches->total_rows());
  EXPECT_GE(sketches->effective_rows(), 32u);
  EXPECT_EQ(sketches->num_sketches(),
            sketches->effective_rows() * model.graph().num_nodes());

  // Conditional single-seed spread decomposes into Eq. 7 per-target
  // conditionals.
  SeedMaxOptions options;
  options.num_seeds = 1;
  auto result = SelectSeeds(*sketches, options);
  ASSERT_TRUE(result.ok()) << result.status();
  const NodeId seed = result->picks[0].node;
  double exact = 0.0;
  for (NodeId t = 0; t < model.graph().num_nodes(); ++t) {
    if (t == seed) {
      exact += 1.0;
      continue;
    }
    auto conditional =
        ExactConditionalFlowByEnumeration(model, seed, t, build.given);
    ASSERT_TRUE(conditional.ok()) << conditional.status();
    exact += *conditional;
  }
  EXPECT_NEAR(result->spread, exact, 3.0 * result->mcse);
}

TEST(RrSketchSet, ConditionalFloorRejectsDegenerateBuilds) {
  // Diamond sink 3 has no outgoing edges, so "3 ⤳ 0" holds in no
  // pseudo-state: zero survivors must trip the conditional-rows floor.
  GraphBuilder b(4);
  b.AddEdge(0, 1).CheckOK();
  b.AddEdge(0, 2).CheckOK();
  b.AddEdge(1, 3).CheckOK();
  b.AddEdge(2, 3).CheckOK();
  const PointIcm model = PointIcm::Constant(Share(std::move(b).Build()), 0.5);
  serve::SampleBank bank = MakeBank(model, 128);
  const auto generation = bank.Acquire();
  const ReversedGraphView view = ReversedGraphView::Build(bank.graph_ptr());
  RrBuildOptions build;
  build.given = {{3, 0, true}};
  EXPECT_EQ(RrSketchSet::Build(view, *generation, build).status().code(),
            StatusCode::kFailedPrecondition);
}

// ------------------------------------------------------------ SeedSelector

TEST(SeedSelector, MatchesExhaustiveGreedyOnTheSameSketches) {
  const PointIcm model = SmallRandomModel(31, 24, 70);
  serve::SampleBank bank = MakeBank(model, 512);
  const auto generation = bank.Acquire();
  const ReversedGraphView view = ReversedGraphView::Build(bank.graph_ptr());
  auto sketches = RrSketchSet::Build(view, *generation);
  ASSERT_TRUE(sketches.ok()) << sketches.status();

  SeedMaxOptions options;
  options.num_seeds = 5;
  auto celf = SelectSeeds(*sketches, options);
  ASSERT_TRUE(celf.ok()) << celf.status();
  EXPECT_EQ(celf->seeds(), ExhaustiveGreedy(*sketches, 5));
  // Laziness must have saved work relative to plain greedy's k·n gains.
  EXPECT_LT(celf->evaluations, 5u * model.graph().num_nodes());
  // Selection is deterministic.
  auto again = SelectSeeds(*sketches, options);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->seeds(), celf->seeds());
  EXPECT_EQ(again->spread, celf->spread);
}

TEST(SeedSelector, MatchesMonteCarloCelfWithinThreeMcse) {
  // The ISSUE's differential acceptance check: the bank-sketch seed set's
  // *exact-enumeration* spread must sit within 3 MCSE of the Monte-Carlo
  // CELF seed set's exact spread (both are (1 − 1/e) greedy solutions of
  // the same objective; only their estimators differ).
  const PointIcm model = SmallRandomModel(37, 10, 20);
  serve::SampleBank bank = MakeBank(model, 4096);
  const auto generation = bank.Acquire();
  const ReversedGraphView view = ReversedGraphView::Build(bank.graph_ptr());
  auto sketches = RrSketchSet::Build(view, *generation);
  ASSERT_TRUE(sketches.ok()) << sketches.status();

  SeedMaxOptions options;
  options.num_seeds = 2;
  auto banked = SelectSeeds(*sketches, options);
  ASSERT_TRUE(banked.ok()) << banked.status();

  InfluenceMaxOptions mc_options;
  mc_options.num_seeds = 2;
  mc_options.simulations = 2000;
  Rng rng(99);
  auto monte_carlo = MaximizeInfluence(model, mc_options, rng);
  ASSERT_TRUE(monte_carlo.ok()) << monte_carlo.status();

  const double exact_banked = ExactSpreadByEnumeration(model, banked->seeds());
  const double exact_mc = ExactSpreadByEnumeration(model, monte_carlo->seeds);
  EXPECT_NEAR(exact_banked, exact_mc, 3.0 * banked->mcse)
      << "bank seeds " << banked->seeds()[0] << "," << banked->seeds()[1]
      << " vs mc seeds " << monte_carlo->seeds[0] << ","
      << monte_carlo->seeds[1];
  // And the sketch estimate itself is calibrated against its own seeds.
  EXPECT_NEAR(banked->spread, exact_banked, 3.0 * banked->mcse);
}

TEST(SeedSelector, ValidatesAndDeduplicatesCandidates) {
  const PointIcm model = SmallRandomModel(41, 10, 24);
  serve::SampleBank bank = MakeBank(model, 128);
  const auto generation = bank.Acquire();
  const ReversedGraphView view = ReversedGraphView::Build(bank.graph_ptr());
  auto sketches = RrSketchSet::Build(view, *generation);
  ASSERT_TRUE(sketches.ok()) << sketches.status();

  SeedMaxOptions options;
  options.num_seeds = 2;
  options.candidates = {4, 4, 2, 4, 2};
  auto result = SelectSeeds(*sketches, options);
  ASSERT_TRUE(result.ok()) << result.status();
  std::vector<NodeId> sorted = result->seeds();
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<NodeId>{2, 4}));

  options.num_seeds = 3;  // only 2 distinct candidates
  EXPECT_EQ(SelectSeeds(*sketches, options).status().code(),
            StatusCode::kInvalidArgument);
  options.num_seeds = 1;
  options.candidates = {99};
  EXPECT_EQ(SelectSeeds(*sketches, options).status().code(),
            StatusCode::kOutOfRange);
  options.candidates.clear();
  options.num_seeds = 0;
  EXPECT_EQ(SelectSeeds(*sketches, options).status().code(),
            StatusCode::kInvalidArgument);
}

// ----------------------------------------------------------------- RrIndex

TEST(RrIndex, CachesPerGenerationAndPrimeIsLazyUntilFirstUse) {
  const PointIcm model = SmallRandomModel(43, 10, 24);
  serve::SampleBank bank = MakeBank(model, 128);
  RrIndex index(bank.graph_ptr());
  const obs::Counter& builds =
      obs::GetCounter("seedmax.sketch.builds_total");
  const std::uint64_t builds_before = builds.Value();

  // Prime before any Acquire is a no-op: a daemon that never serves top-k
  // must not pay sketch builds on refresh.
  index.Prime(bank.Acquire());
  if constexpr (obs::MetricsEnabled()) {
    EXPECT_EQ(builds.Value(), builds_before);
  }

  auto first = index.Acquire(bank.Acquire());
  ASSERT_TRUE(first.ok()) << first.status();
  auto second = index.Acquire(bank.Acquire());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // cached, not rebuilt
  if constexpr (obs::MetricsEnabled()) {
    EXPECT_EQ(builds.Value(), builds_before + 1);
  }

  // After first use, Prime eagerly re-inverts a freshly published
  // generation, and Acquire then hits the warm cache.
  bank.Refresh();
  const auto generation = bank.Acquire();
  EXPECT_EQ(generation->id(), 2u);
  index.Prime(generation);
  if constexpr (obs::MetricsEnabled()) {
    EXPECT_EQ(builds.Value(), builds_before + 2);
  }
  auto primed = index.Acquire(generation);
  ASSERT_TRUE(primed.ok());
  EXPECT_EQ((*primed)->generation(), 2u);
  if constexpr (obs::MetricsEnabled()) {
    EXPECT_EQ(builds.Value(), builds_before + 2);  // served from cache
  }
}

TEST(RrIndex, RepublishUnderConcurrentTopkReaders) {
  // TSan coverage for the RCU discipline: readers keep acquiring and
  // selecting over whatever set is current while refreshes re-prime the
  // index. Readers holding an old set are never invalidated.
  const PointIcm model = SmallRandomModel(47, 12, 30);
  serve::SampleBank bank = MakeBank(model, 128, /*seed=*/8, /*chains=*/2);
  RrIndex index(bank.graph_ptr());
  ASSERT_TRUE(index.Acquire(bank.Acquire()).ok());

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> selections{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto generation = bank.Acquire();
        auto sketches = index.Acquire(generation);
        ASSERT_TRUE(sketches.ok()) << sketches.status();
        SeedMaxOptions options;
        options.num_seeds = 2;
        auto result = SelectSeeds(**sketches, options);
        ASSERT_TRUE(result.ok()) << result.status();
        ASSERT_EQ(result->picks.size(), 2u);
        ASSERT_GE(result->spread, 0.0);
        ASSERT_EQ(result->generation, (*sketches)->generation());
        selections.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int i = 0; i < 8; ++i) {
    bank.Refresh();
    index.Prime(bank.Acquire());
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(selections.load(), 0u);
  auto final_set = index.Acquire(bank.Acquire());
  ASSERT_TRUE(final_set.ok());
  EXPECT_EQ((*final_set)->generation(), 9u);
}

// ------------------------------------------- parallel + incremental builds

/// Full structural equality of two sketch sets: same accounting, and the
/// same postings (group, lanes) in the same order at every node.
void ExpectSketchSetsIdentical(const RrSketchSet& a, const RrSketchSet& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.universe(), b.universe());
  EXPECT_EQ(a.num_sketches(), b.num_sketches());
  EXPECT_EQ(a.num_groups(), b.num_groups());
  EXPECT_EQ(a.effective_rows(), b.effective_rows());
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    const auto pa = a.Postings(u);
    const auto pb = b.Postings(u);
    ASSERT_EQ(pa.size(), pb.size()) << "node " << u;
    for (std::size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].group, pb[i].group) << "node " << u << " posting " << i;
      EXPECT_EQ(pa[i].lanes, pb[i].lanes) << "node " << u << " posting " << i;
    }
  }
}

TEST(RrSketchSet, ParallelBuildIsBitIdenticalToSerial) {
  const PointIcm model = SmallRandomModel(61, 14, 36);
  serve::SampleBank bank = MakeBank(model, 300, /*seed=*/62);
  const auto generation = bank.Acquire();
  const ReversedGraphView view = ReversedGraphView::Build(bank.graph_ptr());

  auto serial = RrSketchSet::Build(view, *generation);
  ASSERT_TRUE(serial.ok()) << serial.status();

  ThreadPool pool(3);
  RrBuildOptions parallel_options;
  parallel_options.pool = &pool;
  auto parallel = RrSketchSet::Build(view, *generation, parallel_options);
  ASSERT_TRUE(parallel.ok()) << parallel.status();
  ExpectSketchSetsIdentical(*serial, *parallel);

  // Conditioned builds parallelize over the same block partition; the
  // narrowed lane masks must survive the merge identically.
  RrBuildOptions conditioned;
  conditioned.given = {{model.graph().edge(0).src,
                        model.graph().edge(0).dst, true}};
  conditioned.min_conditional_rows = 1;
  auto cond_serial = RrSketchSet::Build(view, *generation, conditioned);
  ASSERT_TRUE(cond_serial.ok()) << cond_serial.status();
  conditioned.pool = &pool;
  auto cond_parallel = RrSketchSet::Build(view, *generation, conditioned);
  ASSERT_TRUE(cond_parallel.ok()) << cond_parallel.status();
  ExpectSketchSetsIdentical(*cond_serial, *cond_parallel);
}

TEST(RrSketchSet, ReusedBlocksReconstructTheExactPostings) {
  // Same generation as both diff base and build input: every block's edge
  // plane matches, so the entire set must come out of the counting-sort
  // lift — and be bit-identical to the scratch build it replaces.
  const PointIcm model = SmallRandomModel(63, 12, 30);
  serve::SampleBank bank = MakeBank(model, 256, /*seed=*/64);
  const auto generation = bank.Acquire();
  const ReversedGraphView view = ReversedGraphView::Build(bank.graph_ptr());

  auto scratch = RrSketchSet::Build(view, *generation);
  ASSERT_TRUE(scratch.ok()) << scratch.status();

  const obs::Counter& reused =
      obs::GetCounter("seedmax.sketch.blocks_reused_total");
  const std::uint64_t reused_before = reused.Value();
  RrBuildOptions incremental;
  incremental.previous = &*scratch;
  incremental.previous_rows = generation.get();
  auto lifted = RrSketchSet::Build(view, *generation, incremental);
  ASSERT_TRUE(lifted.ok()) << lifted.status();
  ExpectSketchSetsIdentical(*scratch, *lifted);
  if constexpr (obs::MetricsEnabled()) {
    const std::size_t num_blocks = (generation->num_rows() + 63) / 64;
    EXPECT_EQ(reused.Value(), reused_before + num_blocks);
  }
}

TEST(RrIndex, AcquireAfterRefreshIsBitIdenticalToScratchBuild) {
  // The end-to-end incremental path: the index diffs the new generation
  // against the one it last inverted and lifts unchanged blocks. Whatever
  // fraction is reused, the published set must equal a scratch build.
  const PointIcm model = SmallRandomModel(65, 12, 30);
  serve::SampleBank bank = MakeBank(model, 256, /*seed=*/66);
  RrIndex index(bank.graph_ptr(), /*num_threads=*/2);
  ASSERT_TRUE(index.Acquire(bank.Acquire()).ok());

  bank.Refresh();
  const auto generation = bank.Acquire();
  auto incremental = index.Acquire(generation);
  ASSERT_TRUE(incremental.ok()) << incremental.status();
  const ReversedGraphView view = ReversedGraphView::Build(bank.graph_ptr());
  auto scratch = RrSketchSet::Build(view, *generation);
  ASSERT_TRUE(scratch.ok()) << scratch.status();
  ExpectSketchSetsIdentical(*scratch, **incremental);
}

}  // namespace
}  // namespace infoflow::seedmax
