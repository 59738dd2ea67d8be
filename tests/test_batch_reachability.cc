#include "graph/batch_reachability.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "graph/bit_transpose.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/reachability.h"
#include "stats/rng.h"

namespace infoflow {
namespace {

// 0 -> 1 -> 2 -> 3, plus 0 -> 3 shortcut and a cycle 3 -> 1 (the same
// fixture test_reachability.cc uses for the scalar workspace).
DirectedGraph Chain() {
  GraphBuilder b(4);
  b.AddEdge(0, 1).CheckOK();
  b.AddEdge(1, 2).CheckOK();
  b.AddEdge(2, 3).CheckOK();
  b.AddEdge(0, 3).CheckOK();
  b.AddEdge(3, 1).CheckOK();
  return std::move(b).Build();
}

TEST(BitTranspose, MatchesNaiveTransposeOnRandomMatrices) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::uint64_t m[64];
    std::uint64_t ref[64];
    for (auto& w : m) w = rng.NextU64();
    for (int i = 0; i < 64; ++i) ref[i] = m[i];
    Transpose64x64(m);
    for (int i = 0; i < 64; ++i) {
      for (int j = 0; j < 64; ++j) {
        ASSERT_EQ((m[j] >> i) & 1, (ref[i] >> j) & 1)
            << "trial " << trial << " element (" << i << ", " << j << ")";
      }
    }
    // Involution: transposing twice restores the input.
    Transpose64x64(m);
    for (int i = 0; i < 64; ++i) ASSERT_EQ(m[i], ref[i]);
  }
}

// Fills edge-major words (bit s of word e = edge e active in sample s) and
// the matching per-sample scalar activity vectors.
struct SampledBlock {
  std::vector<std::uint64_t> edge_words;
  // active[s][e] = edge e's activity in sample s.
  std::vector<std::vector<std::uint8_t>> active;
};

SampledBlock RandomBlock(const DirectedGraph& g, Rng& rng, double density) {
  SampledBlock block;
  block.edge_words.assign(g.num_edges(), 0);
  block.active.assign(64, std::vector<std::uint8_t>(g.num_edges(), 0));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    for (std::size_t s = 0; s < 64; ++s) {
      if (rng.Bernoulli(density)) {
        block.edge_words[e] |= std::uint64_t{1} << s;
        block.active[s][e] = 1;
      }
    }
  }
  return block;
}

TEST(BatchReachability, MatchesSixtyFourScalarRunsBitForBit) {
  Rng rng(11);
  for (int trial = 0; trial < 8; ++trial) {
    const DirectedGraph g = UniformRandomGraph(30, 90, rng);
    const SampledBlock block = RandomBlock(g, rng, 0.25);
    BatchReachabilityWorkspace batch(g);
    ReachabilityWorkspace scalar(g);
    const std::vector<NodeId> sources{static_cast<NodeId>(trial % 30)};
    batch.Run(g, sources, block.edge_words.data());
    for (std::size_t s = 0; s < 64; ++s) {
      scalar.Run(g, sources, block.active[s]);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        ASSERT_EQ((batch.ReachedMask(v) >> s) & 1,
                  scalar.IsReached(v) ? 1u : 0u)
            << "trial " << trial << " sample " << s << " node " << v;
      }
    }
  }
}

TEST(BatchReachability, MultiSourceMatchesScalar) {
  Rng rng(13);
  const DirectedGraph g = UniformRandomGraph(25, 70, rng);
  const SampledBlock block = RandomBlock(g, rng, 0.3);
  BatchReachabilityWorkspace batch(g);
  ReachabilityWorkspace scalar(g);
  const std::vector<NodeId> sources{3, 17, 24};
  batch.Run(g, sources, block.edge_words.data());
  for (std::size_t s = 0; s < 64; ++s) {
    scalar.Run(g, sources, block.active[s]);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ((batch.ReachedMask(v) >> s) & 1,
                scalar.IsReached(v) ? 1u : 0u);
    }
  }
}

TEST(BatchReachability, LaneMaskConfinesPropagation) {
  Rng rng(17);
  const DirectedGraph g = UniformRandomGraph(20, 60, rng);
  const SampledBlock block = RandomBlock(g, rng, 0.4);
  const std::uint64_t lane_mask = 0x00FF00FF00FF00FFULL;
  BatchReachabilityWorkspace batch(g);
  ReachabilityWorkspace scalar(g);
  batch.Run(g, {0}, block.edge_words.data(), lane_mask);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    // Dead lanes stay dead everywhere.
    EXPECT_EQ(batch.ReachedMask(v) & ~lane_mask, 0u);
  }
  for (std::size_t s = 0; s < 64; ++s) {
    if (((lane_mask >> s) & 1) == 0) continue;
    scalar.Run(g, {0}, block.active[s]);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ((batch.ReachedMask(v) >> s) & 1,
                scalar.IsReached(v) ? 1u : 0u);
    }
  }
}

TEST(BatchReachability, RunUntilMatchesFullRunOnTarget) {
  Rng rng(19);
  for (int trial = 0; trial < 8; ++trial) {
    const DirectedGraph g = UniformRandomGraph(30, 80, rng);
    const SampledBlock block = RandomBlock(g, rng, 0.2);
    const NodeId target = static_cast<NodeId>((trial * 7 + 1) % 30);
    BatchReachabilityWorkspace full(g);
    BatchReachabilityWorkspace early(g);
    full.Run(g, {0}, block.edge_words.data());
    const std::uint64_t hits =
        early.RunUntil(g, {0}, block.edge_words.data(), target);
    EXPECT_EQ(hits, full.ReachedMask(target)) << "trial " << trial;
  }
}

TEST(BatchReachability, RunUntilSaturatesImmediatelyWhenTargetIsSource) {
  const DirectedGraph g = Chain();
  std::vector<std::uint64_t> none(g.num_edges(), 0);
  BatchReachabilityWorkspace ws(g);
  const std::uint64_t lane_mask = 0x5555555555555555ULL;
  EXPECT_EQ(ws.RunUntil(g, {2}, none.data(), 2, lane_mask), lane_mask);
  // The skipped run must not leak worklist state into the next one.
  std::vector<std::uint64_t> all(g.num_edges(), ~std::uint64_t{0});
  EXPECT_EQ(ws.RunUntil(g, {0}, all.data(), 3), ~std::uint64_t{0});
}

TEST(BatchReachability, NoStateLeaksBetweenReusedRuns) {
  const DirectedGraph g = Chain();
  std::vector<std::uint64_t> all(g.num_edges(), ~std::uint64_t{0});
  std::vector<std::uint64_t> none(g.num_edges(), 0);
  BatchReachabilityWorkspace ws(g);
  // Alternate saturating and empty runs on one workspace: the empty run
  // must never see the previous run's masks (the workspace re-zeroes its
  // touched set instead of stamping, so any missed node would leak a stale
  // "reached in all 64 samples" here).
  for (int i = 0; i < 8; ++i) {
    ws.Run(g, {0}, all.data());
    ASSERT_EQ(ws.ReachedMask(3), ~std::uint64_t{0});
    ASSERT_EQ(ws.TouchedNodes().size(), 4u);
    ws.Run(g, {2}, none.data());
    EXPECT_EQ(ws.ReachedMask(2), ~std::uint64_t{0});
    EXPECT_EQ(ws.ReachedMask(3), 0u);
    EXPECT_EQ(ws.ReachedMask(0), 0u);
    ASSERT_EQ(ws.TouchedNodes().size(), 1u);
    // Early-exit runs must also reset cleanly.
    ws.RunUntil(g, {0}, all.data(), 0);
    EXPECT_EQ(ws.ReachedMask(0), ~std::uint64_t{0});
    ws.Run(g, {1}, none.data());
    EXPECT_EQ(ws.ReachedMask(3), 0u);
  }
}

TEST(BatchReachability, IncrementalMatchesOneShotRun) {
  Rng rng(31);
  for (int trial = 0; trial < 8; ++trial) {
    const DirectedGraph g = UniformRandomGraph(30, 90, rng);
    const SampledBlock block = RandomBlock(g, rng, 0.25);
    const std::vector<NodeId> sources{static_cast<NodeId>(trial % 30),
                                      static_cast<NodeId>((trial * 7) % 30)};
    BatchReachabilityWorkspace oneshot(g);
    oneshot.Run(g, sources, block.edge_words.data());
    BatchReachabilityWorkspace inc(g);
    inc.Begin(g);
    for (const NodeId s : sources) inc.Seed(s, ~std::uint64_t{0});
    inc.Propagate(block.edge_words.data());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(inc.ReachedMask(v), oneshot.ReachedMask(v))
          << "trial " << trial << " node " << v;
    }
    ASSERT_EQ(inc.TouchedNodes(), oneshot.TouchedNodes()) << "trial " << trial;
  }
}

TEST(BatchReachability, InterleavedSeedsReachTheJointFixpoint) {
  // Seeding in several rounds with a Propagate between each (the
  // incremental API seedmax/rr_index.cc builds its sketches with) must
  // land on the same fixpoint as one Run with all seeds, including when
  // later seeds only add lanes a node already partially holds.
  Rng rng(37);
  for (int trial = 0; trial < 8; ++trial) {
    const DirectedGraph g = UniformRandomGraph(30, 90, rng);
    const SampledBlock block = RandomBlock(g, rng, 0.25);
    const NodeId a = static_cast<NodeId>(trial % 30);
    const NodeId b = static_cast<NodeId>((trial * 11 + 3) % 30);
    BatchReachabilityWorkspace oneshot(g);
    oneshot.Run(g, {a, b}, block.edge_words.data());
    BatchReachabilityWorkspace inc(g);
    inc.Begin(g);
    inc.Seed(a, 0x00000000FFFFFFFFull);
    inc.Propagate(block.edge_words.data());
    inc.Seed(b, ~std::uint64_t{0});
    inc.Propagate(block.edge_words.data());
    inc.Seed(a, ~std::uint64_t{0});  // upgrade the first seed's lanes
    inc.Propagate(block.edge_words.data());
    // Re-seeding lanes a node already holds is a no-op.
    inc.Seed(b, 0xFF);
    inc.Propagate(block.edge_words.data());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(inc.ReachedMask(v), oneshot.ReachedMask(v))
          << "trial " << trial << " node " << v;
    }
    ASSERT_EQ(inc.TouchedNodes(), oneshot.TouchedNodes()) << "trial " << trial;
  }
}

TEST(BatchReachability, BeginResetsAnAbandonedSeedSequence) {
  const DirectedGraph g = Chain();
  std::vector<std::uint64_t> none(g.num_edges(), 0);
  BatchReachabilityWorkspace ws(g);
  // Seed without propagating, then start over: the abandoned seeds must not
  // leak into the next run's masks or frontier.
  ws.Begin(g);
  ws.Seed(0, ~std::uint64_t{0});
  ws.Seed(3, ~std::uint64_t{0});
  ws.Propagate(none.data());
  ws.Begin(g);
  ws.Seed(2, 0b1);
  ws.Propagate(none.data());
  EXPECT_EQ(ws.ReachedMask(0), 0u);
  EXPECT_EQ(ws.ReachedMask(3), 0u);
  EXPECT_EQ(ws.ReachedMask(2), 0b1u);
  ASSERT_EQ(ws.TouchedNodes().size(), 1u);
  // A normal Run after incremental use starts clean too.
  std::vector<std::uint64_t> all(g.num_edges(), ~std::uint64_t{0});
  ws.Run(g, {1}, all.data());
  EXPECT_EQ(ws.ReachedMask(3), ~std::uint64_t{0});
  EXPECT_EQ(ws.ReachedMask(0), 0u);
}

TEST(BatchReachability, AccumulateReachedCountsTalliesSpreadPerLane) {
  const DirectedGraph g = Chain();
  // Lane 0: no edges. Lane 1: 0->1 only. Lane 2: 0->1, 1->2, 2->3.
  std::vector<std::uint64_t> words(g.num_edges(), 0);
  words[g.FindEdge(0, 1)] = 0b110;
  words[g.FindEdge(1, 2)] = 0b100;
  words[g.FindEdge(2, 3)] = 0b100;
  BatchReachabilityWorkspace ws(g);
  ws.Run(g, {0}, words.data(), 0b111);
  std::uint32_t counts[64] = {};
  ws.AccumulateReachedCounts(counts);
  EXPECT_EQ(counts[0], 1u);  // source only
  EXPECT_EQ(counts[1], 2u);  // {0, 1}
  EXPECT_EQ(counts[2], 4u);  // {0, 1, 2, 3}
  EXPECT_EQ(counts[3], 0u);  // dead lane
}

TEST(BatchReachability, TouchedNodesCoverExactlyTheReachedSet) {
  Rng rng(23);
  const DirectedGraph g = UniformRandomGraph(40, 100, rng);
  const SampledBlock block = RandomBlock(g, rng, 0.15);
  BatchReachabilityWorkspace ws(g);
  ws.Run(g, {5}, block.edge_words.data());
  std::vector<bool> touched(g.num_nodes(), false);
  for (NodeId v : ws.TouchedNodes()) {
    EXPECT_NE(ws.ReachedMask(v), 0u);
    touched[v] = true;
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!touched[v]) {
      EXPECT_EQ(ws.ReachedMask(v), 0u);
    }
  }
}

}  // namespace
}  // namespace infoflow
