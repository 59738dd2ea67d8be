#include "graph/strip_reachability.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "graph/bit_transpose.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/reachability.h"
#include "graph/strip_plane.h"
#include "stats/rng.h"

namespace infoflow {
namespace {

// Same fixture as the scalar suite (test_reachability.cc): 0 -> 1 -> 2 -> 3
// with a 0 -> 3 shortcut and a cycle 3 -> 1.
DirectedGraph Chain() {
  GraphBuilder b(4);
  b.AddEdge(0, 1).CheckOK();
  b.AddEdge(1, 2).CheckOK();
  b.AddEdge(2, 3).CheckOK();
  b.AddEdge(0, 3).CheckOK();
  b.AddEdge(3, 1).CheckOK();
  return std::move(b).Build();
}

// W independent 64-sample blocks plus their strip-major interleave, the
// per-word lane masks, and per-sample scalar activity vectors — everything
// the differential assertions need in one place. `rows` may leave the tail
// block ragged (rows % 64 != 0) or drop trailing blocks entirely
// (rows % (64*W) != 0), mirroring a bank whose row count doesn't fill the
// strip.
struct SampledStrip {
  std::vector<std::vector<std::uint64_t>> block_words;  // [w][e]
  std::vector<std::uint64_t> strip_words;               // [e*W + w]
  std::vector<std::uint64_t> lane_mask;                 // [w]
  // active[w][s][e] = edge e's activity in sample s of block w.
  std::vector<std::vector<std::vector<std::uint8_t>>> active;
};

SampledStrip RandomStrip(const DirectedGraph& g, Rng& rng, double density,
                         unsigned width, std::size_t rows) {
  SampledStrip strip;
  strip.block_words.assign(width,
                           std::vector<std::uint64_t>(g.num_edges(), 0));
  strip.strip_words.assign(std::size_t{g.num_edges()} * width, 0);
  strip.lane_mask.assign(width, 0);
  strip.active.assign(
      width, std::vector<std::vector<std::uint8_t>>(
                 64, std::vector<std::uint8_t>(g.num_edges(), 0)));
  for (unsigned w = 0; w < width; ++w) {
    const std::size_t first_row = std::size_t{w} * 64;
    const std::size_t block_rows =
        rows > first_row ? std::min<std::size_t>(64, rows - first_row) : 0;
    strip.lane_mask[w] = block_rows >= 64 ? ~std::uint64_t{0}
                         : block_rows == 0
                             ? 0
                             : (std::uint64_t{1} << block_rows) - 1;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      for (std::size_t s = 0; s < 64; ++s) {
        if (rng.Bernoulli(density)) {
          strip.block_words[w][e] |= std::uint64_t{1} << s;
          strip.active[w][s][e] = 1;
        }
      }
      strip.strip_words[std::size_t{e} * width + w] = strip.block_words[w][e];
    }
  }
  return strip;
}

// Pins every word of `wide` against the scalar reference: each live lane
// must match one scalar BFS over that sample, and dead lanes stay zero.
template <unsigned W>
void ExpectMatchesScalar(const DirectedGraph& g, const SampledStrip& strip,
                         const std::vector<NodeId>& sources,
                         const StripReachabilityWorkspace<W>& wide,
                         const char* label) {
  ReachabilityWorkspace scalar(g);
  for (unsigned w = 0; w < W; ++w) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(wide.ReachedMask(v)[w] & ~strip.lane_mask[w], 0u)
          << label << " word " << w << " node " << v;
    }
    for (std::size_t s = 0; s < 64; ++s) {
      if (((strip.lane_mask[w] >> s) & 1) == 0) continue;
      scalar.Run(g, sources, strip.active[w][s]);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        ASSERT_EQ((wide.ReachedMask(v)[w] >> s) & 1,
                  scalar.IsReached(v) ? 1u : 0u)
            << label << " word " << w << " sample " << s << " node " << v;
      }
    }
  }
}

// W copies of a 64-lane mask, one per strip word.
template <unsigned W>
std::array<std::uint64_t, W> Lanes(std::uint64_t mask) {
  std::array<std::uint64_t, W> lanes;
  lanes.fill(mask);
  return lanes;
}

template <unsigned W>
void CheckRunUntilMatchesFullRunOnTarget(std::uint64_t seed) {
  Rng rng(seed);
  for (int trial = 0; trial < 6; ++trial) {
    const DirectedGraph g = UniformRandomGraph(30, 80, rng);
    const SampledStrip strip = RandomStrip(g, rng, 0.2, W, 64 * W);
    const NodeId target = static_cast<NodeId>((trial * 7 + 1) % 30);
    StripReachabilityWorkspace<W> full(g);
    StripReachabilityWorkspace<W> early(g);
    full.Run(g, {0}, strip.strip_words.data(), strip.lane_mask.data());
    std::array<std::uint64_t, W> hits = {};
    early.RunUntil(g, {0}, strip.strip_words.data(), target,
                   strip.lane_mask.data(), hits.data());
    for (unsigned w = 0; w < W; ++w) {
      EXPECT_EQ(hits[w], full.ReachedMask(target)[w])
          << "trial " << trial << " word " << w;
    }
  }
}

template <unsigned W>
void CheckRunUntilSaturatesWhenTargetIsSource() {
  const DirectedGraph g = Chain();
  std::vector<std::uint64_t> none(std::size_t{g.num_edges()} * W, 0);
  StripReachabilityWorkspace<W> ws(g);
  constexpr std::uint64_t kPattern[4] = {0x5555555555555555ULL, 0,
                                         ~std::uint64_t{0}, 0x1};
  std::array<std::uint64_t, W> lanes;
  for (unsigned w = 0; w < W; ++w) lanes[w] = kPattern[w % 4];
  std::array<std::uint64_t, W> hits = {};
  ws.RunUntil(g, {2}, none.data(), 2, lanes.data(), hits.data());
  for (unsigned w = 0; w < W; ++w) EXPECT_EQ(hits[w], lanes[w]);
  // The skipped run must not leak worklist state into the next one.
  std::vector<std::uint64_t> all(std::size_t{g.num_edges()} * W,
                                 ~std::uint64_t{0});
  const auto full_mask = Lanes<W>(~std::uint64_t{0});
  ws.RunUntil(g, {0}, all.data(), 3, full_mask.data(), hits.data());
  for (unsigned w = 0; w < W; ++w) EXPECT_EQ(hits[w], ~std::uint64_t{0});
}

template <unsigned W>
void CheckNoStateLeaksBetweenReusedRuns() {
  const DirectedGraph g = Chain();
  std::vector<std::uint64_t> all(std::size_t{g.num_edges()} * W,
                                 ~std::uint64_t{0});
  std::vector<std::uint64_t> none(std::size_t{g.num_edges()} * W, 0);
  const auto full_mask = Lanes<W>(~std::uint64_t{0});
  StripReachabilityWorkspace<W> ws(g);
  // Alternate saturating and empty runs on one workspace: the empty run
  // must never see the previous run's masks (the workspace re-zeroes its
  // touched set instead of stamping, so any missed node would leak a stale
  // "reached in every sample" here).
  for (int i = 0; i < 8; ++i) {
    ws.Run(g, {0}, all.data(), full_mask.data());
    for (unsigned w = 0; w < W; ++w) {
      ASSERT_EQ(ws.ReachedMask(3)[w], ~std::uint64_t{0});
    }
    ASSERT_EQ(ws.TouchedNodes().size(), 4u);
    ws.Run(g, {2}, none.data(), full_mask.data());
    for (unsigned w = 0; w < W; ++w) {
      EXPECT_EQ(ws.ReachedMask(2)[w], ~std::uint64_t{0});
      EXPECT_EQ(ws.ReachedMask(3)[w], 0u);
      EXPECT_EQ(ws.ReachedMask(0)[w], 0u);
    }
    ASSERT_EQ(ws.TouchedNodes().size(), 1u);
    // Early-exit runs must also reset cleanly.
    std::array<std::uint64_t, W> hits = {};
    ws.RunUntil(g, {0}, all.data(), 0, full_mask.data(), hits.data());
    EXPECT_EQ(ws.ReachedMask(0)[0], ~std::uint64_t{0});
    ws.Run(g, {1}, none.data(), full_mask.data());
    EXPECT_EQ(ws.ReachedMask(3)[0], 0u);
  }
}

// Seeding in several rounds with a Propagate between each (the incremental
// API seedmax/rr_index.cc builds its sketches with) must land on the same
// fixpoint as one Run with all seeds, including when later seeds only add
// lanes a node already partially holds.
template <unsigned W>
void CheckInterleavedSeedsReachTheJointFixpoint(std::uint64_t seed) {
  Rng rng(seed);
  for (int trial = 0; trial < 6; ++trial) {
    const DirectedGraph g = UniformRandomGraph(30, 90, rng);
    const SampledStrip strip = RandomStrip(g, rng, 0.25, W, 64 * W);
    const NodeId a = static_cast<NodeId>(trial % 30);
    const NodeId b = static_cast<NodeId>((trial * 11 + 3) % 30);
    StripReachabilityWorkspace<W> oneshot(g);
    oneshot.Run(g, {a, b}, strip.strip_words.data(), strip.lane_mask.data());
    StripReachabilityWorkspace<W> inc(g);
    inc.Begin(g);
    std::array<std::uint64_t, W> partial = {};
    for (unsigned w = 0; w < W; w += 2) {
      partial[w] = strip.lane_mask[w] & 0x00000000FFFFFFFFULL;
    }
    inc.Seed(a, partial.data());
    inc.Propagate(strip.strip_words.data());
    inc.Seed(b, strip.lane_mask.data());
    inc.Propagate(strip.strip_words.data());
    inc.Seed(a, strip.lane_mask.data());  // upgrade the first seed's lanes
    inc.Propagate(strip.strip_words.data());
    // Re-seeding lanes a node already holds is a no-op.
    std::array<std::uint64_t, W> held = {};
    held[0] = 0xFF & strip.lane_mask[0];
    inc.Seed(b, held.data());
    inc.Propagate(strip.strip_words.data());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      for (unsigned w = 0; w < W; ++w) {
        ASSERT_EQ(inc.ReachedMask(v)[w], oneshot.ReachedMask(v)[w])
            << "trial " << trial << " node " << v << " word " << w;
      }
    }
    ASSERT_EQ(inc.TouchedNodes(), oneshot.TouchedNodes()) << "trial " << trial;
  }
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

// The BatchReachability cases pin the one-word (64-lane) strip, the width
// every 64-lane replay in the library runs.

TEST(BatchReachability, MatchesSixtyFourScalarRunsBitForBit) {
  Rng rng(11);
  for (int trial = 0; trial < 8; ++trial) {
    const DirectedGraph g = UniformRandomGraph(30, 90, rng);
    const SampledStrip strip = RandomStrip(g, rng, 0.25, 1, 64);
    const std::vector<NodeId> sources{static_cast<NodeId>(trial % 30)};
    StripReachabilityWorkspace<1> ws(g);
    ws.Run(g, sources, strip.strip_words.data(), strip.lane_mask.data());
    ExpectMatchesScalar(g, strip, sources, ws, "W=1");
  }
}

TEST(BatchReachability, MultiSourceMatchesScalar) {
  Rng rng(13);
  const DirectedGraph g = UniformRandomGraph(25, 70, rng);
  const SampledStrip strip = RandomStrip(g, rng, 0.3, 1, 64);
  const std::vector<NodeId> sources{3, 17, 24};
  StripReachabilityWorkspace<1> ws(g);
  ws.Run(g, sources, strip.strip_words.data(), strip.lane_mask.data());
  ExpectMatchesScalar(g, strip, sources, ws, "multi-source");
}

TEST(BatchReachability, LaneMaskConfinesPropagation) {
  Rng rng(17);
  const DirectedGraph g = UniformRandomGraph(20, 60, rng);
  SampledStrip strip = RandomStrip(g, rng, 0.4, 1, 64);
  strip.lane_mask[0] = 0x00FF00FF00FF00FFULL;
  StripReachabilityWorkspace<1> ws(g);
  ws.Run(g, {0}, strip.strip_words.data(), strip.lane_mask.data());
  // Dead lanes stay dead everywhere; live ones match the scalar runs.
  ExpectMatchesScalar(g, strip, {0}, ws, "lane mask");
}

TEST(BatchReachability, RunUntilMatchesFullRunOnTarget) {
  CheckRunUntilMatchesFullRunOnTarget<1>(19);
}

TEST(BatchReachability, RunUntilSaturatesImmediatelyWhenTargetIsSource) {
  CheckRunUntilSaturatesWhenTargetIsSource<1>();
}

TEST(BatchReachability, NoStateLeaksBetweenReusedRuns) {
  CheckNoStateLeaksBetweenReusedRuns<1>();
}

TEST(BatchReachability, IncrementalMatchesOneShotRun) {
  Rng rng(31);
  for (int trial = 0; trial < 8; ++trial) {
    const DirectedGraph g = UniformRandomGraph(30, 90, rng);
    const SampledStrip strip = RandomStrip(g, rng, 0.25, 1, 64);
    const std::vector<NodeId> sources{static_cast<NodeId>(trial % 30),
                                      static_cast<NodeId>((trial * 7) % 30)};
    StripReachabilityWorkspace<1> oneshot(g);
    oneshot.Run(g, sources, strip.strip_words.data(), strip.lane_mask.data());
    StripReachabilityWorkspace<1> inc(g);
    inc.Begin(g);
    for (const NodeId s : sources) inc.Seed(s, strip.lane_mask.data());
    inc.Propagate(strip.strip_words.data());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(inc.ReachedMask(v)[0], oneshot.ReachedMask(v)[0])
          << "trial " << trial << " node " << v;
    }
    ASSERT_EQ(inc.TouchedNodes(), oneshot.TouchedNodes()) << "trial " << trial;
  }
}

TEST(BatchReachability, InterleavedSeedsReachTheJointFixpoint) {
  CheckInterleavedSeedsReachTheJointFixpoint<1>(37);
}

TEST(BatchReachability, BeginResetsAnAbandonedSeedSequence) {
  const DirectedGraph g = Chain();
  std::vector<std::uint64_t> none(g.num_edges(), 0);
  const std::uint64_t all_lanes = ~std::uint64_t{0};
  const std::uint64_t lane0 = 0b1;
  StripReachabilityWorkspace<1> ws(g);
  // Seed without propagating, then start over: the abandoned seeds must not
  // leak into the next run's masks or frontier.
  ws.Begin(g);
  ws.Seed(0, &all_lanes);
  ws.Seed(3, &all_lanes);
  ws.Propagate(none.data());
  ws.Begin(g);
  ws.Seed(2, &lane0);
  ws.Propagate(none.data());
  EXPECT_EQ(ws.ReachedMask(0)[0], 0u);
  EXPECT_EQ(ws.ReachedMask(3)[0], 0u);
  EXPECT_EQ(ws.ReachedMask(2)[0], 0b1u);
  ASSERT_EQ(ws.TouchedNodes().size(), 1u);
  // A normal Run after incremental use starts clean too.
  std::vector<std::uint64_t> all(g.num_edges(), ~std::uint64_t{0});
  ws.Run(g, {1}, all.data(), &all_lanes);
  EXPECT_EQ(ws.ReachedMask(3)[0], ~std::uint64_t{0});
  EXPECT_EQ(ws.ReachedMask(0)[0], 0u);
}

TEST(BatchReachability, AccumulateReachedCountsTalliesSpreadPerLane) {
  const DirectedGraph g = Chain();
  // Lane 0: no edges. Lane 1: 0->1 only. Lane 2: 0->1, 1->2, 2->3.
  std::vector<std::uint64_t> words(g.num_edges(), 0);
  words[g.FindEdge(0, 1)] = 0b110;
  words[g.FindEdge(1, 2)] = 0b100;
  words[g.FindEdge(2, 3)] = 0b100;
  const std::uint64_t lanes = 0b111;
  StripReachabilityWorkspace<1> ws(g);
  ws.Run(g, {0}, words.data(), &lanes);
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
  const SampledStrip strip = RandomStrip(g, rng, 0.15, 1, 64);
  StripReachabilityWorkspace<1> ws(g);
  ws.Run(g, {5}, strip.strip_words.data(), strip.lane_mask.data());
  std::vector<bool> touched(g.num_nodes(), false);
  for (NodeId v : ws.TouchedNodes()) {
    EXPECT_NE(ws.ReachedMask(v)[0], 0u);
    touched[v] = true;
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!touched[v]) {
      EXPECT_EQ(ws.ReachedMask(v)[0], 0u);
    }
  }
}

TEST(StripPlane, InterleavesBlockPlanesWithRaggedTail) {
  Rng rng(41);
  const DirectedGraph g = UniformRandomGraph(12, 30, rng);
  // 5 blocks over width-4 strips → 2 strips, second ragged (1 live block).
  std::vector<std::vector<std::uint64_t>> blocks(5);
  for (auto& b : blocks) {
    b.resize(g.num_edges());
    for (auto& word : b) word = rng.NextU64();
  }
  const StripPlane plane = BuildStripPlane(
      4, g.num_edges(), blocks.size(),
      [&](std::size_t b) { return blocks[b].data(); },
      [&](std::size_t b) { return b == 4 ? 0xFFu : ~std::uint64_t{0}; });
  ASSERT_EQ(plane.num_strips, 2u);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    const std::size_t s = b / 4;
    const unsigned w = static_cast<unsigned>(b % 4);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      ASSERT_EQ(plane.StripWords(s)[std::size_t{e} * 4 + w], blocks[b][e])
          << "block " << b << " edge " << e;
    }
  }
  EXPECT_EQ(plane.StripLaneMask(0)[3], ~std::uint64_t{0});
  EXPECT_EQ(plane.StripLaneMask(1)[0], 0xFFu);
  // Words and lane masks past the last block stay zero.
  for (unsigned w = 1; w < 4; ++w) {
    EXPECT_EQ(plane.StripLaneMask(1)[w], 0u);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      ASSERT_EQ(plane.StripWords(1)[std::size_t{e} * 4 + w], 0u);
    }
  }
}

TEST(StripReachability, WidthOneMatchesTheScalarReferenceBitForBit) {
  // The one-word strip as the serve engine runs it: built by the factory
  // and driven through the runtime-width interface. Its touched set must
  // be exactly the nodes some scalar run reaches.
  Rng rng(43);
  for (int trial = 0; trial < 8; ++trial) {
    const DirectedGraph g = UniformRandomGraph(30, 90, rng);
    const SampledStrip strip = RandomStrip(g, rng, 0.25, 1, 64);
    const std::vector<NodeId> sources{static_cast<NodeId>(trial % 30)};
    const auto ws = StripWorkspace::Create(1, g);
    ws->Run(g, sources, strip.strip_words.data(), strip.lane_mask.data());
    ReachabilityWorkspace scalar(g);
    std::vector<NodeId> reached_somewhere;
    std::vector<bool> any(g.num_nodes(), false);
    for (std::size_t s = 0; s < 64; ++s) {
      scalar.Run(g, sources, strip.active[0][s]);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        ASSERT_EQ((ws->ReachedMask(v)[0] >> s) & 1,
                  scalar.IsReached(v) ? 1u : 0u)
            << "trial " << trial << " sample " << s << " node " << v;
        if (scalar.IsReached(v)) any[v] = true;
      }
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (any[v]) reached_somewhere.push_back(v);
    }
    ASSERT_EQ(ws->TouchedNodes(), reached_somewhere) << "trial " << trial;
  }
}

// Each word of a wide strip must equal a one-word (64-lane) run over that
// word's block alone.
template <unsigned W>
void ExpectWordsMatchOneWordRuns(const DirectedGraph& g,
                                 const SampledStrip& strip,
                                 const std::vector<NodeId>& sources,
                                 const StripReachabilityWorkspace<W>& wide) {
  StripReachabilityWorkspace<1> narrow(g);
  for (unsigned w = 0; w < W; ++w) {
    narrow.Run(g, sources, strip.block_words[w].data(), &strip.lane_mask[w]);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(wide.ReachedMask(v)[w], narrow.ReachedMask(v)[0])
          << "W=" << W << " word " << w << " node " << v;
    }
  }
}

TEST(StripReachability, WideStripsMatchSixtyFourLaneAndScalarReferences) {
  Rng rng(47);
  for (int trial = 0; trial < 4; ++trial) {
    const DirectedGraph g = UniformRandomGraph(30, 90, rng);
    const std::vector<NodeId> sources{static_cast<NodeId>(trial % 30),
                                      static_cast<NodeId>((trial * 7) % 30)};
    {
      const SampledStrip strip = RandomStrip(g, rng, 0.25, 4, 256);
      StripReachabilityWorkspace<4> wide(g);
      wide.Run(g, sources, strip.strip_words.data(), strip.lane_mask.data());
      ExpectMatchesScalar(g, strip, sources, wide, "W=4");
      ExpectWordsMatchOneWordRuns(g, strip, sources, wide);
    }
    {
      const SampledStrip strip = RandomStrip(g, rng, 0.25, 8, 512);
      StripReachabilityWorkspace<8> wide(g);
      wide.Run(g, sources, strip.strip_words.data(), strip.lane_mask.data());
      ExpectMatchesScalar(g, strip, sources, wide, "W=8");
      ExpectWordsMatchOneWordRuns(g, strip, sources, wide);
    }
  }
}

TEST(StripReachability, RaggedTailRowsStayConfinedToTheirLaneMask) {
  Rng rng(53);
  // rows % 512 != 0: the last block is ragged and the strip's final words
  // are partially or fully dead.
  for (const std::size_t rows : {257u, 300u, 449u, 511u}) {
    const DirectedGraph g = UniformRandomGraph(25, 75, rng);
    const SampledStrip strip = RandomStrip(g, rng, 0.3, 8, rows);
    StripReachabilityWorkspace<8> wide(g);
    wide.Run(g, {0}, strip.strip_words.data(), strip.lane_mask.data());
    ExpectMatchesScalar(g, strip, {0}, wide, "ragged");
  }
}

TEST(StripReachability, ConditionalSurvivorMasksMatchAcrossWidths) {
  Rng rng(59);
  // Arbitrary per-word survivor masks — the Eq. 7–8 conditional path seeds
  // only the lanes whose rows satisfied the constraints.
  for (int trial = 0; trial < 4; ++trial) {
    const DirectedGraph g = UniformRandomGraph(25, 75, rng);
    SampledStrip strip = RandomStrip(g, rng, 0.3, 4, 256);
    for (unsigned w = 0; w < 4; ++w) strip.lane_mask[w] = rng.NextU64();
    StripReachabilityWorkspace<4> wide(g);
    wide.Run(g, {1}, strip.strip_words.data(), strip.lane_mask.data());
    ExpectMatchesScalar(g, strip, {1}, wide, "survivors");
  }
}

TEST(StripReachability, PullAndPushSchedulesAgreeBitForBit) {
  Rng rng(61);
  for (int trial = 0; trial < 6; ++trial) {
    // Dense enough that mid-BFS frontiers cover most of the graph, so the
    // default threshold actually flips some rounds bottom-up.
    const DirectedGraph g = UniformRandomGraph(40, 400, rng);
    const SampledStrip strip = RandomStrip(g, rng, 0.4, 8, 512);
    StripReachabilityWorkspace<8> push(g);
    StripReachabilityWorkspace<8> pull(g);
    StripReachabilityWorkspace<8> mixed(g);
    push.set_pull_threshold(2.0);  // never pull
    pull.set_pull_threshold(0.0);  // always pull
    const std::vector<NodeId> sources{static_cast<NodeId>(trial % 40)};
    push.Run(g, sources, strip.strip_words.data(), strip.lane_mask.data());
    pull.Run(g, sources, strip.strip_words.data(), strip.lane_mask.data());
    mixed.Run(g, sources, strip.strip_words.data(), strip.lane_mask.data());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      for (unsigned w = 0; w < 8; ++w) {
        ASSERT_EQ(pull.ReachedMask(v)[w], push.ReachedMask(v)[w])
            << "trial " << trial << " node " << v << " word " << w;
        ASSERT_EQ(mixed.ReachedMask(v)[w], push.ReachedMask(v)[w])
            << "trial " << trial << " node " << v << " word " << w;
      }
    }
    ASSERT_EQ(pull.TouchedNodes(), push.TouchedNodes());
    ASSERT_EQ(mixed.TouchedNodes(), push.TouchedNodes());
  }
}

TEST(StripReachability, IncrementalSeedPropagateMatchesOneShot) {
  CheckInterleavedSeedsReachTheJointFixpoint<4>(67);
}

TEST(StripReachability, RunUntilMatchesFullRunOnTarget) {
  CheckRunUntilMatchesFullRunOnTarget<8>(71);
}

TEST(StripReachability, RunUntilSaturatesImmediatelyWhenTargetIsSource) {
  CheckRunUntilSaturatesWhenTargetIsSource<4>();
}

TEST(StripReachability, NoStateLeaksBetweenReusedRuns) {
  CheckNoStateLeaksBetweenReusedRuns<8>();
}

TEST(StripReachability, AccumulateReachedCountsSpansAllWords) {
  const DirectedGraph g = Chain();
  // Word 0 lane 1: 0->1 only. Word 3 lane 2: the whole chain.
  std::vector<std::uint64_t> words(std::size_t{g.num_edges()} * 4, 0);
  words[std::size_t{g.FindEdge(0, 1)} * 4 + 0] = 0b010;
  words[std::size_t{g.FindEdge(0, 1)} * 4 + 3] = 0b100;
  words[std::size_t{g.FindEdge(1, 2)} * 4 + 3] = 0b100;
  words[std::size_t{g.FindEdge(2, 3)} * 4 + 3] = 0b100;
  std::array<std::uint64_t, 4> lanes = {0b111, 0b111, 0b111, 0b111};
  StripReachabilityWorkspace<4> ws(g);
  ws.Run(g, {0}, words.data(), lanes.data());
  std::vector<std::uint32_t> counts(4 * 64, 0);
  ws.AccumulateReachedCounts(counts.data());
  EXPECT_EQ(counts[0 * 64 + 0], 1u);  // source only
  EXPECT_EQ(counts[0 * 64 + 1], 2u);  // {0, 1}
  EXPECT_EQ(counts[3 * 64 + 2], 4u);  // {0, 1, 2, 3}
  EXPECT_EQ(counts[1 * 64 + 0], 1u);  // source counted in every live lane
  EXPECT_EQ(counts[3 * 64 + 3], 0u);  // dead lane
}

TEST(StripReachability, FactoryCoversEveryWidthAndAutoRule) {
  const DirectedGraph g = Chain();
  for (const unsigned w : {1u, 4u, 8u}) {
    const auto ws = StripWorkspace::Create(w, g);
    ASSERT_NE(ws, nullptr);
    EXPECT_EQ(ws->words(), w);
  }
  EXPECT_EQ(ResolveStripWords(LaneWidth::k64, 4096), 1u);
  EXPECT_EQ(ResolveStripWords(LaneWidth::k256, 64), 4u);
  EXPECT_EQ(ResolveStripWords(LaneWidth::k512, 64), 8u);
  EXPECT_EQ(ResolveStripWords(LaneWidth::kAuto, 4096), 8u);
  EXPECT_EQ(ResolveStripWords(LaneWidth::kAuto, 511), 4u);
  EXPECT_EQ(ResolveStripWords(LaneWidth::kAuto, 256), 4u);
  EXPECT_EQ(ResolveStripWords(LaneWidth::kAuto, 255), 1u);
  // The kAuto cache cap: deep banks step back down once the per-width-word
  // working set (2n + m)·8 bytes would spill kStripWorkingSetBudget at the
  // row-count width. The bench shapes, in order: small stays at 8 words,
  // the mid shape caps to 4, the large one to the 64-lane path.
  EXPECT_EQ(ResolveStripWords(LaneWidth::kAuto, 4096, 1000, 2500), 8u);
  EXPECT_EQ(ResolveStripWords(LaneWidth::kAuto, 4096, 4000, 10000), 4u);
  EXPECT_EQ(ResolveStripWords(LaneWidth::kAuto, 4096, 16000, 40000), 1u);
  // Explicit widths are a user override — never capped.
  EXPECT_EQ(ResolveStripWords(LaneWidth::k512, 4096, 16000, 40000), 8u);
  // Callers without a graph at hand (zero sizes) keep the row-count rule.
  EXPECT_EQ(ResolveStripWords(LaneWidth::kAuto, 4096, 0, 0), 8u);
  EXPECT_EQ(ParseLaneWidth("auto").ValueOrDie(), LaneWidth::kAuto);
  EXPECT_EQ(ParseLaneWidth("512").ValueOrDie(), LaneWidth::k512);
  EXPECT_FALSE(ParseLaneWidth("128").ok());
  EXPECT_STREQ(LaneWidthName(LaneWidth::k256), "256");
}

TEST(StripReachability, RuntimeIsaPickMatchesGenericBitForBit) {
  // StripWorkspace::Create dispatches to the widest ISA variant the CPU
  // supports (AVX-512 → AVX2 → generic). Whatever it picked here must
  // compute exactly the generic instantiation's masks — the vector kernels
  // are the same OR/ANDNOT lattice steps in wider registers. Exercise both
  // sweep directions so the pull kernels are covered too.
  Rng rng(97);
  const DirectedGraph g = UniformRandomGraph(60, 150, rng);
  for (const unsigned width : {4u, 8u}) {
    const SampledStrip strip = RandomStrip(g, rng, 0.45, width,
                                           std::size_t{width} * 64 - 7);
    for (const double threshold : {0.0, kDefaultPullThreshold, 2.0}) {
      const auto picked = StripWorkspace::Create(width, g);
      picked->set_pull_threshold(threshold);
      picked->Run(g, {0, 11}, strip.strip_words.data(),
                  strip.lane_mask.data());
      std::unique_ptr<StripWorkspace> generic =
          width == 4
              ? std::unique_ptr<StripWorkspace>(
                    std::make_unique<StripReachabilityWorkspace<4>>(g))
              : std::make_unique<StripReachabilityWorkspace<8>>(g);
      generic->set_pull_threshold(threshold);
      generic->Run(g, {0, 11}, strip.strip_words.data(),
                   strip.lane_mask.data());
      ASSERT_EQ(picked->TouchedNodes(), generic->TouchedNodes())
          << "width " << width << " threshold " << threshold;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        for (unsigned w = 0; w < width; ++w) {
          ASSERT_EQ(picked->ReachedMask(v)[w], generic->ReachedMask(v)[w])
              << "width " << width << " threshold " << threshold << " node "
              << v << " word " << w;
        }
      }
    }
  }
}

}  // namespace
}  // namespace infoflow
