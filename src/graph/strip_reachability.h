/// \file strip_reachability.h
/// \brief Bit-parallel BFS: reachability in 64·W sampled worlds per pass.
///
/// Every flow estimate replays reachability over many sampled pseudo-states
/// of the *same* graph (Eq. 5: average an indicator over retained states).
/// Running one scalar BFS per state wastes the machine word: edge activity
/// is one bit per state, so 64 states fit in a `uint64_t` per edge. This
/// workspace runs the BFS frontier as lane masks — bit s of `reached[v]`
/// is set iff node v is reachable from the sources in sample s — and a
/// node relaxes an out-edge for every sample at once with
/// `reached[src] & plane[e]`. A **strip** holds W words per edge
/// (W ∈ {1, 4, 8} → 64/256/512 lanes per pass), so one adjacency walk
/// replays Eq. 5 over up to 512 states. Inputs are **strip-major**: word
/// `strip_words[e*W + w]` is edge e's activity across the 64 samples of
/// block w of the strip (see strip_plane.h for the layout builder; at W=1
/// it is the bank's edge-major plane). Every lane-mask argument and every
/// ReachedMask() result is likewise a span of W words in block order.
/// Lane masks restrict a run to a subset of samples: propagation never
/// leaves the mask, ragged tail blocks pass their valid-lane words, and
/// conditional queries (Eq. 7–8) pass the surviving I(x, C) lanes so dead
/// samples cost nothing.
///
/// For W > 1 the fixpoint loop is direction-optimizing (Beamer-style):
/// rounds run top-down — drain the frontier bitmap and push each node's
/// delta mask through its out-edges — until the live frontier exceeds a
/// tunable fraction of the graph's nodes, at which point a round flips to
/// a bottom-up pull over the reversed CSR: every non-saturated node ORs in
/// `reached[src] & plane[e]` across its in-edges in one sequential sweep,
/// visiting each node once regardless of how many distinct arrival depths
/// would have revisited it top-down. Reached masks grow monotonically
/// under OR toward a unique fixpoint, so push and pull rounds commute:
/// results are bit-identical to the scalar reference whatever the sweep
/// schedule (the differential suite in tests/test_strip_reachability.cc
/// pins this). The one-word strip runs push rounds only, with a scalar
/// delta and no reversed CSR.
///
/// \code
///   auto ws = StripWorkspace::Create(1, graph);
///   const std::uint64_t lanes = ~std::uint64_t{0};
///   ws->Run(graph, sources, edge_words, &lanes);  // edge_words: uint64[m]
///   std::uint64_t hits = ws->ReachedMask(sink)[0];  // bit s: flows in s
///   double p = std::popcount(hits) / 64.0;          // Eq. 5 over the block
/// \endcode
///
/// Callers that pick the width at runtime (query engine, sketch build,
/// impact cascades) go through the StripWorkspace interface;
/// the per-pass virtual dispatch is amortized over an entire strip BFS.

#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "graph/strip_ops.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace infoflow {

/// \brief Requested replay lane width (`--lanes {64,256,512,auto}`).
///
/// kAuto picks the widest strip the batch fills: ≥512 rows → 512 lanes,
/// ≥256 rows → 256 lanes, else the one-word 64-lane strip.
enum class LaneWidth {
  kAuto,
  k64,
  k256,
  k512,
};

/// "auto", "64", "256", "512".
const char* LaneWidthName(LaneWidth lanes);

/// Inverse of LaneWidthName; errors on anything else.
Result<LaneWidth> ParseLaneWidth(std::string_view name);

/// Words per strip (1, 4, or 8) for `lanes` over a bank of `num_rows`
/// samples, applying the kAuto rule above. When the graph's size is given
/// (nonzero), kAuto additionally caps the width so the strip replay's
/// working set — per-node reached+propagated state plus one strip of the
/// edge plane, (2·num_nodes + num_edges)·8·W bytes — stays cache-resident
/// (kStripWorkingSetBudget): wide strips trade ~3–4× fewer node revisits
/// for W× the bytes per visit, a measured win only while those bytes come
/// from L2. Explicit widths are never capped.
unsigned ResolveStripWords(LaneWidth lanes, std::size_t num_rows,
                           std::size_t num_nodes = 0,
                           std::size_t num_edges = 0);

/// kAuto working-set budget (bytes) for ResolveStripWords: ≈L2/3 on the
/// dev box, matching the measured width crossover on the bench shapes
/// (512 lanes win through ~2000 nodes / 5000 edges, 256 through
/// ~4000/10000, 64-lane beyond).
inline constexpr std::size_t kStripWorkingSetBudget = 640 * 1024;

/// \brief Runtime-width handle over StripReachabilityWorkspace<W>.
///
/// The workspace allocates once and is reused across runs; instead of
/// version stamps it re-zeroes only the previous run's touched set, so no
/// counter can wrap. Every mask is a words()-word span. Not thread-safe;
/// give each worker its own instance. The scalar ReachabilityWorkspace
/// (graph/reachability.h) is the reference it is differentially tested
/// against.
class StripWorkspace {
 public:
  virtual ~StripWorkspace() = default;

  /// Strip width W: the number of 64-lane blocks every pass replays.
  virtual unsigned words() const = 0;

  /// Propagates reached masks from `sources` (every source starts with
  /// `lane_mask`) until fixpoint; ReachedMask() then answers per-sample
  /// membership in the i-active node set. Passing a different graph
  /// instance of the same node count rebinds (re-flattens) on the fly.
  virtual void Run(const DirectedGraph& graph,
                   const std::vector<NodeId>& sources,
                   const std::uint64_t* strip_words,
                   const std::uint64_t* lane_mask) = 0;

  /// As Run(), but stops at a round boundary once `target`'s mask saturates
  /// `lane_mask`; copies the target's final W-word mask into `target_mask`.
  /// ReachedMask() remains valid for the explored prefix only.
  virtual void RunUntil(const DirectedGraph& graph,
                        const std::vector<NodeId>& sources,
                        const std::uint64_t* strip_words, NodeId target,
                        const std::uint64_t* lane_mask,
                        std::uint64_t* target_mask) = 0;

  /// \brief Incremental interface, for callers that seed a node with its
  /// own lane mask rather than one mask for every source (the reverse
  /// sketch build in seedmax/rr_index.cc seeds each target with its
  /// surviving lanes): `Begin` resets the workspace, then any sequence of
  /// `Seed`/`Propagate` calls grows the reached masks monotonically, and
  /// each Propagate continues from exactly the newly seeded delta instead
  /// of recomputing the fixpoint from scratch. Every Begin/Seed sequence
  /// must end with a Propagate before the workspace is reused.
  ///
  /// Run(g, srcs, words, lanes) ≡ Begin(g); Seed(s, lanes) ∀s; Propagate().
  virtual void Begin(const DirectedGraph& graph) = 0;
  /// Adds `lanes` to `v`'s reached mask and queues the delta for the next
  /// Propagate. A no-op when the mask already covers `lanes`.
  virtual void Seed(NodeId v, const std::uint64_t* lanes) = 0;
  /// Propagates every pending Seed delta to fixpoint over `strip_words`.
  virtual void Propagate(const std::uint64_t* strip_words) = 0;

  /// W-word span; all-zero when v was never touched.
  virtual const std::uint64_t* ReachedMask(NodeId v) const = 0;

  /// Nodes with a nonzero reached mask after the last run, in ascending
  /// node-id order (includes sources).
  virtual const std::vector<NodeId>& TouchedNodes() const = 0;

  /// \brief Popcount reduction: adds 1 to `counts[w*64 + lane]` for every
  /// touched node reached in that lane. `counts` spans words()·64 entries.
  /// With a single source this tallies per-sample spread sizes (source
  /// included).
  virtual void AccumulateReachedCounts(std::uint32_t* counts) const = 0;

  /// A round flips to the bottom-up pull when the live frontier holds more
  /// than `fraction` of the graph's nodes. 0 forces every round bottom-up;
  /// anything > 1 forces pure top-down (both used by the differential
  /// tests). Ignored at W=1, which always pushes.
  virtual void set_pull_threshold(double fraction) = 0;

  /// Factory over the explicit instantiations; `width_words` ∈ {1, 4, 8}.
  static std::unique_ptr<StripWorkspace> Create(unsigned width_words,
                                                const DirectedGraph& graph);
};

/// Default pull-threshold fraction; chosen on the fig6 bench shape where
/// near-critical percolation keeps mid-BFS frontiers wide.
inline constexpr double kDefaultPullThreshold = 0.25;

/// \brief The W-word strip workspace (see file comment). W is compile-time
/// so the per-edge kernels unroll; generic explicit instantiations for
/// W ∈ {1, 4, 8} live in strip_reachability.cc, with AVX2/AVX-512-tagged
/// ones (Isa, see strip_ops.h) in strip_reachability_avx2.cc/_avx512.cc
/// when the toolchain can target those ISAs — Create() picks the widest
/// variant the running CPU supports. All variants compute bit-identical
/// masks. W=1 is the 64-lane replay: a push-only loop with a scalar delta
/// (`if constexpr (W == 1)` in strip_reachability_inl.h).
template <unsigned W, int Isa = kIsaGeneric>
class StripReachabilityWorkspace final : public StripWorkspace {
 public:
  explicit StripReachabilityWorkspace(const DirectedGraph& graph);

  unsigned words() const override { return W; }

  void Run(const DirectedGraph& graph, const std::vector<NodeId>& sources,
           const std::uint64_t* strip_words,
           const std::uint64_t* lane_mask) override;

  void RunUntil(const DirectedGraph& graph,
                const std::vector<NodeId>& sources,
                const std::uint64_t* strip_words, NodeId target,
                const std::uint64_t* lane_mask,
                std::uint64_t* target_mask) override;

  void Begin(const DirectedGraph& graph) override;
  void Seed(NodeId v, const std::uint64_t* lanes) override;
  void Propagate(const std::uint64_t* strip_words) override;

  const std::uint64_t* ReachedMask(NodeId v) const override {
    return reached_.data() + std::size_t{v} * W;
  }

  const std::vector<NodeId>& TouchedNodes() const override {
    return touched_;
  }

  void AccumulateReachedCounts(std::uint32_t* counts) const override;

  void set_pull_threshold(double fraction) override {
    pull_threshold_ = fraction;
  }

 private:
  void BindGraph(const DirectedGraph& graph);

  /// The shared direction-optimizing fixpoint loop behind RunUntil and
  /// Propagate. `target_mask` may be null when `target` is kInvalidNode.
  void Finish(const std::uint64_t* strip_words, NodeId target,
              const std::uint64_t* lane_mask, std::uint64_t* target_mask);

  /// One top-down round: drains `frontier` in node-id order pushing delta
  /// masks through out-edges, marking growth in `next`. Returns the number
  /// of frontier nodes relaxed (the frontier-words metric).
  std::uint64_t PushRound(const std::uint64_t* strip_words,
                          std::uint64_t* frontier, std::uint64_t* next);

  /// One bottom-up round: consumes the entire pending set (clears
  /// `frontier`), sweeps all nodes pulling over the reversed CSR, marks
  /// growth in `next`. Returns the number of nodes swept.
  std::uint64_t PullRound(const std::uint64_t* strip_words,
                          std::uint64_t* frontier, std::uint64_t* next);

  /// Per-node W-word reached masks (`reached_[v*W + w]`); zero outside the
  /// last run's touched set, which Begin re-zeroes instead of all n·W words.
  std::vector<std::uint64_t> reached_;
  /// Lanes already relaxed through v's out-edges (top-down) or claimed
  /// delivered by a full pull round (bottom-up); pushes relax only the
  /// delta `reached_ & ~propagated_`.
  std::vector<std::uint64_t> propagated_;
  /// Level-synchronous frontier bitmaps (bit v = node v pending): each
  /// round drains frontier_bits_ in node-id order while merges branchlessly
  /// mark growth in next_bits_; ever_bits_ accumulates every node that ever
  /// grew and yields touched_ after the run.
  std::vector<std::uint64_t> frontier_bits_;
  std::vector<std::uint64_t> next_bits_;
  std::vector<std::uint64_t> ever_bits_;
  std::vector<NodeId> touched_;

  /// Union of every lane seeded since Begin: no reached mask can exceed it,
  /// so a node matching it is saturated and the pull sweep skips it
  /// (unused at W=1).
  std::uint64_t seeded_union_[W] = {};

  double pull_threshold_ = kDefaultPullThreshold;

  /// Flat copy of the bound graph's out-adjacency. GraphBuilder assigns
  /// edge ids in (src, dst) lexicographic order, so node v's out-edges are
  /// the contiguous id range [first_edge_[v], first_edge_[v+1]) and the
  /// plane can be walked sequentially; dst_[e] replaces the wider
  /// Edge-struct load in the hot loop. For W > 1, also the reversed CSR
  /// the pull rounds sweep: node v's in-edges are [in_first_[v],
  /// in_first_[v+1]), with the source node in in_src_ and the *forward*
  /// edge id (the strip-plane index) in in_eid_.
  const DirectedGraph* bound_graph_ = nullptr;
  std::vector<EdgeId> first_edge_;
  std::vector<NodeId> dst_;
  std::vector<EdgeId> in_first_;
  std::vector<NodeId> in_src_;
  std::vector<EdgeId> in_eid_;

  obs::Counter* metric_strips_;
  obs::Counter* metric_frontier_words_;
  obs::Counter* metric_pull_rounds_;
  obs::Histogram* metric_strip_latency_us_;
};

extern template class StripReachabilityWorkspace<1, kIsaGeneric>;
extern template class StripReachabilityWorkspace<4, kIsaGeneric>;
extern template class StripReachabilityWorkspace<8, kIsaGeneric>;

}  // namespace infoflow
