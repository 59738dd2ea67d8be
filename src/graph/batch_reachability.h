/// \file batch_reachability.h
/// \brief Bit-parallel BFS: reachability in 64 sampled worlds per pass.
///
/// Every flow estimate replays reachability over many sampled pseudo-states
/// of the *same* graph (Eq. 5: average an indicator over retained states).
/// Running one scalar BFS per state wastes the machine word: edge activity
/// is one bit per state, so 64 states fit in a `uint64_t` per edge. This
/// workspace runs the BFS frontier as 64-bit masks — `reached[v]` has bit s
/// set iff node v is reachable from the sources in sample s — and a node
/// relaxes an out-edge for all 64 samples at once with
/// `reached[src] & edge_words[e]`. One pass answers 64 pseudo-states.
///
/// Input layout is **edge-major**: `edge_words[e]` is edge e's activity
/// across the 64 samples of a block (bit s = sample s). The serve
/// SampleBank materializes this plane per generation (built from its packed
/// rows by 64×64 bitset transpose, see bit_transpose.h); samplers pack it
/// incrementally as retained states stream out of a chain.
///
/// `lane_mask` restricts a run to a subset of samples: propagation never
/// leaves the mask, ragged tail blocks (fewer than 64 samples) pass the
/// valid-lane mask, and conditional queries (Eq. 7–8) pass the surviving
/// I(x, C) lanes so dead samples cost nothing.
///
/// \code
///   BatchReachabilityWorkspace ws(graph);
///   ws.Run(graph, sources, edge_words);          // edge_words: uint64[m]
///   std::uint64_t hits = ws.ReachedMask(sink);   // bit s = flows in sample s
///   double p = std::popcount(hits) / 64.0;       // Eq. 5 over the block
/// \endcode

#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "obs/metrics.h"

namespace infoflow {

/// \brief Reusable mask-propagation BFS workspace bound to a graph size.
///
/// Like ReachabilityWorkspace (the scalar reference implementation this is
/// differentially tested against), the workspace allocates once and is
/// reused across runs; instead of version stamps it re-zeroes only the
/// previous run's touched set, so no counter can wrap.
/// Not thread-safe; give each worker its own instance.
class BatchReachabilityWorkspace {
 public:
  /// Sizes buffers for `graph` and flattens its adjacency for the hot
  /// loop. Reusable with any graph of the same node count — passing a
  /// different graph instance to Run rebinds (re-flattens) on the fly.
  explicit BatchReachabilityWorkspace(const DirectedGraph& graph);

  /// \brief Propagates reached-masks from `sources` (every source starts
  /// with `lane_mask`) until fixpoint. After the call ReachedMask() answers
  /// per-sample membership in the i-active node set.
  void Run(const DirectedGraph& graph, const std::vector<NodeId>& sources,
           const std::uint64_t* edge_words,
           std::uint64_t lane_mask = ~std::uint64_t{0});

  /// \brief As Run(), but stops early once `target`'s mask saturates
  /// `lane_mask` (the answer can no longer change). Returns the target's
  /// final reached mask; ReachedMask() remains valid for the explored
  /// prefix only.
  std::uint64_t RunUntil(const DirectedGraph& graph,
                         const std::vector<NodeId>& sources,
                         const std::uint64_t* edge_words, NodeId target,
                         std::uint64_t lane_mask = ~std::uint64_t{0});

  /// \brief Incremental interface, for callers that seed a node with its
  /// own lane mask rather than one mask for every source (the reverse
  /// sketch build in seedmax/rr_index.cc seeds each target with its
  /// surviving lanes): `Begin` resets the workspace, then any sequence of
  /// `Seed`/`Propagate` calls grows the reached masks monotonically, and
  /// each Propagate continues from exactly the newly seeded delta instead
  /// of recomputing the fixpoint from scratch. Every Begin/Seed sequence must
  /// end with a Propagate before the workspace is reused.
  ///
  /// Run(g, srcs, words, lanes) ≡ Begin(g); Seed(s, lanes) ∀s; Propagate().
  void Begin(const DirectedGraph& graph);

  /// Adds `lanes` to `v`'s reached mask and queues the delta for the next
  /// Propagate. A no-op when the mask already covers `lanes`.
  void Seed(NodeId v, std::uint64_t lanes);

  /// Propagates every pending Seed delta to fixpoint over `edge_words`.
  void Propagate(const std::uint64_t* edge_words);

  /// Samples (bits) in which `v` was reached by the last run; 0 when v was
  /// never touched.
  std::uint64_t ReachedMask(NodeId v) const { return reached_[v]; }

  /// Nodes with a nonzero reached mask after the last run, in ascending
  /// node-id order (includes sources).
  const std::vector<NodeId>& TouchedNodes() const { return touched_; }

  /// \brief Popcount reduction: adds 1 to `counts[s]` for every touched
  /// node reached in sample s. `counts` must span 64 entries. With a single
  /// source this tallies per-sample spread sizes (source included).
  void AccumulateReachedCounts(std::uint32_t* counts) const;

 private:
  /// Flattens `graph`'s adjacency into first_edge_/dst_ (see below). Called
  /// lazily by Run whenever a different graph instance is passed.
  void BindGraph(const DirectedGraph& graph);

  /// The shared fixpoint loop behind RunUntil and Propagate: drains the
  /// frontier (early-exiting once `target` saturates `lane_mask`), clears
  /// the frontier bitmaps, and re-extracts touched_ from ever_bits_.
  std::uint64_t Finish(const std::uint64_t* edge_words, NodeId target,
                       std::uint64_t lane_mask);

  /// Per-node reached masks. Between runs every entry is zero except the
  /// last run's touched set (ReachedMask reads this directly); each run
  /// starts by re-zeroing that set, which is cheaper than clearing n words
  /// and needs no version stamps.
  std::vector<std::uint64_t> reached_;
  /// Lanes already relaxed through v's out-edges this run. A node re-enters
  /// a round only when new lanes arrived, and then relaxes just the delta
  /// `reached_[v] & ~propagated_[v]` — on graphs where per-sample BFS
  /// distances spread widely a node is revisited once per distinct arrival
  /// depth, and without the delta every visit would re-scan all 64 lanes.
  std::vector<std::uint64_t> propagated_;
  /// Level-synchronous frontier bitmaps (bit v = node v pending): each
  /// round drains frontier_bits_ in node-id order while merges branchlessly
  /// mark growth in next_bits_; ever_bits_ accumulates every node that ever
  /// grew and yields touched_ after the run.
  std::vector<std::uint64_t> frontier_bits_;
  std::vector<std::uint64_t> next_bits_;
  std::vector<std::uint64_t> ever_bits_;
  std::vector<NodeId> touched_;

  /// Flat copy of the bound graph's out-adjacency. GraphBuilder assigns
  /// edge ids in (src, dst) lexicographic order, so node v's out-edges are
  /// the contiguous id range [first_edge_[v], first_edge_[v+1]) and
  /// edge_words can be walked sequentially; dst_[e] replaces the wider
  /// Edge-struct load in the hot loop.
  const DirectedGraph* bound_graph_ = nullptr;
  std::vector<EdgeId> first_edge_;
  std::vector<NodeId> dst_;

  obs::Counter* metric_blocks_;
  obs::Counter* metric_frontier_words_;
  obs::Histogram* metric_block_latency_us_;
};

}  // namespace infoflow
