#include "seedmax/rr_index.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "graph/strip_plane.h"
#include "graph/strip_reachability.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/timer.h"

namespace infoflow::seedmax {
namespace {

struct IndexMetrics {
  obs::Counter* builds = &obs::GetCounter("seedmax.sketch.builds_total");
  obs::Counter* postings =
      &obs::GetCounter("seedmax.sketch.postings_total");
  obs::Counter* reverse_passes =
      &obs::GetCounter("seedmax.sketch.reverse_passes_total");
  obs::Counter* blocks_reused =
      &obs::GetCounter("seedmax.sketch.blocks_reused_total");
  obs::Histogram* build_ms = &obs::GetHistogram(
      "seedmax.sketch.build_ms", obs::LogBuckets(0.05, 10000.0, 3));
  obs::Gauge* generation = &obs::GetGauge("seedmax.index.generation");

  static IndexMetrics& Get() {
    static IndexMetrics metrics;
    return metrics;
  }
};

}  // namespace

ReversedGraphView ReversedGraphView::Build(
    std::shared_ptr<const DirectedGraph> graph) {
  ReversedGraphView view;
  view.parent_ = std::move(graph);
  const DirectedGraph& parent = *view.parent_;
  GraphBuilder builder(parent.num_nodes());
  for (const Edge& edge : parent.edges()) {
    builder.AddEdge(edge.dst, edge.src).CheckOK();
  }
  view.reversed_ = std::move(builder).Build();
  // Both graphs order edge ids by (src, dst) lexicographically, so the
  // correspondence is a pure permutation recovered by endpoint lookup.
  view.to_parent_.resize(view.reversed_.num_edges());
  for (EdgeId re = 0; re < view.reversed_.num_edges(); ++re) {
    const Edge& edge = view.reversed_.edge(re);
    const EdgeId pe = parent.FindEdge(edge.dst, edge.src);
    IF_CHECK(pe != kInvalidEdge) << "transpose lost an edge";
    view.to_parent_[re] = pe;
  }
  return view;
}

void ReversedGraphView::GatherBlock(const std::uint64_t* parent_words,
                                    std::uint64_t* reversed_words) const {
  const std::size_t m = to_parent_.size();
  for (std::size_t re = 0; re < m; ++re) {
    reversed_words[re] = parent_words[to_parent_[re]];
  }
}

void ReversedGraphView::GatherStrip(const std::uint64_t* parent_strip,
                                    unsigned width,
                                    std::uint64_t* reversed_strip) const {
  const std::size_t m = to_parent_.size();
  for (std::size_t re = 0; re < m; ++re) {
    std::memcpy(reversed_strip + re * width,
                parent_strip + std::size_t{to_parent_[re]} * width,
                width * sizeof(std::uint64_t));
  }
}

Result<RrSketchSet> RrSketchSet::Build(
    const ReversedGraphView& view, const serve::BankGeneration& generation,
    const RrBuildOptions& options) {
  const DirectedGraph& parent = view.parent();
  const NodeId n = parent.num_nodes();
  if (generation.num_edges() != parent.num_edges()) {
    return Status::InvalidArgument(
        "bank generation has ", generation.num_edges(),
        " edges but the graph has ", parent.num_edges());
  }

  // Resolve the target universe (all nodes unless restricted).
  std::vector<NodeId> targets = options.targets;
  if (targets.empty()) {
    targets.resize(n);
    for (NodeId v = 0; v < n; ++v) targets[v] = v;
  } else {
    std::vector<bool> seen(n, false);
    for (const NodeId t : targets) {
      if (t >= n) {
        return Status::OutOfRange("target node ", t, " not in graph with ",
                                  n, " nodes");
      }
      if (seen[t]) {
        return Status::InvalidArgument("duplicate target node ", t);
      }
      seen[t] = true;
    }
  }

  WallTimer timer;
  const std::size_t num_blocks = generation.num_blocks();
  // Replay width: strips of W consecutive blocks share one pass when the
  // bank is deep enough (graph/strip_reachability.h), so the build
  // consumes 64·W rows per BFS. Per-word results equal the per-block
  // fixpoints, and postings are emitted per block in the same (target,
  // node) order, so the built set is bit-identical at every width.
  const unsigned strip_words =
      ResolveStripWords(LaneWidth::kAuto, generation.num_rows(),
                        parent.num_nodes(), parent.num_edges());
  const std::shared_ptr<const StripPlane> strip_plane =
      generation.AcquireStripPlane(strip_words);
  const std::size_t num_strips = strip_plane->num_strips;

  // Eq. 7–8 lane narrowing: run each constraint on the *forward* graph and
  // keep only the surviving I(x, C) lanes, exactly as the conditional
  // query path does — sketches over dead lanes would bias the estimate.
  // lane[b] is block b's surviving mask (zero past the last block).
  std::vector<std::uint64_t> lane = strip_plane->lane_masks;
  std::size_t effective_rows = generation.num_rows();
  if (!options.given.empty()) {
    IF_RETURN_NOT_OK(ValidateConditions(parent, options.given));
    auto forward = StripWorkspace::Create(strip_words, parent);
    std::vector<NodeId> src(1);
    std::uint64_t reached[kMaxStripWords];
    effective_rows = 0;
    for (std::size_t s = 0; s < num_strips; ++s) {
      std::uint64_t* lanes = &lane[s * strip_words];
      for (const FlowConstraint& c : options.given) {
        std::uint64_t live = 0;
        for (unsigned w = 0; w < strip_words; ++w) live |= lanes[w];
        if (live == 0) break;
        src[0] = c.source;
        forward->RunUntil(parent, src, strip_plane->StripWords(s), c.sink,
                          lanes, reached);
        for (unsigned w = 0; w < strip_words; ++w) {
          lanes[w] = c.must_flow ? reached[w] : lanes[w] & ~reached[w];
        }
      }
      for (unsigned w = 0; w < strip_words; ++w) {
        effective_rows += static_cast<std::size_t>(std::popcount(lanes[w]));
      }
    }
    if (effective_rows < options.min_conditional_rows) {
      return Status::FailedPrecondition(
          "conditional seed selection: only ", effective_rows, " of ",
          generation.num_rows(),
          " bank rows satisfy the conditions (floor ",
          options.min_conditional_rows, ")");
    }
  }

  RrSketchSet set;
  set.generation_ = generation.id();
  set.model_epoch_ = generation.model_epoch();
  set.universe_ = targets.size();
  set.num_groups_ = targets.size() * num_blocks;
  set.total_rows_ = generation.num_rows();
  set.effective_rows_ = effective_rows;
  set.conditioned_ = !options.given.empty();
  set.num_sketches_ =
      static_cast<std::uint64_t>(effective_rows) * targets.size();

  // Incremental reuse plan: a block whose edge-major plane is bit-identical
  // to the previously indexed generation's would run the exact same reverse
  // passes, so its postings can be lifted from the previous set. Only the
  // default build shape qualifies (unconditioned, all-node universe, same
  // graph and row count) — anything else diffs against the wrong lanes.
  IndexMetrics& metrics = IndexMetrics::Get();
  const std::size_t num_targets = targets.size();
  const bool can_reuse =
      options.previous != nullptr && options.previous_rows != nullptr &&
      options.given.empty() && options.targets.empty() &&
      !options.previous->conditioned() &&
      options.previous->universe() == num_targets &&
      options.previous->num_groups() == num_targets * num_blocks &&
      options.previous->total_rows() == generation.num_rows() &&
      options.previous_rows->num_edges() == generation.num_edges() &&
      options.previous_rows->num_rows() == generation.num_rows();
  std::vector<std::uint8_t> fresh(num_blocks, 1);
  std::size_t reused_blocks = 0;
  if (can_reuse) {
    for (std::size_t b = 0; b < num_blocks; ++b) {
      if (std::memcmp(generation.BlockEdgeWords(b),
                      options.previous_rows->BlockEdgeWords(b),
                      generation.num_edges() * sizeof(std::uint64_t)) == 0) {
        fresh[b] = 0;
        ++reused_blocks;
      }
    }
    metrics.blocks_reused->Increment(reused_blocks);
  }

  // Reverse passes over the fresh blocks: gather the strip's plane into
  // transposed edge order once, then one Begin/Seed/Propagate pass per
  // target answers "who reaches t" for all 64·W rows of the strip
  // simultaneously. Strips are independent, so they fan out over the pool
  // when one is supplied — each worker task owns its own workspace and
  // gathered plane and fills per-block posting vectors, which the merge
  // below concatenates in block order (bit-identical to the serial loop;
  // TouchedNodes is ascending either way).
  const DirectedGraph& reversed = view.reversed();
  struct NodePosting {
    NodeId node;
    RrPosting posting;
  };
  std::vector<std::vector<NodePosting>> block_raw(num_blocks);
  const auto build_strip = [&](StripWorkspace& workspace,
                               std::uint64_t* reversed_strip, std::size_t s) {
    const std::size_t b0 = s * strip_words;
    // Reused and lane-dead blocks ride along with zero lane words: their
    // masks stay zero, so they emit nothing — exactly a skip.
    std::uint64_t strip_lanes[kMaxStripWords] = {};
    std::uint64_t live = 0;
    for (unsigned w = 0; w < strip_words && b0 + w < num_blocks; ++w) {
      if (fresh[b0 + w] != 0) strip_lanes[w] = lane[b0 + w];
      live |= strip_lanes[w];
    }
    if (live == 0) return;
    view.GatherStrip(strip_plane->StripWords(s), strip_words, reversed_strip);
    for (std::size_t ti = 0; ti < num_targets; ++ti) {
      workspace.Begin(reversed);
      workspace.Seed(targets[ti], strip_lanes);
      workspace.Propagate(reversed_strip);
      metrics.reverse_passes->Increment();
      for (const NodeId u : workspace.TouchedNodes()) {
        const std::uint64_t* mask = workspace.ReachedMask(u);
        for (unsigned w = 0; w < strip_words; ++w) {
          if (mask[w] == 0) continue;
          const auto group =
              static_cast<std::uint32_t>(ti * num_blocks + b0 + w);
          block_raw[b0 + w].push_back({u, {group, mask[w]}});
        }
      }
    }
  };
  const auto build_range = [&](std::size_t begin, std::size_t end) {
    auto workspace = StripWorkspace::Create(strip_words, reversed);
    std::vector<std::uint64_t> reversed_strip(parent.num_edges() *
                                              strip_words);
    for (std::size_t s = begin; s < end; ++s) {
      build_strip(*workspace, reversed_strip.data(), s);
    }
  };
  if (options.pool != nullptr && options.pool->size() > 1 && num_strips > 1) {
    // A few chunks per worker for balance (strip costs vary with how many
    // lanes survive); each chunk amortizes one workspace + plane buffer.
    const std::size_t num_chunks =
        std::min(num_strips, options.pool->size() * 4);
    const std::size_t per_chunk = (num_strips + num_chunks - 1) / num_chunks;
    for (std::size_t c = 0; c < num_chunks; ++c) {
      const std::size_t begin = c * per_chunk;
      const std::size_t end = std::min(num_strips, begin + per_chunk);
      if (begin >= end) break;
      options.pool->Submit([&, begin, end] { build_range(begin, end); });
    }
    options.pool->Wait();
  } else {
    build_range(0, num_strips);
  }

  // Lift the reused blocks' postings out of the previous set's node-major
  // CSR into the raw (block, target, node) order the merge expects: a
  // stable counting sort by (block, target) key over an ascending node
  // scan reproduces exactly what the reverse passes would have emitted.
  std::vector<NodePosting> reused;
  std::vector<std::size_t> key_offsets;
  if (reused_blocks > 0) {
    const RrSketchSet& prev = *options.previous;
    key_offsets.assign(num_blocks * num_targets + 1, 0);
    for (NodeId u = 0; u < n; ++u) {
      for (const RrPosting& p : prev.Postings(u)) {
        const std::size_t b = p.group % num_blocks;
        if (fresh[b] != 0) continue;
        ++key_offsets[b * num_targets + p.group / num_blocks + 1];
      }
    }
    for (std::size_t k = 1; k < key_offsets.size(); ++k) {
      key_offsets[k] += key_offsets[k - 1];
    }
    reused.resize(key_offsets.back());
    std::vector<std::size_t> cursor(key_offsets.begin(),
                                    key_offsets.end() - 1);
    for (NodeId u = 0; u < n; ++u) {
      for (const RrPosting& p : prev.Postings(u)) {
        const std::size_t b = p.group % num_blocks;
        if (fresh[b] != 0) continue;
        reused[cursor[b * num_targets + p.group / num_blocks]++] = {u, p};
      }
    }
  }

  // Merge in block order: fresh blocks contribute their just-built
  // postings, reused blocks their lifted segment.
  std::size_t total = reused.size();
  for (const std::vector<NodePosting>& br : block_raw) total += br.size();
  std::vector<NodePosting> raw;
  raw.reserve(total);
  for (std::size_t b = 0; b < num_blocks; ++b) {
    if (fresh[b] != 0) {
      raw.insert(raw.end(), block_raw[b].begin(), block_raw[b].end());
    } else {
      raw.insert(raw.end(),
                 reused.begin() + static_cast<std::ptrdiff_t>(
                                      key_offsets[b * num_targets]),
                 reused.begin() + static_cast<std::ptrdiff_t>(
                                      key_offsets[(b + 1) * num_targets]));
    }
  }

  // Counting sort the (node, group, lanes) triples into a CSR keyed by
  // node — the layout the selector's gain loop walks sequentially.
  set.offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const NodePosting& np : raw) ++set.offsets_[np.node + 1];
  for (std::size_t v = 1; v <= n; ++v) set.offsets_[v] += set.offsets_[v - 1];
  set.postings_.resize(raw.size());
  std::vector<std::size_t> cursor(set.offsets_.begin(),
                                  set.offsets_.end() - 1);
  for (const NodePosting& np : raw) {
    set.postings_[cursor[np.node]++] = np.posting;
  }

  metrics.builds->Increment();
  metrics.postings->Increment(raw.size());
  metrics.build_ms->Record(timer.Millis());
  metrics.generation->Set(static_cast<double>(generation.id()));
  return set;
}

RrIndex::RrIndex(std::shared_ptr<const DirectedGraph> graph,
                 std::size_t num_threads)
    : view_(ReversedGraphView::Build(std::move(graph))),
      pool_(num_threads) {}

Result<std::shared_ptr<const RrSketchSet>> RrIndex::Acquire(
    std::shared_ptr<const serve::BankGeneration> generation) {
  std::shared_ptr<const RrSketchSet> previous;
  std::shared_ptr<const serve::BankGeneration> previous_rows;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (current_ != nullptr && current_->generation() == generation->id()) {
      return current_;
    }
    previous = current_;
    previous_rows = indexed_rows_;
  }
  // Build outside the lock: inversion is the expensive step and concurrent
  // readers of the previous set must not stall behind it. The previous
  // set + rows are the incremental diff base — unchanged blocks reuse
  // their postings.
  RrBuildOptions options;
  options.pool = &pool_;
  if (previous != nullptr && previous_rows != nullptr) {
    options.previous = previous.get();
    options.previous_rows = previous_rows.get();
  }
  auto built = RrSketchSet::Build(view_, *generation, options);
  IF_RETURN_NOT_OK(built.status());
  auto set = std::make_shared<const RrSketchSet>(std::move(*built));
  std::lock_guard<std::mutex> lock(mutex_);
  // A racing builder may have published the same (or a newer) generation;
  // keep the newest — generations only move forward.
  if (current_ == nullptr || current_->generation() <= set->generation()) {
    current_ = set;
    indexed_rows_ = std::move(generation);
    ever_built_ = true;
    return current_;
  }
  ever_built_ = true;
  return current_->generation() == set->generation() ? current_ : set;
}

void RrIndex::Prime(std::shared_ptr<const serve::BankGeneration> generation) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!ever_built_) return;
  }
  (void)Acquire(std::move(generation));
}

}  // namespace infoflow::seedmax
