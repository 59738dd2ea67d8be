/// \file sample_bank.h
/// \brief A shared bank of retained MH pseudo-states for amortized queries.
///
/// Answering a flow query with a fresh chain pays burn-in δ plus
/// (δ′+1)·N transitions *per query* (§III-B/D). But the retained states a
/// chain produces are samples of Pr[x | M] regardless of which flow the
/// caller later asks about — the estimator of Eq. 5 only replays
/// reachability over them. A SampleBank therefore materializes the retained
/// states of a MultiChainSampler once and lets arbitrarily many queries
/// (end-to-end, community, joint, conditional — see serve/query_engine.h)
/// reuse them, turning the per-query cost into a per-*bank* cost.
///
/// Storage is one word-packed bit row per retained state (bit e = edge e's
/// activity, layout of graph/reachability.h's RunPacked), chain-major:
/// row r belongs to chain r / rows_per_chain, preserving the per-chain
/// draw order that the convergence diagnostics (stats/convergence.h) need.
/// A 14k-edge fig6 graph packs a state into 1.75 KB — a 4096-state bank is
/// ~7 MB where the byte-per-edge PseudoState form would be ~57 MB.
///
/// Each generation additionally carries a **transposed, edge-major plane**:
/// rows are grouped into blocks of 64 and, per block, each edge stores one
/// word whose bit s is the edge's activity in the block's row s. That is
/// the one-word strip plane (graph/strip_plane.h at W=1), which
/// StripWorkspace replays to answer reachability for 64 retained states in
/// a single BFS pass. The plane is built at Fill time by a cache-blocked
/// 64×64 bitset transpose of the packed rows (graph/bit_transpose.h) and
/// doubles the bank's footprint (the 4096-state fig6 bank goes from ~7 MB
/// to ~14 MB) — the price of the bit-parallel query path's
/// ~order-of-magnitude speedup. Wider strip planes (W ∈ {4, 8}) are
/// interleaved from it lazily, per width served.
///
/// Generations: the bank hands out immutable `BankGeneration` objects by
/// shared_ptr. `Refresh()` advances the chains (burn-in is paid only once,
/// at Create) and publishes a new generation; readers holding the old one
/// are never invalidated — the swap is a pointer exchange under a mutex,
/// and the old rows are freed when the last in-flight reader drops them.
///
/// \code
///   auto bank = SampleBank::Create(model, options, /*seed=*/42);
///   std::shared_ptr<const BankGeneration> gen = bank->Acquire();
///   // ... answer many queries against *gen ...
///   bank->Refresh();            // background thread; readers unaffected
/// \endcode

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/icm.h"
#include "core/multi_chain.h"
#include "graph/reachability.h"
#include "graph/strip_plane.h"
#include "obs/metrics.h"
#include "util/status.h"
#include "util/timer.h"

namespace infoflow::serve {

/// \brief Sizing and chain tuning for a SampleBank.
struct BankOptions {
  /// Requested retained states per generation. Rounded up to a whole number
  /// per chain (MultiChainSampler's ⌈N/K⌉ contract), so the realized row
  /// count is num_chains·⌈num_states/num_chains⌉.
  std::size_t num_states = 4096;
  /// Chain tuning (K, threads, burn-in δ, thinning δ′).
  MultiChainOptions chain;

  /// Validates the option values.
  Status Validate() const;
};

/// \brief One immutable, generation-tagged snapshot of bank rows.
///
/// Thread-safe by construction (all members const after fill); readers on
/// any thread may BFS over rows concurrently.
class BankGeneration {
 public:
  /// Monotonic generation id (1 for the Create fill, +1 per Refresh).
  std::uint64_t id() const { return id_; }
  /// Id of the model epoch the rows were drawn from (1 = the model the
  /// bank was created with; bumped by Rebuild on streaming model updates).
  std::uint64_t model_epoch() const { return model_epoch_; }
  /// Number of retained-state rows.
  std::size_t num_rows() const { return num_rows_; }
  /// Edge count of the model the rows were drawn from.
  std::size_t num_edges() const { return num_edges_; }
  /// 64-bit words per row: PackedRowWords(num_edges()).
  std::size_t words_per_row() const { return words_per_row_; }
  /// Number of chains the rows are striped over.
  std::size_t num_chains() const { return num_chains_; }
  /// Rows per chain (num_rows / num_chains; chains are equal-length).
  std::size_t rows_per_chain() const { return rows_per_chain_; }

  /// Packed edge-activity row `r` (words_per_row() words) — the form
  /// ReachabilityWorkspace::RunPacked consumes directly.
  const std::uint64_t* Row(std::size_t r) const {
    return words_.data() + r * words_per_row_;
  }

  /// Activity of edge `e` in row `r`.
  bool EdgeActive(std::size_t r, EdgeId e) const {
    return PackedEdgeActive(Row(r), e);
  }

  /// Number of 64-row sample blocks: ⌈num_rows / 64⌉. Block b covers rows
  /// [64·b, min(64·(b+1), num_rows)).
  std::size_t num_blocks() const { return (num_rows_ + 63) / 64; }

  /// Valid-lane mask of block `b`: bit s set iff row 64·b + s exists. All
  /// ones for every block except possibly the last (ragged tail when
  /// num_rows is not a multiple of 64).
  std::uint64_t BlockLaneMask(std::size_t b) const {
    const std::size_t rows = num_rows_ - b * 64;
    return rows >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << rows) - 1;
  }

  /// Edge-major plane of block `b`: num_edges() words, word e's bit s =
  /// edge e's activity in row 64·b + s. This is strip b of the one-word
  /// plane AcquireStripPlane(1) returns. Bits beyond the lane mask are zero.
  const std::uint64_t* BlockEdgeWords(std::size_t b) const {
    return edge_plane_->StripWords(b);
  }

  /// \brief Strip-major plane for `width`-word strips (width ∈ {1, 4, 8}).
  /// Word `[(s·num_edges + e)·width + w]` is block s·width+w's word e, so
  /// one StripWorkspace pass replays 64·width rows.
  ///
  /// Width 1 is the edge-major plane built at fill time, returned as is.
  /// Wider planes are built lazily on first use by interleaving it (a word
  /// gather — no new bit transpose) and cached per width for the
  /// generation's lifetime: the plane is immutable after publish and
  /// handed out by shared_ptr swap under an internal mutex, so every query
  /// engine sharing this generation re-uses one plane instead of
  /// re-interleaving per width choice, and readers keep their plane across
  /// concurrent Refresh generations (same RCU discipline as the generation
  /// itself). Thread-safe.
  std::shared_ptr<const StripPlane> AcquireStripPlane(unsigned width) const;

  /// The chain row `r` was drawn by (rows are chain-major).
  std::size_t ChainOfRow(std::size_t r) const { return r / rows_per_chain_; }

  /// \brief The model the rows were drawn from — the generation-consistent
  /// snapshot the analytic query backend computes against (answers from one
  /// generation always use the model that produced its rows, even while a
  /// drift rebuild is publishing a newer epoch). Never null for bank-filled
  /// generations.
  const PointIcm* model() const { return model_ptr_.get(); }

  /// Unpacks row `r` into a byte-per-edge PseudoState (tests, debugging).
  PseudoState UnpackRow(std::size_t r) const;

 private:
  friend class SampleBank;
  BankGeneration(std::uint64_t id, std::uint64_t model_epoch,
                 std::size_t num_edges, std::size_t num_chains,
                 std::size_t rows_per_chain);

  std::uint64_t id_;
  std::uint64_t model_epoch_;
  std::size_t num_edges_;
  std::size_t words_per_row_;
  std::size_t num_chains_;
  std::size_t rows_per_chain_;
  std::size_t num_rows_;
  /// Transposes words_ into edge_plane_ (called once, at fill time, before
  /// the generation is published).
  void BuildEdgePlane();

  /// The epoch's model, shared with the owning bank (see model()).
  std::shared_ptr<const PointIcm> model_ptr_;
  /// Row-major packed bits: words_[r·words_per_row + w].
  std::vector<std::uint64_t> words_;
  /// Edge-major packed bits, the one-word strip plane: word b·num_edges + e
  /// bit s = edge e's activity in row 64·b + s.
  std::shared_ptr<const StripPlane> edge_plane_;

  /// Lazily built strip planes, slot 0 → width 4, slot 1 → width 8 (see
  /// AcquireStripPlane). The mutex lives behind unique_ptr so the
  /// generation stays movable during construction; each cached plane costs
  /// another edge_plane_-sized footprint, paid only for widths served.
  mutable std::unique_ptr<std::mutex> strip_mutex_;
  mutable std::shared_ptr<const StripPlane> strip_planes_[2];
};

/// \brief Owner of the chains and the current generation.
///
/// Thread-safety: `Acquire()` and `GenerationAgeSeconds()` may be called
/// from any thread; `Refresh()` must be driven by one thread at a time (it
/// advances the stateful chains — the serve daemon dedicates a background
/// thread to it).
class SampleBank {
 public:
  /// \brief Builds the chains, pays burn-in, and fills generation 1.
  /// Unconditional by design: rows sample Pr[x | M] (Eq. 3) so conditional
  /// queries can be answered by filtering rows with I(x, C) (Eq. 7/8)
  /// instead of binding the bank to one condition set.
  static Result<SampleBank> Create(PointIcm model, BankOptions options,
                                   std::uint64_t seed);

  /// The current generation; never null, never mutated after publish.
  std::shared_ptr<const BankGeneration> Acquire() const;

  /// \brief Draws a fresh set of rows from the (already burned-in) chains
  /// and atomically publishes it as the next generation.
  void Refresh();

  /// \brief Replaces the model the rows sample from (a streamed
  /// ModelEpoch): builds fresh chains seeded with
  /// `MultiChainSampler::DeriveChainSeed(create_seed, model_epoch)` — so a
  /// daemon restarted on the same evidence re-derives the same chains —
  /// pays burn-in, and publishes the next generation tagged with
  /// `model_epoch`. In-flight readers of older generations are never
  /// blocked or invalidated. Serialized against Refresh().
  Status Rebuild(PointIcm model, std::uint64_t model_epoch);

  /// The model the current chains sample from.
  const PointIcm& model() const { return *model_; }

  /// Model-epoch id of the current chains (1 until the first Rebuild).
  std::uint64_t model_epoch() const;

  /// Seconds since the current generation was published.
  double GenerationAgeSeconds() const;

  /// The model's graph (shared with every generation's rows).
  const std::shared_ptr<const DirectedGraph>& graph_ptr() const {
    return graph_;
  }

  /// Realized rows per generation (num_chains·⌈num_states/num_chains⌉).
  std::size_t rows_per_generation() const;

 private:
  SampleBank(std::unique_ptr<MultiChainSampler> engine,
             std::shared_ptr<const DirectedGraph> graph, BankOptions options);

  /// Streams one generation's rows out of the chains (parallel across
  /// chains; each chain packs its own disjoint row range).
  std::shared_ptr<const BankGeneration> Fill(std::uint64_t id,
                                             std::uint64_t model_epoch);

  std::unique_ptr<MultiChainSampler> engine_;
  std::shared_ptr<const DirectedGraph> graph_;
  BankOptions options_;
  /// The model engine_'s chains currently target (kept for drift diffs and
  /// rebuild validation); optional only because PointIcm lacks a default
  /// constructor — set at Create, never empty afterwards.
  std::optional<PointIcm> model_;
  /// The same model as a shared snapshot, stamped onto every generation
  /// Fill publishes (guarded by engine_mutex_ like model_).
  std::shared_ptr<const PointIcm> model_shared_;
  /// The Create seed; Rebuild derives per-epoch chain seeds from it.
  std::uint64_t base_seed_ = 0;
  /// Model epoch of the current chains.
  std::uint64_t model_epoch_ = 1;
  /// Serializes chain mutation (Refresh vs Rebuild race from the serve
  /// daemon's refresh and drift-rebuild threads).
  std::unique_ptr<std::mutex> engine_mutex_;
  /// Guards current_/age_; unique_ptr keeps the bank movable (Result<T>).
  std::unique_ptr<std::mutex> mutex_;
  std::shared_ptr<const BankGeneration> current_;
  /// Restarted at each publish; read for the generation-age gauge.
  WallTimer age_;

  obs::Gauge* metric_generation_;
  obs::Gauge* metric_rows_;
  obs::Gauge* metric_age_s_;
  obs::Gauge* metric_model_epoch_;
  /// serve.bank.plane_bytes.{rows,64}: the two layouts every fill builds
  /// (256/512 are set by AcquireStripPlane when those planes are built).
  obs::Gauge* metric_rows_bytes_;
  obs::Gauge* metric_plane64_bytes_;
  obs::Counter* metric_refreshes_;
  obs::Counter* metric_rebuilds_;
  obs::Histogram* metric_fill_ms_;
  obs::Histogram* metric_transpose_ms_;
};

}  // namespace infoflow::serve
