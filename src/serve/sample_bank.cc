#include "serve/sample_bank.h"

#include <algorithm>
#include <string>
#include <utility>

#include "graph/bit_transpose.h"
#include "obs/trace.h"
#include "util/check.h"

namespace infoflow::serve {
namespace {

/// Resident bytes of a plane's words and lane masks (the
/// serve.bank.plane_bytes.* gauges).
double PlaneBytes(const StripPlane& plane) {
  return static_cast<double>((plane.words.size() + plane.lane_masks.size()) *
                             sizeof(std::uint64_t));
}

}  // namespace

Status BankOptions::Validate() const {
  if (num_states == 0) {
    return Status::InvalidArgument("bank num_states must be positive");
  }
  return chain.Validate();
}

BankGeneration::BankGeneration(std::uint64_t id, std::uint64_t model_epoch,
                               std::size_t num_edges, std::size_t num_chains,
                               std::size_t rows_per_chain)
    : id_(id),
      model_epoch_(model_epoch),
      num_edges_(num_edges),
      words_per_row_(PackedRowWords(num_edges)),
      num_chains_(num_chains),
      rows_per_chain_(rows_per_chain),
      num_rows_(num_chains * rows_per_chain),
      words_(num_rows_ * words_per_row_, 0),
      strip_mutex_(std::make_unique<std::mutex>()) {}

void BankGeneration::BuildEdgePlane() {
  auto edge_plane = std::make_shared<StripPlane>();
  edge_plane->width = 1;
  edge_plane->num_edges = num_edges_;
  edge_plane->num_blocks = num_blocks();
  edge_plane->num_strips = num_blocks();
  edge_plane->words.assign(num_blocks() * num_edges_, 0);
  edge_plane->lane_masks.resize(num_blocks());
  // Cache-blocked transpose: each (64-row block × 64-edge column) tile is
  // gathered from the packed rows, transposed in registers, and scattered
  // into the block's edge-major plane. A ragged tail block zero-fills the
  // missing rows, so bits above the lane mask are always clear.
  std::uint64_t tile[64];
  for (std::size_t b = 0; b < num_blocks(); ++b) {
    edge_plane->lane_masks[b] = BlockLaneMask(b);
    const std::size_t row0 = b * 64;
    const std::size_t rows = std::min<std::size_t>(64, num_rows_ - row0);
    std::uint64_t* plane = edge_plane->words.data() + b * num_edges_;
    for (std::size_t w = 0; w < words_per_row_; ++w) {
      for (std::size_t i = 0; i < rows; ++i) tile[i] = Row(row0 + i)[w];
      for (std::size_t i = rows; i < 64; ++i) tile[i] = 0;
      Transpose64x64(tile);
      const std::size_t e0 = w * 64;
      const std::size_t cols = std::min<std::size_t>(64, num_edges_ - e0);
      for (std::size_t j = 0; j < cols; ++j) plane[e0 + j] = tile[j];
    }
  }
  edge_plane_ = std::move(edge_plane);
}

std::shared_ptr<const StripPlane> BankGeneration::AcquireStripPlane(
    unsigned width) const {
  IF_CHECK(width == 1 || width == 4 || width == 8)
      << "unsupported strip width " << width;
  if (width == 1) return edge_plane_;
  const std::size_t slot = width == 4 ? 0 : 1;
  {
    std::lock_guard<std::mutex> lock(*strip_mutex_);
    if (strip_planes_[slot]) return strip_planes_[slot];
  }
  // Interleave outside the lock; two first readers may race a duplicate
  // build and the publish keeps one winner — the plane is a pure function
  // of the immutable edge-major plane either way.
  obs::TraceSpan span("serve/bank_strip_interleave");
  WallTimer timer;
  auto plane = std::make_shared<const StripPlane>(BuildStripPlane(
      width, num_edges_, num_blocks(),
      [this](std::size_t b) { return BlockEdgeWords(b); },
      [this](std::size_t b) { return BlockLaneMask(b); }));
  obs::GetHistogram("serve.bank.strip_interleave_ms",
                    {0.1, 0.5, 2.5, 10.0, 50.0, 250.0, 1000.0})
      .Record(timer.Millis());
  obs::GetGauge("serve.bank.plane_bytes." + std::to_string(64 * width))
      .Set(PlaneBytes(*plane));
  std::lock_guard<std::mutex> lock(*strip_mutex_);
  if (!strip_planes_[slot]) strip_planes_[slot] = std::move(plane);
  return strip_planes_[slot];
}

PseudoState BankGeneration::UnpackRow(std::size_t r) const {
  IF_CHECK(r < num_rows_) << "row " << r << " out of range " << num_rows_;
  PseudoState state(num_edges_, 0);
  for (EdgeId e = 0; e < num_edges_; ++e) {
    state[e] = EdgeActive(r, e) ? 1 : 0;
  }
  return state;
}

Result<SampleBank> SampleBank::Create(PointIcm model, BankOptions options,
                                      std::uint64_t seed) {
  IF_RETURN_NOT_OK(options.Validate());
  std::shared_ptr<const DirectedGraph> graph = model.graph_ptr();
  // The model is kept alongside the chains: Rebuild validates epochs
  // against it and the serve daemon diffs streamed epochs against it.
  PointIcm kept = model;
  // The bank is unconditional (empty C): conditioning happens at query time
  // by filtering rows, so one bank serves every condition set.
  auto engine = MultiChainSampler::Create(std::move(model), FlowConditions{},
                                          options.chain, seed);
  if (!engine.ok()) return engine.status();
  SampleBank bank(
      std::make_unique<MultiChainSampler>(std::move(engine).ValueOrDie()),
      std::move(graph), options);
  bank.model_.emplace(std::move(kept));
  bank.model_shared_ = std::make_shared<const PointIcm>(*bank.model_);
  bank.base_seed_ = seed;
  bank.current_ = bank.Fill(/*id=*/1, /*model_epoch=*/1);
  bank.age_.Restart();
  return bank;
}

SampleBank::SampleBank(std::unique_ptr<MultiChainSampler> engine,
                       std::shared_ptr<const DirectedGraph> graph,
                       BankOptions options)
    : engine_(std::move(engine)),
      graph_(std::move(graph)),
      options_(options),
      engine_mutex_(std::make_unique<std::mutex>()),
      mutex_(std::make_unique<std::mutex>()),
      metric_generation_(&obs::GetGauge("serve.bank.generation")),
      metric_rows_(&obs::GetGauge("serve.bank.rows")),
      metric_age_s_(&obs::GetGauge("serve.bank.age_s")),
      metric_model_epoch_(&obs::GetGauge("serve.bank.model_epoch")),
      metric_rows_bytes_(&obs::GetGauge("serve.bank.plane_bytes.rows")),
      metric_plane64_bytes_(&obs::GetGauge("serve.bank.plane_bytes.64")),
      metric_refreshes_(&obs::GetCounter("serve.bank.refreshes_total")),
      metric_rebuilds_(&obs::GetCounter("serve.bank.rebuilds_total")),
      metric_fill_ms_(&obs::GetHistogram(
          "serve.bank.fill_ms",
          {1.0, 5.0, 25.0, 100.0, 500.0, 2500.0, 10000.0})),
      metric_transpose_ms_(&obs::GetHistogram(
          "serve.bank.transpose_ms",
          {0.1, 0.5, 2.5, 10.0, 50.0, 250.0, 1000.0})) {}

std::size_t SampleBank::rows_per_generation() const {
  return engine_->num_chains() * engine_->SamplesPerChain(options_.num_states);
}

std::shared_ptr<const BankGeneration> SampleBank::Fill(
    std::uint64_t id, std::uint64_t model_epoch) {
  obs::TraceSpan span("serve/bank_fill");
  WallTimer timer;
  const std::size_t rows_per_chain =
      engine_->SamplesPerChain(options_.num_states);
  auto generation = std::make_shared<BankGeneration>(
      BankGeneration(id, model_epoch, graph_->num_edges(),
                     engine_->num_chains(), rows_per_chain));
  generation->model_ptr_ = model_shared_;
  const std::size_t words_per_row = generation->words_per_row_;
  std::uint64_t* words = generation->words_.data();
  // ForEachSample runs the visitor on the worker owning each chain; rows are
  // chain-major, so chain k writes only its own [k·rows_per_chain,
  // (k+1)·rows_per_chain) slice — disjoint, no synchronization needed.
  engine_->ForEachSample(
      options_.num_states,
      [&](std::size_t chain, std::size_t index, const PseudoState& state) {
        const std::size_t row = chain * rows_per_chain + index;
        std::uint64_t* out = words + row * words_per_row;
        for (EdgeId e = 0; e < state.size(); ++e) {
          if (state[e] != 0) out[e >> 6] |= std::uint64_t{1} << (e & 63);
        }
      });
  {
    // The one-word strip plane every replay width starts from; built
    // before publish so readers only ever see a complete plane.
    obs::TraceSpan transpose_span("serve/bank_transpose");
    WallTimer transpose_timer;
    generation->BuildEdgePlane();
    metric_transpose_ms_->Record(transpose_timer.Millis());
  }
  metric_rows_bytes_->Set(
      static_cast<double>(generation->words_.size() * sizeof(std::uint64_t)));
  metric_plane64_bytes_->Set(PlaneBytes(*generation->edge_plane_));
  metric_fill_ms_->Record(timer.Millis());
  metric_generation_->Set(static_cast<double>(id));
  metric_rows_->Set(static_cast<double>(generation->num_rows()));
  metric_model_epoch_->Set(static_cast<double>(model_epoch));
  return generation;
}

std::shared_ptr<const BankGeneration> SampleBank::Acquire() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  return current_;
}

void SampleBank::Refresh() {
  // Chains stay burned-in across generations: the next fill resumes the
  // walk, paying only (δ′+1) steps per fresh row.
  std::lock_guard<std::mutex> engine_lock(*engine_mutex_);
  const std::uint64_t next_id = Acquire()->id() + 1;
  std::shared_ptr<const BankGeneration> next = Fill(next_id, model_epoch_);
  {
    std::lock_guard<std::mutex> lock(*mutex_);
    current_ = std::move(next);
    age_.Restart();
  }
  metric_refreshes_->Increment();
  metric_age_s_->Set(0.0);
}

Status SampleBank::Rebuild(PointIcm model, std::uint64_t model_epoch) {
  if (model.graph_ptr()->num_edges() != graph_->num_edges() ||
      model.graph_ptr()->num_nodes() != graph_->num_nodes()) {
    return Status::InvalidArgument(
        "rebuild model topology mismatch: bank graph has ",
        graph_->num_nodes(), " nodes / ", graph_->num_edges(),
        " edges, model has ", model.graph_ptr()->num_nodes(), " / ",
        model.graph_ptr()->num_edges());
  }
  std::lock_guard<std::mutex> engine_lock(*engine_mutex_);
  PointIcm kept = model;
  // Fresh chains for the new model, re-burned-in: the old chains'
  // stationary distribution is the old model's Pr[x | M]. The seed is
  // derived from the Create seed and the epoch id, so a restarted daemon
  // replaying the same evidence rebuilds identical chains.
  auto engine = MultiChainSampler::Create(
      std::move(model), FlowConditions{}, options_.chain,
      MultiChainSampler::DeriveChainSeed(base_seed_, model_epoch));
  if (!engine.ok()) return engine.status();
  engine_ = std::make_unique<MultiChainSampler>(
      std::move(engine).ValueOrDie());
  model_.emplace(std::move(kept));
  model_shared_ = std::make_shared<const PointIcm>(*model_);
  model_epoch_ = model_epoch;
  const std::uint64_t next_id = Acquire()->id() + 1;
  std::shared_ptr<const BankGeneration> next = Fill(next_id, model_epoch);
  {
    std::lock_guard<std::mutex> lock(*mutex_);
    current_ = std::move(next);
    age_.Restart();
  }
  metric_rebuilds_->Increment();
  metric_age_s_->Set(0.0);
  return Status::OK();
}

std::uint64_t SampleBank::model_epoch() const {
  std::lock_guard<std::mutex> lock(*engine_mutex_);
  return model_epoch_;
}

double SampleBank::GenerationAgeSeconds() const {
  std::lock_guard<std::mutex> lock(*mutex_);
  const double age = age_.Seconds();
  metric_age_s_->Set(age);
  return age;
}

}  // namespace infoflow::serve
