#include "core/multi_chain.h"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>

#include "obs/trace.h"
#include "util/check.h"
#include "util/timer.h"

namespace infoflow {

Status MultiChainOptions::Validate() const {
  if (num_chains == 0) {
    return Status::InvalidArgument("num_chains must be positive");
  }
  if (num_chains > (1u << 12)) {
    return Status::InvalidArgument("num_chains ", num_chains,
                                   " unreasonably large");
  }
  return mh.Validate();
}

std::uint64_t MultiChainSampler::DeriveChainSeed(std::uint64_t seed,
                                                 std::size_t chain) {
  // SplitMix64 finalizer over golden-ratio-spaced inputs: the documented
  // contract of the header. Depends only on (seed, chain).
  std::uint64_t z = seed + (static_cast<std::uint64_t>(chain) + 1) *
                               0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Result<MultiChainSampler> MultiChainSampler::Create(PointIcm model,
                                                    FlowConditions conditions,
                                                    MultiChainOptions options,
                                                    std::uint64_t seed) {
  IF_RETURN_NOT_OK(options.Validate());
  std::vector<MhSampler> chains;
  chains.reserve(options.num_chains);
  for (std::size_t k = 0; k < options.num_chains; ++k) {
    auto chain = MhSampler::Create(model, conditions, options.mh,
                                   Rng(DeriveChainSeed(seed, k)));
    if (!chain.ok()) return chain.status();
    chains.push_back(std::move(chain).ValueOrDie());
  }
  return MultiChainSampler(std::move(chains), options);
}

MultiChainSampler::MultiChainSampler(std::vector<MhSampler> chains,
                                     MultiChainOptions options)
    : chains_(std::move(chains)),
      options_(options),
      metric_rhat_(&obs::GetGauge("multi_chain.rhat")),
      metric_ess_(&obs::GetGauge("multi_chain.ess")),
      metric_mcse_(&obs::GetGauge("multi_chain.mcse")),
      metric_samples_drawn_(&obs::GetCounter("multi_chain.samples_drawn")),
      metric_estimates_(&obs::GetCounter("multi_chain.estimates")) {
  workspaces_.reserve(chains_.size());
  chain_metrics_.reserve(chains_.size());
  for (std::size_t k = 0; k < chains_.size(); ++k) {
    workspaces_.emplace_back(ModelGraph());
    const std::string prefix =
        "multi_chain.chain." + std::to_string(k) + ".";
    chain_metrics_.push_back(
        {&obs::GetGauge(prefix + "acceptance_rate"),
         &obs::GetGauge(prefix + "samples_per_s")});
  }
  if (options_.use_batch_reachability) {
    batch_workspaces_.reserve(chains_.size());
    pack_buffers_.reserve(chains_.size());
    for (std::size_t k = 0; k < chains_.size(); ++k) {
      batch_workspaces_.push_back(StripWorkspace::Create(1, ModelGraph()));
      pack_buffers_.emplace_back(ModelGraph().num_edges(), 0);
    }
  }
  std::size_t threads = options_.num_threads;
  if (threads == 0) {
    threads = std::min<std::size_t>(
        chains_.size(),
        std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  }
  pool_ = std::make_unique<ThreadPool>(threads);
}

std::size_t MultiChainSampler::SamplesPerChain(std::size_t num_samples) const {
  IF_CHECK(num_samples > 0) << "need at least one sample";
  return (num_samples + chains_.size() - 1) / chains_.size();
}

std::uint64_t MultiChainSampler::steps_taken() const {
  std::uint64_t total = 0;
  for (const MhSampler& c : chains_) total += c.steps_taken();
  return total;
}

std::uint64_t MultiChainSampler::steps_accepted() const {
  std::uint64_t total = 0;
  for (const MhSampler& c : chains_) total += c.steps_accepted();
  return total;
}

template <typename Record>
void MultiChainSampler::RunChains(std::size_t per_chain, const Record& record) {
  // One ParallelFor index per chain: chain k's samples are drawn in order on
  // a single worker, writing only to k's slots — results are independent of
  // the pool size and of scheduling.
  ParallelFor(*pool_, chains_.size(), [&](std::size_t k) {
    obs::TraceSpan span("multi_chain/chain_run");
    WallTimer timer;
    for (std::size_t i = 0; i < per_chain; ++i) {
      record(k, i, chains_[k].NextSample());
    }
    if constexpr (obs::MetricsEnabled()) {
      const double seconds = timer.Seconds();
      chains_[k].FlushMetrics();
      chain_metrics_[k].acceptance_rate->Set(chains_[k].acceptance_rate());
      chain_metrics_[k].samples_per_s->Set(
          seconds > 0.0 ? static_cast<double>(per_chain) / seconds : 0.0);
    }
  });
  metric_samples_drawn_->Increment(chains_.size() * per_chain);
}

namespace {

/// All-ones over the `lanes` valid samples of a block.
std::uint64_t LaneMask(std::size_t lanes) {
  return lanes >= 64 ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << lanes) - 1;
}

}  // namespace

template <typename EvalBlock>
void MultiChainSampler::RunChainsBatched(std::size_t per_chain,
                                         const EvalBlock& eval) {
  // Each chain packs its own 64-sample edge-major block (bit s of word e =
  // edge e active in sample s) and evaluates it in one BFS pass when full.
  // The pack buffer and batch workspace are per-chain, so the visitor stays
  // race-free under RunChains' one-worker-per-chain scheduling.
  RunChains(per_chain, [&](std::size_t k, std::size_t i,
                           const PseudoState& x) {
    std::vector<std::uint64_t>& block = pack_buffers_[k];
    const std::size_t lane = i & 63;
    if (lane == 0) std::fill(block.begin(), block.end(), 0);
    const std::uint64_t bit = std::uint64_t{1} << lane;
    for (EdgeId e = 0; e < x.size(); ++e) {
      if (x[e] != 0) block[e] |= bit;
    }
    if (lane == 63 || i + 1 == per_chain) {
      eval(k, i - lane, lane + 1, block.data());
    }
  });
}

void MultiChainSampler::PublishDiagnostics(const ChainDiagnostics& diag) {
  metric_rhat_->Set(diag.rhat);
  metric_ess_->Set(diag.ess);
  metric_mcse_->Set(diag.mcse);
  metric_estimates_->Increment();
}

void MultiChainSampler::ForEachSample(
    std::size_t num_samples,
    const std::function<void(std::size_t, std::size_t, const PseudoState&)>&
        visit) {
  obs::TraceSpan span("multi_chain/for_each_sample");
  RunChains(SamplesPerChain(num_samples), visit);
}

MultiChainEstimate MultiChainSampler::EstimateFlowProbability(
    NodeId source, NodeId sink, std::size_t num_samples) {
  obs::TraceSpan span("multi_chain/estimate_flow");
  const DirectedGraph& graph = ModelGraph();
  IF_CHECK(source < graph.num_nodes() && sink < graph.num_nodes());
  const std::size_t per_chain = SamplesPerChain(num_samples);
  const std::vector<NodeId> sources{source};
  std::vector<std::vector<double>> draws(chains_.size());
  for (auto& d : draws) d.assign(per_chain, 0.0);
  if (options_.use_batch_reachability) {
    RunChainsBatched(per_chain, [&](std::size_t k, std::size_t start,
                                    std::size_t lanes,
                                    const std::uint64_t* words) {
      const std::uint64_t lane_mask = LaneMask(lanes);
      std::uint64_t hits;
      batch_workspaces_[k]->RunUntil(graph, sources, words, sink, &lane_mask,
                                     &hits);
      for (std::size_t l = 0; l < lanes; ++l) {
        if ((hits >> l) & 1) draws[k][start + l] = 1.0;
      }
    });
  } else {
    RunChains(per_chain, [&](std::size_t k, std::size_t i,
                             const PseudoState& x) {
      draws[k][i] =
          workspaces_[k].RunUntil(graph, sources, x, sink) ? 1.0 : 0.0;
    });
  }
  const ChainDiagnostics diag = ComputeChainDiagnostics(draws);
  PublishDiagnostics(diag);
  return {diag.mean, diag};
}

std::vector<MultiChainEstimate> MultiChainSampler::EstimateCommunityFlow(
    NodeId source, const std::vector<NodeId>& sinks, std::size_t num_samples) {
  return EstimateCommunityFlowMulti({source}, sinks, num_samples);
}

std::vector<MultiChainEstimate> MultiChainSampler::EstimateCommunityFlowMulti(
    const std::vector<NodeId>& sources, const std::vector<NodeId>& sinks,
    std::size_t num_samples) {
  obs::TraceSpan span("multi_chain/estimate_community_flow");
  IF_CHECK(!sources.empty()) << "need at least one source";
  const DirectedGraph& graph = ModelGraph();
  const std::size_t per_chain = SamplesPerChain(num_samples);
  // draws[j][k] = chain k's indicator sequence for sink j.
  std::vector<std::vector<std::vector<double>>> draws(
      sinks.size(),
      std::vector<std::vector<double>>(chains_.size()));
  for (auto& per_sink : draws) {
    for (auto& d : per_sink) d.assign(per_chain, 0.0);
  }
  if (options_.use_batch_reachability) {
    RunChainsBatched(per_chain, [&](std::size_t k, std::size_t start,
                                    std::size_t lanes,
                                    const std::uint64_t* words) {
      const std::uint64_t lane_mask = LaneMask(lanes);
      batch_workspaces_[k]->Run(graph, sources, words, &lane_mask);
      for (std::size_t j = 0; j < sinks.size(); ++j) {
        const std::uint64_t hits =
            *batch_workspaces_[k]->ReachedMask(sinks[j]);
        for (std::size_t l = 0; l < lanes; ++l) {
          if ((hits >> l) & 1) draws[j][k][start + l] = 1.0;
        }
      }
    });
  } else {
    RunChains(per_chain, [&](std::size_t k, std::size_t i,
                             const PseudoState& x) {
      workspaces_[k].Run(graph, sources, x);
      for (std::size_t j = 0; j < sinks.size(); ++j) {
        if (workspaces_[k].IsReached(sinks[j])) draws[j][k][i] = 1.0;
      }
    });
  }
  std::vector<MultiChainEstimate> out;
  out.reserve(sinks.size());
  for (std::size_t j = 0; j < sinks.size(); ++j) {
    const ChainDiagnostics diag = ComputeChainDiagnostics(draws[j]);
    PublishDiagnostics(diag);  // gauges keep the last sink's values
    out.push_back({diag.mean, diag});
  }
  return out;
}

MultiChainEstimate MultiChainSampler::EstimateJointFlowProbability(
    const FlowConditions& flows, std::size_t num_samples) {
  obs::TraceSpan span("multi_chain/estimate_joint_flow");
  const DirectedGraph& graph = ModelGraph();
  ValidateConditions(graph, flows).CheckOK();
  const std::size_t per_chain = SamplesPerChain(num_samples);
  std::vector<std::vector<double>> draws(chains_.size());
  for (auto& d : draws) d.assign(per_chain, 0.0);
  if (options_.use_batch_reachability) {
    RunChainsBatched(per_chain, [&](std::size_t k, std::size_t start,
                                    std::size_t lanes,
                                    const std::uint64_t* words) {
      // Blockwise I(x, C): each constraint narrows the live lanes, so
      // later constraints only propagate through still-satisfying samples.
      std::uint64_t alive = LaneMask(lanes);
      std::vector<NodeId> src(1);
      for (const FlowConstraint& c : flows) {
        src[0] = c.source;
        std::uint64_t reached;
        batch_workspaces_[k]->RunUntil(graph, src, words, c.sink, &alive,
                                       &reached);
        alive = c.must_flow ? reached : alive & ~reached;
        if (alive == 0) break;
      }
      for (std::size_t l = 0; l < lanes; ++l) {
        if ((alive >> l) & 1) draws[k][start + l] = 1.0;
      }
    });
  } else {
    RunChains(per_chain, [&](std::size_t k, std::size_t i,
                             const PseudoState& x) {
      draws[k][i] =
          SatisfiesConditions(graph, x, flows, workspaces_[k]) ? 1.0 : 0.0;
    });
  }
  const ChainDiagnostics diag = ComputeChainDiagnostics(draws);
  PublishDiagnostics(diag);
  return {diag.mean, diag};
}

DispersionEstimate MultiChainSampler::SampleDispersion(
    NodeId source, std::size_t num_samples) {
  obs::TraceSpan span("multi_chain/sample_dispersion");
  const DirectedGraph& graph = ModelGraph();
  IF_CHECK(source < graph.num_nodes());
  const std::size_t per_chain = SamplesPerChain(num_samples);
  const std::vector<NodeId> sources{source};
  std::vector<std::vector<double>> draws(chains_.size());
  for (auto& d : draws) d.assign(per_chain, 0.0);
  if (options_.use_batch_reachability) {
    RunChainsBatched(per_chain, [&](std::size_t k, std::size_t start,
                                    std::size_t lanes,
                                    const std::uint64_t* words) {
      const std::uint64_t lane_mask = LaneMask(lanes);
      batch_workspaces_[k]->Run(graph, sources, words, &lane_mask);
      // counts[l] = nodes reached in sample l, source included.
      std::uint32_t counts[64] = {};
      batch_workspaces_[k]->AccumulateReachedCounts(counts);
      for (std::size_t l = 0; l < lanes; ++l) {
        draws[k][start + l] = static_cast<double>(counts[l] - 1);
      }
    });
  } else {
    RunChains(per_chain, [&](std::size_t k, std::size_t i,
                             const PseudoState& x) {
      workspaces_[k].Run(graph, sources, x);
      draws[k][i] =
          static_cast<double>(workspaces_[k].ReachedNodes().size() - 1);
    });
  }
  DispersionEstimate out;
  out.counts.reserve(chains_.size() * per_chain);
  for (const auto& d : draws) {
    for (double v : d) out.counts.push_back(static_cast<std::uint32_t>(v));
  }
  out.diagnostics = ComputeChainDiagnostics(draws);
  PublishDiagnostics(out.diagnostics);
  return out;
}

}  // namespace infoflow
