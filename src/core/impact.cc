#include "core/impact.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/strip_reachability.h"
#include "util/check.h"

namespace infoflow {

std::uint64_t ImpactDistribution::Total() const {
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  return total;
}

double ImpactDistribution::Mean() const {
  const std::uint64_t total = Total();
  if (total == 0) return 0.0;
  double weighted = 0.0;
  for (std::size_t k = 0; k < counts.size(); ++k) {
    weighted += static_cast<double>(k) * static_cast<double>(counts[k]);
  }
  return weighted / static_cast<double>(total);
}

void ImpactDistribution::Record(std::uint32_t impact) {
  if (impact >= counts.size()) counts.resize(impact + 1, 0);
  ++counts[impact];
}

namespace {

/// \brief 64 independent Bernoulli(p) draws packed into one word.
///
/// Uses the binary-expansion composition: with p = 0.b₁b₂…b₃₂, processing
/// the expansion from its least significant bit upward with
/// `acc = bᵢ ? (acc | r) : (acc & r)` over fresh random words r leaves each
/// bit of `acc` set with probability p (to 2⁻³² precision) — ≤ 32 RNG words
/// for 64 draws instead of 64 uniforms, and usually far fewer since the
/// loop starts at the expansion's lowest set bit.
std::uint64_t BernoulliWord(double p, Rng& rng) {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return ~std::uint64_t{0};
  const auto m = static_cast<std::uint32_t>(
      std::lround(std::ldexp(p, 32)));
  if (m == 0) return 0;
  std::uint64_t acc = 0;
  for (int i = std::countr_zero(m); i < 32; ++i) {
    const std::uint64_t r = rng.NextU64();
    acc = ((m >> i) & 1) != 0 ? (acc | r) : (acc & r);
  }
  return acc;
}

}  // namespace

ImpactDistribution SimulateImpact(const PointIcm& model, NodeId source,
                                  std::size_t num_cascades, Rng& rng) {
  IF_CHECK(source < model.graph().num_nodes())
      << "source " << source << " out of range";
  IF_CHECK(num_cascades > 0) << "need at least one cascade";
  // Bit-parallel cascade simulation: 64·W cascades per BFS pass. Deciding
  // *every* edge up front and taking reachability from the source is the
  // pseudo-state view of the cascade process (icm.h: the derived
  // active-state has exactly the cascade distribution), so each lane of a
  // strip is one cascade. BernoulliWord decides an edge for 64 lanes at
  // once; AccumulateReachedCounts tallies the per-lane spread sizes. Deep
  // cascade budgets widen to W-word strips (graph/strip_reachability.h);
  // the edge words are drawn block-by-block in the same order at every
  // width, so the RNG stream — and therefore every cascade's edge draws
  // and the tallied distribution — is identical at every width.
  const DirectedGraph& graph = model.graph();
  const std::vector<NodeId> sources{source};
  ImpactDistribution out;
  const unsigned strip_words =
      ResolveStripWords(LaneWidth::kAuto, num_cascades, graph.num_nodes(),
                        graph.num_edges());
  auto workspace = StripWorkspace::Create(strip_words, graph);
  std::vector<std::uint64_t> strip(graph.num_edges() * strip_words);
  std::vector<std::uint32_t> reached(std::size_t{strip_words} * 64);
  for (std::size_t done = 0; done < num_cascades;
       done += std::size_t{64} * strip_words) {
    std::uint64_t lane_mask[kMaxStripWords];
    for (unsigned w = 0; w < strip_words; ++w) {
      const std::size_t block_done = done + std::size_t{64} * w;
      if (block_done >= num_cascades) {
        lane_mask[w] = 0;
        for (EdgeId e = 0; e < graph.num_edges(); ++e) {
          strip[std::size_t{e} * strip_words + w] = 0;
        }
        continue;
      }
      const std::size_t lanes =
          std::min<std::size_t>(64, num_cascades - block_done);
      lane_mask[w] =
          lanes >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
      for (EdgeId e = 0; e < graph.num_edges(); ++e) {
        strip[std::size_t{e} * strip_words + w] =
            BernoulliWord(model.prob(e), rng);
      }
    }
    workspace->Run(graph, sources, strip.data(), lane_mask);
    std::fill(reached.begin(), reached.end(), 0);
    workspace->AccumulateReachedCounts(reached.data());
    for (unsigned w = 0; w < strip_words; ++w) {
      const std::size_t block_done = done + std::size_t{64} * w;
      if (block_done >= num_cascades) break;
      const std::size_t lanes =
          std::min<std::size_t>(64, num_cascades - block_done);
      for (std::size_t l = 0; l < lanes; ++l) {
        out.Record(reached[std::size_t{w} * 64 + l] - 1);
      }
    }
  }
  return out;
}

double ImpactPmf::Mean() const {
  double mean = 0.0;
  for (std::size_t k = 0; k < probs.size(); ++k) {
    mean += static_cast<double>(k) * probs[k];
  }
  return mean;
}

Result<ImpactPmf> AnalyticImpact(const PointIcm& model, NodeId source,
                                 const analytic::AnalyticOptions& options) {
  auto result = analytic::CascadeSizePmf(model.graph(), model.probs(), source,
                                         options);
  IF_RETURN_NOT_OK(result.status());
  analytic::CascadePmf pmf = std::move(result).ValueOrDie();
  ImpactPmf out;
  out.probs = std::move(pmf.impact);
  out.method = pmf.method;
  out.report = pmf.report;
  return out;
}

ImpactDistribution SimulateImpact(const BetaIcm& model, NodeId source,
                                  std::size_t num_cascades, Rng& rng) {
  IF_CHECK(source < model.graph().num_nodes())
      << "source " << source << " out of range";
  IF_CHECK(num_cascades > 0) << "need at least one cascade";
  // Stays scalar: every cascade runs on a *different* PointIcm drawn from
  // the edge Betas, so there is no shared edge distribution to batch 64
  // lanes under.
  ImpactDistribution out;
  for (std::size_t i = 0; i < num_cascades; ++i) {
    const PointIcm icm = model.SampleIcm(rng);
    const ActiveState s = icm.SampleCascade({source}, rng);
    out.Record(static_cast<std::uint32_t>(s.active_nodes.size() - 1));
  }
  return out;
}

}  // namespace infoflow
