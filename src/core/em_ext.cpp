#include "core/em_ext.h"

#include <algorithm>
#include <vector>

#include "core/sharded_em.h"
#include "data/shard.h"
#include "math/kernels.h"

namespace ss {
namespace {

std::vector<std::uint32_t> ranking_of(const std::vector<double>& belief) {
  std::vector<std::uint32_t> order(belief.size());
  for (std::size_t j = 0; j < belief.size(); ++j) {
    order[j] = static_cast<std::uint32_t>(j);
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t x, std::uint32_t y) {
                     return belief[x] > belief[y];
                   });
  return order;
}

}  // namespace

std::vector<std::uint32_t> EstimateResult::ranking() const {
  return ranking_of(log_odds.size() == belief.size() && !belief.empty()
                        ? log_odds
                        : belief);
}

std::vector<double> vote_prior_posterior(const Dataset& dataset,
                                         bool independent_only) {
  std::size_t m = dataset.assertion_count();
  std::vector<double> posterior(m, 0.5);
  if (m == 0) return posterior;
  std::vector<double> support(m, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    support[j] = static_cast<double>(
        independent_only ? dataset.partition().independent_claimants(j).size()
                         : dataset.claims.support(j));
  }
  // Tree-shaped like every other global fold (bit-exact no-op here:
  // support counts are integer-valued doubles, so the tree's regrouped
  // partial sums are exact at any shape).
  double mean_support = kernels::tree_sum(nullptr, support.data(), m);
  mean_support /= static_cast<double>(m);
  if (mean_support <= 0.0) return posterior;
  for (std::size_t j = 0; j < m; ++j) {
    posterior[j] =
        std::clamp(support[j] / (support[j] + mean_support), 0.05, 0.95);
  }
  return posterior;
}

EmExtEstimator::EmExtEstimator(EmExtConfig config)
    : config_(std::move(config)) {}

EstimateResult EmExtEstimator::run(const Dataset& dataset,
                                   std::uint64_t seed) const {
  return run_detailed(dataset, seed).estimate;
}

// ShardedDataset::build validates the dataset before partitioning it.
EmExtResult EmExtEstimator::run_detailed(const Dataset& dataset,
                                         std::uint64_t seed) const {
  return ShardedEmEstimator(config_).run_detailed(
      ShardedDataset::build(dataset), seed);
}

EmSocialEstimator::EmSocialEstimator(EmExtConfig config)
    : config_(std::move(config)) {}

EstimateResult EmSocialEstimator::run(const Dataset& dataset,
                                      std::uint64_t seed) const {
  return run_detailed(dataset, seed).estimate;
}

EmExtResult EmSocialEstimator::run_detailed(const Dataset& dataset,
                                            std::uint64_t seed) const {
  return ShardedEmEstimator(config_, EmModel::kSocial)
      .run_detailed(ShardedDataset::build(dataset), seed);
}

EmIpsn12Estimator::EmIpsn12Estimator(EmExtConfig config)
    : config_(std::move(config)) {
  config_.warmup_iters = 0;
}

EstimateResult EmIpsn12Estimator::run(const Dataset& dataset,
                                      std::uint64_t seed) const {
  return run_detailed(dataset, seed).estimate;
}

EmExtResult EmIpsn12Estimator::run_detailed(const Dataset& dataset,
                                            std::uint64_t seed) const {
  dataset.validate();  // the copy below drops D, so check it here
  Dataset independent;
  independent.claims = dataset.claims;
  independent.dependency = DependencyIndicators::from_cells(
      dataset.source_count(), dataset.assertion_count(), {});
  return ShardedEmEstimator(config_).run_detailed(
      ShardedDataset::build(independent), seed);
}

}  // namespace ss
