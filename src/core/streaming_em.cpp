#include "core/streaming_em.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/em_ext.h"
#include "core/likelihood.h"
#include "core/posterior.h"
#include "math/kernels.h"
#include "math/logprob.h"
#include "util/checkpoint.h"
#include "util/fault_inject.h"
#include "util/thread_pool.h"

namespace ss {
namespace {

bool all_finite(const std::vector<double>& v) {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

}  // namespace

StreamingEmExt::StreamingEmExt(std::size_t sources,
                               StreamingEmConfig config)
    : config_(config) {
  params_.source.assign(sources, SourceParams{});
  params_.z = 0.5;
  stats_claim_indep_z_.assign(sources, 0.0);
  stats_claim_indep_y_.assign(sources, 0.0);
  stats_claim_dep_z_.assign(sources, 0.0);
  stats_claim_dep_y_.assign(sources, 0.0);
  stats_denom_a_.assign(sources, 0.0);
  stats_denom_b_.assign(sources, 0.0);
  stats_denom_f_.assign(sources, 0.0);
  stats_denom_g_.assign(sources, 0.0);
  batch_indep_z_.assign(sources, 0.0);
  batch_indep_y_.assign(sources, 0.0);
  batch_dep_z_.assign(sources, 0.0);
  batch_dep_y_.assign(sources, 0.0);
  batch_denom_a_.assign(sources, 0.0);
  batch_denom_b_.assign(sources, 0.0);
  batch_denom_f_.assign(sources, 0.0);
  batch_denom_g_.assign(sources, 0.0);
}

StreamingBatchResult StreamingEmExt::observe(const Dataset& batch,
                                             std::uint64_t seq) {
  if (seq < next_sequence_) {
    // Stale duplicate from a retrying transport: already folded in, so
    // touching any state would double-count it.
    ++stale_batches_;
    StreamingBatchResult rejected;
    rejected.accepted = false;
    rejected.stats_committed = false;
    return rejected;
  }
  if (seq > next_sequence_) {
    throw std::invalid_argument(
        "StreamingEmExt::observe: batch sequence gap (got " +
        std::to_string(seq) + ", expected " +
        std::to_string(next_sequence_) +
        "); the caller must buffer delayed batches");
  }
  return observe(batch);
}

StreamingBatchResult StreamingEmExt::observe(const Dataset& batch) {
  batch.validate();
  ++next_sequence_;
  std::size_t n = source_count();
  if (batch.source_count() != n) {
    throw std::invalid_argument(
        "StreamingEmExt::observe: batch source count mismatch");
  }
  std::size_t m = batch.assertion_count();

  // On the very first batch, bootstrap theta from the batch's vote
  // prior (independent support) exactly like the offline estimator.
  if (batches_ == 0) {
    EmExtConfig boot;
    boot.shrinkage = config_.shrinkage;
    boot.clamp_eps = config_.clamp_eps;
    boot.z_floor = config_.z_floor;
    boot.pool = config_.pool;
    boot.max_iters = 1;
    params_ = EmExtEstimator(boot).run_detailed(batch, 1).params;
  }

  // One likelihood table per batch, rebuilt in place (on `pool`) each
  // inner iteration; the batch-statistics vectors are member scratch
  // with every slot assigned below. The pre-kernel loop constructed a
  // fresh table and nine fresh vectors per inner iteration.
  ThreadPool* pool = config_.pool != nullptr ? config_.pool : &global_pool();
  LikelihoodTable table(batch);
  std::vector<double>& posterior = posterior_;
  posterior.assign(m, 0.5);
  std::vector<double>& bz = batch_indep_z_;
  std::vector<double>& by = batch_indep_y_;
  std::vector<double>& dz = batch_dep_z_;
  std::vector<double>& dy = batch_dep_y_;
  std::vector<double>& da = batch_denom_a_;
  std::vector<double>& db = batch_denom_b_;
  std::vector<double>& df = batch_denom_f_;
  std::vector<double>& dg = batch_denom_g_;
  bool poisoned = false;
  for (std::size_t inner = 0; inner < config_.iters_per_batch; ++inner) {
    // E-step on this batch under the current theta.
    table.set_params(params_, pool);
    all_posteriors(table, posterior);
    fault::maybe_corrupt_posterior(posterior);
    if (!all_finite(posterior)) {
      // Poisoned E-step: stop refining and withhold this batch's
      // statistics — a NaN folded into the decayed history would
      // corrupt every later batch.
      poisoned = true;
      break;
    }

    // Batch sufficient statistics.
    double total_z = 0.0;
    for (double p : posterior) total_z += p;
    double total_y = static_cast<double>(m) - total_z;
    for (std::size_t i = 0; i < n; ++i) {
      double exposed_z = kernels::gather_sum(
          batch.dependency.exposed_assertions(i), posterior.data());
      double exposed_count = static_cast<double>(
          batch.dependency.exposed_assertions(i).size());
      // Split claim lists from the partition cache replace the per-claim
      // dependency search; each accumulator keeps its addition order.
      kernels::MassPair dep = kernels::gather_mass(
          batch.partition().dependent_claims(i), posterior.data());
      kernels::MassPair indep = kernels::gather_mass(
          batch.partition().independent_claims(i), posterior.data());
      dz[i] = dep.z;
      dy[i] = dep.y;
      bz[i] = indep.z;
      by[i] = indep.y;
      da[i] = total_z - exposed_z;
      db[i] = total_y - (exposed_count - exposed_z);
      df[i] = exposed_z;
      dg[i] = exposed_count - exposed_z;
    }

    // Recursive update: decay history, add the batch. Only the final
    // inner iteration commits to the running statistics; earlier inner
    // iterations refine theta against a blended view so warm starts do
    // not double-count the batch.
    double lambda = config_.forgetting;
    auto blend = [&](const std::vector<double>& hist,
                     const std::vector<double>& fresh, std::size_t i) {
      return lambda * hist[i] + fresh[i];
    };

    // Pooled rates for shrinkage.
    double pnum_a = 0, pden_a = 0, pnum_b = 0, pden_b = 0;
    double pnum_f = 0, pden_f = 0, pnum_g = 0, pden_g = 0;
    for (std::size_t i = 0; i < n; ++i) {
      pnum_a += blend(stats_claim_indep_z_, bz, i);
      pden_a += blend(stats_denom_a_, da, i);
      pnum_b += blend(stats_claim_indep_y_, by, i);
      pden_b += blend(stats_denom_b_, db, i);
      pnum_f += blend(stats_claim_dep_z_, dz, i);
      pden_f += blend(stats_denom_f_, df, i);
      pnum_g += blend(stats_claim_dep_y_, dy, i);
      pden_g += blend(stats_denom_g_, dg, i);
    }
    auto pooled = [](double num, double den) {
      return den > 0.0 ? num / den : 0.5;
    };
    double mu_a = pooled(pnum_a, pden_a);
    double mu_b = pooled(pnum_b, pden_b);
    double mu_f = pooled(pnum_f, pden_f);
    double mu_g = pooled(pnum_g, pden_g);

    auto map_rate = [&](double num, double den, double mu,
                        double& out) {
      double cells = config_.shrinkage > 0.0
                         ? config_.shrinkage / std::max(mu, 1e-9)
                         : 0.0;
      double d = den + cells;
      if (d > 0.0) out = clamp_prob((num + cells * mu) / d,
                                    config_.clamp_eps);
    };
    for (std::size_t i = 0; i < n; ++i) {
      map_rate(blend(stats_claim_indep_z_, bz, i),
               blend(stats_denom_a_, da, i), mu_a, params_.source[i].a);
      map_rate(blend(stats_claim_indep_y_, by, i),
               blend(stats_denom_b_, db, i), mu_b, params_.source[i].b);
      map_rate(blend(stats_claim_dep_z_, dz, i),
               blend(stats_denom_f_, df, i), mu_f, params_.source[i].f);
      map_rate(blend(stats_claim_dep_y_, dy, i),
               blend(stats_denom_g_, dg, i), mu_g, params_.source[i].g);
    }
    params_.z = clamp_prob(
        (lambda * stats_z_num_ + total_z) /
            (lambda * stats_z_den_ + static_cast<double>(m)),
        config_.clamp_eps);
    if (config_.z_floor > 0.0) {
      params_.z = std::clamp(params_.z, config_.z_floor,
                             1.0 - config_.z_floor);
    }

    if (inner + 1 == config_.iters_per_batch) {
      for (std::size_t i = 0; i < n; ++i) {
        stats_claim_indep_z_[i] = blend(stats_claim_indep_z_, bz, i);
        stats_claim_indep_y_[i] = blend(stats_claim_indep_y_, by, i);
        stats_claim_dep_z_[i] = blend(stats_claim_dep_z_, dz, i);
        stats_claim_dep_y_[i] = blend(stats_claim_dep_y_, dy, i);
        stats_denom_a_[i] = blend(stats_denom_a_, da, i);
        stats_denom_b_[i] = blend(stats_denom_b_, db, i);
        stats_denom_f_[i] = blend(stats_denom_f_, df, i);
        stats_denom_g_[i] = blend(stats_denom_g_, dg, i);
      }
      stats_z_num_ = lambda * stats_z_num_ + total_z;
      stats_z_den_ = lambda * stats_z_den_ + static_cast<double>(m);
    }
  }
  if (poisoned) ++skipped_batches_;
  ++batches_;

  StreamingBatchResult result;
  result.stats_committed = !poisoned;
  // The result vectors are moved to the caller, so (unlike the scratch
  // above) there is nothing to reuse here.
  table.set_params(params_, pool);
  EStepResult e = fused_e_step(table, pool);
  fault::maybe_corrupt_posterior(e.posterior);
  result.belief = std::move(e.posterior);
  result.log_odds = std::move(e.log_odds);
  result.log_likelihood = e.log_likelihood;
  // The caller owns these beliefs (ranking, dashboards): non-finite
  // entries come back neutral, never NaN.
  for (std::size_t j = 0; j < result.belief.size(); ++j) {
    if (!std::isfinite(result.belief[j]) ||
        !std::isfinite(result.log_odds[j])) {
      result.belief[j] = 0.5;
      result.log_odds[j] = 0.0;
      ++result.sanitized_beliefs;
    }
  }
  if (!std::isfinite(result.log_likelihood)) result.log_likelihood = 0.0;
  return result;
}

void StreamingEmExt::save_state(BinWriter& writer) const {
  std::size_t n = source_count();
  writer.u64(n);
  writer.u64(batches_);
  writer.u64(skipped_batches_);
  writer.u64(stale_batches_);
  writer.u64(next_sequence_);
  writer.f64(params_.z);
  for (const SourceParams& s : params_.source) {
    writer.f64(s.a);
    writer.f64(s.b);
    writer.f64(s.f);
    writer.f64(s.g);
  }
  writer.vec_f64(stats_claim_indep_z_);
  writer.vec_f64(stats_claim_indep_y_);
  writer.vec_f64(stats_claim_dep_z_);
  writer.vec_f64(stats_claim_dep_y_);
  writer.vec_f64(stats_denom_a_);
  writer.vec_f64(stats_denom_b_);
  writer.vec_f64(stats_denom_f_);
  writer.vec_f64(stats_denom_g_);
  writer.f64(stats_z_num_);
  writer.f64(stats_z_den_);
}

void StreamingEmExt::load_state(BinReader& reader) {
  std::size_t n = source_count();
  std::uint64_t stored = reader.u64();
  if (stored != n) {
    throw std::runtime_error(
        "StreamingEmExt::load_state: source universe mismatch (state "
        "has " +
        std::to_string(stored) + " sources, instance has " +
        std::to_string(n) + ")");
  }
  batches_ = reader.u64();
  skipped_batches_ = reader.u64();
  stale_batches_ = reader.u64();
  next_sequence_ = reader.u64();
  params_.z = reader.f64();
  params_.source.assign(n, SourceParams{});
  for (SourceParams& s : params_.source) {
    s.a = reader.f64();
    s.b = reader.f64();
    s.f = reader.f64();
    s.g = reader.f64();
  }
  auto load_vec = [&](std::vector<double>& out, const char* what) {
    std::vector<double> v = reader.vec_f64();
    if (v.size() != n) {
      throw std::runtime_error(
          std::string("StreamingEmExt::load_state: ") + what +
          " length mismatch");
    }
    out = std::move(v);
  };
  load_vec(stats_claim_indep_z_, "stats_claim_indep_z");
  load_vec(stats_claim_indep_y_, "stats_claim_indep_y");
  load_vec(stats_claim_dep_z_, "stats_claim_dep_z");
  load_vec(stats_claim_dep_y_, "stats_claim_dep_y");
  load_vec(stats_denom_a_, "stats_denom_a");
  load_vec(stats_denom_b_, "stats_denom_b");
  load_vec(stats_denom_f_, "stats_denom_f");
  load_vec(stats_denom_g_, "stats_denom_g");
  stats_z_num_ = reader.f64();
  stats_z_den_ = reader.f64();
}

}  // namespace ss
