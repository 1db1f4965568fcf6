// EM-Ext over a ShardedDataset: the one EM execution engine. EM-Ext
// and both EM baselines (EmSocialEstimator, EmIpsn12Estimator) run here.
//
// EmExtEstimator::run_detailed partitions its Dataset with
// ShardedDataset::build (data/shard.h) and runs it here; callers that
// already hold shards (bench_scale, an mmap-ed .ssd file) call
// ShardedEmEstimator directly. Each work unit reads one shard's
// claimant/exposed lists — which reference only that shard's sources —
// so the hot loops stay within a shard-sized working set, and shards
// spread across the thread pool.
//
// Sharding is an execution strategy, never an approximation: all ids
// stay global, the likelihood base / pooled shrinkage rates / prior z
// are computed over all sources, and every per-column and per-source
// gather walks the same element order as the unsharded Dataset views
// (LikelihoodTable::column is the per-column reference). Work units
// (shard-confined column/source ranges) are dispatched through the LPT
// work-stealing scheduler (ThreadPool::parallel_tasks) — heaviest
// shards first, idle workers steal — so a skewed shard histogram no
// longer serializes on its largest shard. Scheduling freedom is safe
// because units only scatter into disjoint index-addressed slots;
// every global floating-point reduction (column log-likelihood, M-step
// pooling, update deltas) then runs through the fixed-shape tree
// reductions of math/kernels.h, whose shape depends only on the
// element count. Integer health counters are the only values merged
// without ordering. On the scalar backend the results are therefore
// bit-identical for any shard layout, any thread count and any steal
// order — tests/test_shard.cpp and tests/test_kernels.cpp pin this
// with golden FNV-1a hashes; the AVX2 backend is held to the ULP
// contract (docs/MODEL.md §12, §16). The outer loop (init, warm-up,
// retries, restarts, checkpointing) lives in sharded_em.cpp; its
// checkpoint fingerprint depends only on the dataset shape and the
// model, so a checkpoint written through EmExtEstimator resumes through
// ShardedEmEstimator and vice versa.
#pragma once

#include <cstdint>

#include "core/em_ext.h"
#include "data/shard.h"

namespace ss {

// Which member of the Table II model family the engine fits.
//  * kExt — EM-Ext: the full model (optional f = g warm-up, then free
//    f, g).
//  * kSocial — EM-Social (IPSN'14): f_i = g_i tied on every M-step,
//    the vote-prior init M-step included, and no warm-up. A tied pair
//    cancels every dependent-branch factor from the posterior, so the
//    fit is EM-Social's "delete every exposed cell" model
//    (docs/MODEL.md §1). EmExtConfig::warmup_iters is ignored.
// EM (IPSN'12) needs no mode of its own: it is kExt with no warm-up
// on a copy of the dataset whose dependency is empty (EmIpsn12Estimator).
enum class EmModel { kExt, kSocial };

class ShardedEmEstimator {
 public:
  explicit ShardedEmEstimator(EmExtConfig config = {},
                              EmModel model = EmModel::kExt);

  // Same contract as EmExtEstimator::run / run_detailed, with the
  // incidence supplied as shards. The EmExtConfig semantics (tol,
  // warm-up, shrinkage, restarts, checkpointing, pool) carry over
  // unchanged — including the checkpoint fingerprint, which depends
  // only on the dataset shape and the model, not the shard layout.
  EstimateResult run(const ShardedDataset& sharded,
                     std::uint64_t seed) const;
  EmExtResult run_detailed(const ShardedDataset& sharded,
                           std::uint64_t seed) const;

 private:
  EmExtConfig config_;
  EmModel model_;
};

}  // namespace ss
