// Tests for the recursive (streaming) dependency-aware estimator.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/em_ext.h"
#include "core/streaming_em.h"
#include "eval/metrics.h"
#include "math/kernels.h"
#include "math/stats.h"
#include "simgen/parametric_gen.h"
#include "util/thread_pool.h"

namespace ss {
namespace {

struct Stream {
  SimInstance population;
  Rng rng{1};
};

Stream make_stream(std::uint64_t seed, std::size_t n = 40,
                   double rel_lo = 0.35, double rel_hi = 0.95) {
  Stream s;
  s.rng = Rng(seed);
  SimKnobs knobs = SimKnobs::paper_defaults(n, 20);
  knobs.p_indep_true = {rel_lo, rel_hi};
  knobs.p_dep_true = {0.3, 0.9};
  s.population = generate_parametric(knobs, s.rng);
  return s;
}

EstimateResult to_estimate(const StreamingBatchResult& r) {
  EstimateResult est;
  est.belief = r.belief;
  est.log_odds = r.log_odds;
  est.probabilistic = true;
  return est;
}

TEST(StreamingEm, BatchShapesAndRanges) {
  Stream s = make_stream(3);
  StreamingEmExt streaming(40);
  SimInstance batch = generate_parametric_batch(
      s.population.true_params, s.population.forest, 15, s.rng);
  StreamingBatchResult r = streaming.observe(batch.dataset);
  ASSERT_EQ(r.belief.size(), 15u);
  ASSERT_EQ(r.log_odds.size(), 15u);
  for (double b : r.belief) {
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 1.0);
  }
  EXPECT_EQ(streaming.batches_seen(), 1u);
  EXPECT_TRUE(streaming.params().valid());
}

TEST(StreamingEm, RejectsSourceMismatch) {
  StreamingEmExt streaming(10);
  Rng rng(4);
  SimKnobs knobs = SimKnobs::paper_defaults(12, 10);
  SimInstance inst = generate_parametric(knobs, rng);
  EXPECT_THROW(streaming.observe(inst.dataset), std::invalid_argument);
}

TEST(StreamingEm, ParameterEstimatesSharpenOverBatches) {
  Stream s = make_stream(5);
  StreamingEmExt streaming(40);
  auto param_error = [&](const ModelParams& est) {
    double err = 0.0;
    for (std::size_t i = 0; i < 40; ++i) {
      err += std::fabs(est.source[i].a -
                       s.population.true_params.source[i].a);
    }
    return err / 40.0;
  };
  double early_error = 0.0;
  double late_error = 0.0;
  for (int w = 0; w < 12; ++w) {
    SimInstance batch = generate_parametric_batch(
        s.population.true_params, s.population.forest, 20, s.rng);
    streaming.observe(batch.dataset);
    if (w == 0) early_error = param_error(streaming.params());
  }
  late_error = param_error(streaming.params());
  EXPECT_LT(late_error, early_error);
}

TEST(StreamingEm, BeatsIsolatedOnSmallWindows) {
  // Averaged over several windows and two populations, carrying source
  // statistics across windows must beat re-learning from each tiny
  // window alone.
  StreamingStats stream_acc;
  StreamingStats isolated_acc;
  for (std::uint64_t seed : {11ULL, 13ULL}) {
    Stream s = make_stream(seed);
    StreamingEmExt streaming(40);
    for (int w = 0; w < 10; ++w) {
      SimInstance batch = generate_parametric_batch(
          s.population.true_params, s.population.forest, 10, s.rng);
      StreamingBatchResult r = streaming.observe(batch.dataset);
      if (w < 2) continue;  // warm-up windows
      stream_acc.add(
          classify(batch.dataset, to_estimate(r)).accuracy());
      isolated_acc.add(
          classify(batch.dataset, EmExtEstimator().run(batch.dataset, 1))
              .accuracy());
    }
  }
  EXPECT_GT(stream_acc.mean(), isolated_acc.mean() - 1e-9);
}

TEST(StreamingEm, ForgettingTracksDrift) {
  // After the population's reliabilities flip, a forgetful stream
  // (lambda < 1) recovers; we check its post-drift accuracy is well
  // above chance.
  Stream s = make_stream(17);
  StreamingEmConfig config;
  config.forgetting = 0.6;
  StreamingEmExt streaming(40, config);
  for (int w = 0; w < 6; ++w) {
    SimInstance batch = generate_parametric_batch(
        s.population.true_params, s.population.forest, 20, s.rng);
    streaming.observe(batch.dataset);
  }
  // Drift: every source's reliabilities are redrawn (the population
  // churns) while the overall "sources are better than chance"
  // convention persists. (A *total* symmetric flip a<->b, z<->1-z is the
  // model's label-switching twin and is unidentifiable by any estimator,
  // so that is not what we test.)
  ModelParams drifted = s.population.true_params;
  Rng drift_rng(99);
  for (auto& sp : drifted.source) {
    double p_on = drift_rng.uniform(0.5, 0.7);
    double p_it = drift_rng.uniform(0.55, 0.95);
    double p_dt = drift_rng.uniform(0.4, 0.9);
    sp.a = p_on * p_it;
    sp.b = p_on * (1.0 - p_it);
    sp.f = p_on * p_dt;
    sp.g = p_on * (1.0 - p_dt);
  }
  StreamingStats post;
  for (int w = 0; w < 8; ++w) {
    SimInstance batch = generate_parametric_batch(
        drifted, s.population.forest, 20, s.rng);
    StreamingBatchResult r = streaming.observe(batch.dataset);
    if (w >= 4) {
      post.add(classify(batch.dataset, to_estimate(r)).accuracy());
    }
  }
  EXPECT_GT(post.mean(), 0.6);
}

TEST(StreamingEm, DeterministicGivenSameStream) {
  Stream s1 = make_stream(23);
  Stream s2 = make_stream(23);
  StreamingEmExt a(40);
  StreamingEmExt b(40);
  for (int w = 0; w < 3; ++w) {
    SimInstance batch1 = generate_parametric_batch(
        s1.population.true_params, s1.population.forest, 15, s1.rng);
    SimInstance batch2 = generate_parametric_batch(
        s2.population.true_params, s2.population.forest, 15, s2.rng);
    auto r1 = a.observe(batch1.dataset);
    auto r2 = b.observe(batch2.dataset);
    EXPECT_EQ(r1.belief, r2.belief);
  }
}

// With more sources than one kTreeReduceBlock, every batch's log-table
// build (the bootstrap EM-Ext run, each inner iteration and the final
// E-step) runs its row pass on the pool. The stream must come out
// bit-identical with the process pool, a 1-worker pool and a 4-worker
// pool.
TEST(StreamingEm, PooledTableBuildMatchesSerialAboveGrain) {
  const std::size_t n = 2 * kernels::kTreeReduceBlock + 100;
  Stream s = make_stream(29, n);
  std::vector<Dataset> batches;
  for (int w = 0; w < 3; ++w) {
    batches.push_back(generate_parametric_batch(s.population.true_params,
                                                s.population.forest, 12,
                                                s.rng)
                          .dataset);
  }
  auto run = [&](ThreadPool* pool) {
    StreamingEmConfig config;
    config.pool = pool;
    StreamingEmExt streaming(n, config);
    std::vector<StreamingBatchResult> out;
    for (const Dataset& batch : batches) {
      out.push_back(streaming.observe(batch));
    }
    return std::make_pair(out, streaming.params());
  };
  ThreadPool pool1(1), pool4(4);
  auto [want, want_params] = run(&pool1);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool4}) {
    auto [got, got_params] = run(pool);
    const std::string tag =
        pool == nullptr ? "process pool" : "4-worker pool";
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t b = 0; b < want.size(); ++b) {
      EXPECT_EQ(got[b].belief, want[b].belief) << tag << " batch " << b;
      EXPECT_EQ(got[b].log_odds, want[b].log_odds) << tag << " batch " << b;
      EXPECT_EQ(got[b].log_likelihood, want[b].log_likelihood) << tag;
    }
    EXPECT_EQ(got_params.z, want_params.z) << tag;
    ASSERT_EQ(got_params.source.size(), want_params.source.size());
    for (std::size_t i = 0; i < want_params.source.size(); ++i) {
      const SourceParams& g = got_params.source[i];
      const SourceParams& w = want_params.source[i];
      ASSERT_TRUE(g.a == w.a && g.b == w.b && g.f == w.f && g.g == w.g)
          << tag << " source " << i;
    }
  }
}

}  // namespace
}  // namespace ss
