// bound-grid: the Eq. 3 Bayes-risk bound over the Figs. 3-5 grid.
//   input:   kPerPoint generate_parametric instances (m = 50) per grid
//            point: n in {10, 11, ..., 20} x tau in {2, 6, 10}, each point
//            with one of three independent-claim reliabilities (odds 1.5,
//            2, 3), generated from a fixed seed. Every n is on the grid so
//            request costs, which grow as 2^n, spread evenly instead of in
//            clusters whose edges would make the latency percentiles jump
//            between runs.
//   set-up:  construct the worker pool and shard every instance for the
//            Gibbs bound
//   request: exact_dataset_bound, gibbs_dataset_bound (default config,
//            sharded overload on the explicit pool) and convolution_bound
//            on every column's make_column_model
// A cycle requests one instance of every grid point, in an order the
// workload seed shuffles; cycle c takes the (c mod kPerPoint)-th instance
// of each point. Whole cycles run until the time is up, and at least
// kMinCycles of them. Per-cycle figures are reduced by their median over
// the run, so a stretch of the run the host slowed or sped up moves them
// only once it covers half the cycles.
//
// Why fixed instances and chain seeds: error_rate here is the Gibbs
// approximation error, mean |gibbs - exact|. Drawn afresh per seed, its
// Monte Carlo noise alone spread it by 0.06-0.12 of its median across
// ten seeds (perfbench/README.md); fixed, it changes only when the
// bound code does.
#include <cmath>
#include <memory>

#include "bounds/column_model.h"
#include "bounds/convolution_bound.h"
#include "bounds/dataset_bound.h"
#include "bounds/gibbs_bound.h"
#include "data/shard.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ss;

constexpr std::uint64_t kGeneratorSeed = 2016;  // as scale-1m's
constexpr std::size_t kPerPoint = 6;
// Enough cycles for a median; the gaps (error_rate) are taken over these
// first ones, so they do not depend on how many cycles fit in the run.
constexpr std::size_t kMinCycles = 3;
constexpr int kSetupReps = 21;

std::vector<SimKnobs> grid() {
  std::vector<SimKnobs> points;
  const std::size_t taus[] = {2, 6, 10};
  const double odds[] = {1.5, 2.0, 3.0};
  for (std::size_t ni = 0; ni <= 10; ++ni) {
    for (std::size_t ti = 0; ti < 3; ++ti) {
      SimKnobs knobs = SimKnobs::paper_defaults(10 + ni, 50);
      knobs.tau_lo = knobs.tau_hi = taus[ti];
      knobs.p_indep_true = Range::fixed(prob_from_odds(odds[(ni + ti) % 3]));
      points.push_back(knobs);
    }
  }
  return points;
}

// The chain seed gibbs_dataset_bound gives column j.
std::uint64_t column_seed(std::uint64_t seed, std::size_t j) {
  return seed ^ (0x9e3779b97f4a7c15ULL * (j + 1));
}

}  // namespace

std::vector<SimInstance> bound_grid_instances(std::uint64_t seed) {
  std::vector<SimInstance> instances;
  Rng rng(seed);
  for (std::size_t rep = 0; rep < kPerPoint; ++rep) {
    for (const SimKnobs& knobs : grid()) {
      instances.push_back(generate_parametric(knobs, rng));
    }
  }
  return instances;
}

RunResult run_bound_grid(const RunOptions& opts, Tracer& tracer) {
  RunResult out;
  WallTimer gen_timer;
  std::vector<SimInstance> instances = bound_grid_instances(kGeneratorSeed);
  const std::size_t points = instances.size() / kPerPoint;
  out.details["gen_s"] = gen_timer.seconds();

  // Set-up, repeated: the last pool and shard set serve the requests.
  std::vector<double> setup_s;
  std::unique_ptr<ThreadPool> pool;
  std::vector<ShardedDataset> sharded;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    sharded.clear();
    pool.reset();
    Span span(tracer, "setup");
    WallTimer timer;
    pool = std::make_unique<ThreadPool>(opts.workers);
    {
      Span s(tracer, "data.shard_build");
      ShardConfig shard_config;
      shard_config.pool = pool.get();
      for (const SimInstance& inst : instances) {
        sharded.push_back(ShardedDataset::build(inst.dataset, shard_config));
      }
    }
    setup_s.push_back(timer.seconds());
  }

  std::vector<double> latency_ms, exact_ms, gibbs_ms, conv_ms;
  std::vector<double> cycle_solve_s, cycle_throughput;
  // Over the first kMinCycles cycles.
  std::vector<double> exact_bound, gibbs_gap, conv_gap, patterns;
  std::vector<double> probe_sweeps, probe_converged;
  std::uint64_t request_id = 0;
  Rng rng(opts.seed);
  std::size_t cycles = 0;
  WallTimer window;
  while (cycles < kMinCycles || window.seconds() < opts.seconds) {
    const bool gap_cycle = cycles < kMinCycles;
    std::vector<std::size_t> order(points);
    for (std::size_t p = 0; p < points; ++p) {
      order[p] = (cycles % kPerPoint) * points + p;
    }
    rng.shuffle(order);
    double cycle_busy_s = 0.0;
    double cycle_solve = 0.0;
    for (std::size_t k : order) {
      const SimInstance& inst = instances[k];
      const Dataset& d = inst.dataset;
      std::uint64_t gibbs_seed = kGeneratorSeed * 7919 + k;
      double exact = 0.0;
      double gibbs = 0.0;
      double conv = 0.0;
      std::size_t distinct_patterns = 0;
      {
        Span span(tracer, "request", ++request_id);
        WallTimer request;
        WallTimer step;
        DatasetBoundResult e;
        {
          Span s(tracer, "bounds.exact");
          e = exact_dataset_bound(d, inst.true_params);
        }
        exact_ms.push_back(step.millis());
        cycle_solve += step.seconds();
        step.reset();
        {
          Span s(tracer, "bounds.gibbs");
          gibbs = gibbs_dataset_bound(sharded[k], inst.true_params,
                                      gibbs_seed, GibbsBoundConfig{},
                                      pool.get())
                      .bound.error;
        }
        gibbs_ms.push_back(step.millis());
        cycle_solve += step.seconds();
        step.reset();
        {
          Span s(tracer, "bounds.conv");
          for (std::size_t j = 0; j < d.assertion_count(); ++j) {
            conv += convolution_bound(
                        make_column_model(inst.true_params, d.dependency, j))
                        .error;
          }
          conv /= static_cast<double>(d.assertion_count());
        }
        conv_ms.push_back(step.millis());
        cycle_solve += step.seconds();
        exact = e.bound.error;
        distinct_patterns = e.distinct_patterns;
        out.checks.record(check_bounds(exact, gibbs, conv));
        double t = request.seconds();
        cycle_busy_s += t;
        latency_ms.push_back(t * 1e3);
      }
      if (!gap_cycle) continue;
      exact_bound.push_back(exact);
      gibbs_gap.push_back(std::fabs(gibbs - exact));
      conv_gap.push_back(std::fabs(conv - exact));
      patterns.push_back(static_cast<double>(distinct_patterns));
      if (tracer.enabled()) {
        // Outside the request: rerun column 0's chain exactly as the
        // dataset bound ran it, for the sweep and convergence counts it
        // does not return.
        Span s(tracer, "bounds.gibbs_probe");
        GibbsBoundResult probe = gibbs_bound(
            make_column_model(inst.true_params, d.dependency, 0),
            column_seed(gibbs_seed, 0));
        probe_sweeps.push_back(static_cast<double>(probe.sweeps));
        probe_converged.push_back(probe.converged ? 1.0 : 0.0);
      }
    }
    ++cycles;
    cycle_solve_s.push_back(cycle_solve / static_cast<double>(points));
    cycle_throughput.push_back(static_cast<double>(points) / cycle_busy_s);
  }

  auto& m = out.metrics;
  m["setup_s"] = median(setup_s);
  // Per cycle the mean, over cycles the median: request costs grow as
  // 2^n over the grid, and a per-request median that sits between two
  // cost clusters jumps between runs.
  m["solve_s"] = median(cycle_solve_s);
  m["latency_p50_ms"] = quantile(latency_ms, 0.5);
  m["latency_p90_ms"] = quantile(latency_ms, 0.9);
  m["throughput_per_s"] = median(cycle_throughput);
  m["error_rate"] = mean(gibbs_gap);

  if (tracer.enabled()) {
    m["gibbs_gap"] = mean(gibbs_gap);
    m["conv_gap"] = mean(conv_gap);
    m["bounds.exact_ms"] = median(exact_ms);
    m["bounds.gibbs_ms"] = median(gibbs_ms);
    m["bounds.conv_ms"] = median(conv_ms);
    m["bounds.gibbs_sweeps"] = mean(probe_sweeps);
    m["bounds.gibbs_converged_share"] = mean(probe_converged);
    m["bounds.distinct_patterns"] = mean(patterns);
    m["util.pool_participants"] = static_cast<double>(opts.workers + 1);
  }

  out.details["requests"] = latency_ms.size();
  out.details["cycles"] = cycles;
  out.details["setup_reps"] = static_cast<std::size_t>(kSetupReps);
  out.details["exact_bound"] = mean(exact_bound);
  return out;
}

}  // namespace perfbench
