#include "checks.h"

#include <cmath>
#include <cstdio>
#include <limits>

#include "apollo/live.h"
#include "bounds/column_model.h"
#include "bounds/convolution_bound.h"
#include "bounds/dataset_bound.h"
#include "simgen/parametric_gen.h"
#include "twitter/simulator.h"
#include "util/string_util.h"

namespace perfbench {

void CheckTally::record(const std::string& problem) {
  ++attempted_;
  if (problem.empty()) return;
  ++failed_;
  if (problems_.size() < 8) problems_.push_back(problem);
}

namespace {

std::string check_beliefs(const std::vector<double>& belief,
                          std::size_t expected) {
  if (belief.size() != expected) {
    return ss::strprintf("%zu beliefs for %zu assertions", belief.size(),
                         expected);
  }
  for (std::size_t j = 0; j < belief.size(); ++j) {
    if (!std::isfinite(belief[j]) || belief[j] < 0.0 || belief[j] > 1.0) {
      return ss::strprintf("belief[%zu] = %g is not a probability", j,
                           belief[j]);
    }
  }
  return "";
}

std::string check_permutation(const std::vector<std::uint32_t>& ranking,
                              std::size_t m) {
  if (ranking.size() != m) {
    return ss::strprintf("ranking has %zu entries for %zu assertions",
                         ranking.size(), m);
  }
  std::vector<char> seen(m, 0);
  for (std::uint32_t j : ranking) {
    if (j >= m || seen[j] != 0) {
      return ss::strprintf("ranking repeats or overruns assertion %u", j);
    }
    seen[j] = 1;
  }
  return "";
}

}  // namespace

std::string check_estimate(const ss::EstimateResult& estimate,
                           const std::vector<std::uint32_t>& ranking) {
  std::string why = check_beliefs(estimate.belief, ranking.size());
  if (why.empty()) why = check_permutation(ranking, estimate.belief.size());
  return why;
}

std::string check_em(const ss::EmExtResult& result,
                     const std::vector<std::uint32_t>& ranking) {
  if (result.health.failed_attempts != 0) {
    return ss::strprintf("%zu EM attempts fell back to the prior",
                         result.health.failed_attempts);
  }
  return check_estimate(result.estimate, ranking);
}

std::string check_bounds(double exact, double gibbs, double convolution) {
  for (double b : {exact, gibbs, convolution}) {
    if (!(b >= 0.0 && b <= 0.5)) {
      return ss::strprintf("bound %g outside [0, 0.5]", b);
    }
  }
  if (std::fabs(gibbs - exact) > kGibbsTolerance) {
    return ss::strprintf("Gibbs bound %g is %g from exact %g", gibbs,
                         std::fabs(gibbs - exact), exact);
  }
  if (std::fabs(convolution - exact) > kConvolutionTolerance) {
    return ss::strprintf("convolution bound %g is %g from exact %g",
                         convolution, std::fabs(convolution - exact), exact);
  }
  return "";
}

std::string check_refresh(const RefreshObservation& obs,
                          std::size_t expected_claims,
                          std::size_t expected_refreshes) {
  if (obs.dropped_tweets != 0) {
    return ss::strprintf("%zu tweets dropped", obs.dropped_tweets);
  }
  if (obs.window_claims != expected_claims) {
    return ss::strprintf("window carried %zu claims, %zu tweets ingested",
                         obs.window_claims, expected_claims);
  }
  if (obs.refreshes != expected_refreshes) {
    return ss::strprintf("%zu batches seen after %zu refreshes",
                         obs.refreshes, expected_refreshes);
  }
  if (obs.next_sequence != expected_refreshes) {
    return ss::strprintf("batch sequence at %llu after %zu refreshes",
                         static_cast<unsigned long long>(obs.next_sequence),
                         expected_refreshes);
  }
  return check_beliefs(obs.belief, obs.clusters);
}

int self_test() {
  int bad = 0;
  auto expect = [&bad](const char* what, const std::string& problem,
                       bool should_fail) {
    CheckTally tally;
    tally.record(problem);
    bool ok = tally.failed() == (should_fail ? 1u : 0u);
    std::printf("%-44s %s (failed %zu of %zu)%s%s\n", what,
                ok ? "ok" : "WRONG", tally.failed(), tally.attempted(),
                problem.empty() ? "" : ": ", problem.c_str());
    if (!ok) ++bad;
  };

  // Real outputs from a small parametric instance.
  ss::Rng rng(7);
  ss::SimInstance inst =
      ss::generate_parametric(ss::SimKnobs::paper_defaults(12, 30), rng);
  ss::EmExtResult em = ss::EmExtEstimator().run_detailed(inst.dataset, 1);
  std::vector<std::uint32_t> ranking = em.estimate.ranking();
  expect("EM output as computed", check_em(em, ranking), false);

  ss::EmExtResult nan_belief = em;
  nan_belief.estimate.belief[3] = std::numeric_limits<double>::quiet_NaN();
  expect("EM output with one NaN belief", check_em(nan_belief, ranking),
         true);
  std::vector<std::uint32_t> repeated = ranking;
  repeated[1] = repeated[0];
  expect("EM ranking with one repeated id", check_em(em, repeated), true);
  ss::EmExtResult fallback = em;
  fallback.health.failed_attempts = 1;
  expect("EM output after a failed attempt", check_em(fallback, ranking),
         true);

  double exact = ss::exact_dataset_bound(inst.dataset, inst.true_params)
                     .bound.error;
  double gibbs =
      ss::gibbs_dataset_bound(inst.dataset, inst.true_params, 3).bound.error;
  double conv = 0.0;
  for (std::size_t j = 0; j < inst.dataset.assertion_count(); ++j) {
    conv += ss::convolution_bound(ss::make_column_model(
                                      inst.true_params,
                                      inst.dataset.dependency, j))
                .error;
  }
  conv /= static_cast<double>(inst.dataset.assertion_count());
  expect("bounds as computed", check_bounds(exact, gibbs, conv), false);
  expect("Gibbs bound moved past its tolerance",
         check_bounds(exact, exact + 2 * kGibbsTolerance, conv), true);
  expect("exact bound above 0.5", check_bounds(0.6, gibbs, conv), true);

  // A short live replay: refresh twice, observe the second refresh.
  ss::TwitterSimulation sim =
      ss::simulate_twitter(ss::scenario_by_name("Kirkuk").scaled(0.05), 5);
  ss::LiveApollo live(sim.follows);
  std::size_t half = sim.tweets.size() / 2;
  for (std::size_t t = 0; t < half; ++t) live.ingest(sim.tweets[t]);
  live.refresh();
  for (std::size_t t = half; t < sim.tweets.size(); ++t) {
    live.ingest(sim.tweets[t]);
  }
  ss::LiveRefreshResult r = live.refresh();
  RefreshObservation obs{r.clusters.size(), r.belief,         r.window_claims,
                         live.refreshes(),  live.next_sequence(),
                         live.dropped_tweets()};
  std::size_t tail = sim.tweets.size() - half;
  expect("refresh as computed", check_refresh(obs, tail, 2), false);
  expect("refresh after a skipped batch", check_refresh(obs, tail, 3), true);
  RefreshObservation dropped = obs;
  dropped.dropped_tweets = 1;
  expect("refresh after a dropped tweet", check_refresh(dropped, tail, 2),
         true);

  std::printf("self-test %s\n", bad == 0 ? "passed" : "FAILED");
  return bad == 0 ? 0 : 1;
}

}  // namespace perfbench
