// Per-operation output checks. Every timed operation is one attempt;
// an attempt whose output fails a check is one failure. The counts are
// the `attempted` and `failed` fields of the result line, and their
// ratio is `failure_rate`.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/em_ext.h"

namespace perfbench {

class CheckTally {
 public:
  // Counts one attempt; a non-empty `problem` counts it as failed. The
  // first few problems are kept for the record.
  void record(const std::string& problem);

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::vector<std::string> problems_;
};

// Each returns "" when the output is sound, else what is wrong with it.

// Beliefs are finite probabilities and `ranking` is a permutation of
// the assertion ids.
std::string check_estimate(const ss::EstimateResult& estimate,
                           const std::vector<std::uint32_t>& ranking);

// check_estimate plus EmHealth::failed_attempts == 0.
std::string check_em(const ss::EmExtResult& result,
                     const std::vector<std::uint32_t>& ranking);

// Documented tolerances to the exact dataset bound (Eq. 3): the Gibbs
// estimate within 0.02 and the convolution bound within 0.01, as in
// tests/test_bounds.cpp. All three errors lie in [0, 0.5].
inline constexpr double kGibbsTolerance = 0.02;
inline constexpr double kConvolutionTolerance = 0.01;
std::string check_bounds(double exact, double gibbs, double convolution);

// One LiveApollo refresh. `expected_claims` is the number of tweets
// ingested since the previous refresh and `expected_refreshes` the
// refresh count including this one.
struct RefreshObservation {
  std::size_t clusters = 0;
  std::vector<double> belief;
  std::size_t window_claims = 0;
  std::size_t refreshes = 0;       // LiveApollo::refreshes()
  std::uint64_t next_sequence = 0; // LiveApollo::next_sequence()
  std::size_t dropped_tweets = 0;  // LiveApollo::dropped_tweets()
};
std::string check_refresh(const RefreshObservation& obs,
                          std::size_t expected_claims,
                          std::size_t expected_refreshes);

// Runs each check on a sound output and on one corrupted copy of it;
// prints one line per case. Returns 0 when every sound output passes
// and every corrupted one is counted as a failure.
int self_test();

}  // namespace perfbench
