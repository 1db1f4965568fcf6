// Per-assertion truth posterior, Eq. 9:
//   P(C_j = 1 | SC_j; D, theta) =
//     P(SC_j | C_j=1) z / (P(SC_j | C_j=1) z + P(SC_j | C_j=0)(1-z))
#pragma once

#include <vector>

#include "core/likelihood.h"

namespace ss {

class ThreadPool;

// Posterior for one assertion.
double assertion_posterior(const LikelihoodTable& table,
                           std::size_t assertion);

// Posteriors for all assertions (the E-step output Z_j).
std::vector<double> all_posteriors(const LikelihoodTable& table);

// In-place variant reusing `out`'s capacity (streaming inner loops call
// this once per inner iteration; the allocating form would churn the
// heap once per iteration).
void all_posteriors(const LikelihoodTable& table, std::vector<double>& out);

// Convenience: posteriors directly from a dataset + parameters.
std::vector<double> all_posteriors(const Dataset& dataset,
                                   const ModelParams& params);

// Posterior log-odds log P(C_j=1|SC_j) - log P(C_j=0|SC_j) for all
// assertions; unlike the posterior itself this does not saturate, which
// top-k ranking relies on.
std::vector<double> all_log_odds(const LikelihoodTable& table);

// Everything one EM iteration (and the finalization path) needs from the
// columns, computed in a single fused pass.
struct EStepResult {
  std::vector<double> posterior;  // Z_j (Eq. 9)
  std::vector<double> log_odds;   // unsaturated ranking score
  double log_likelihood = 0.0;    // Eq. 7
};

// Fused E-step: one pass over the columns yields posteriors, log-odds
// and the data log-likelihood together (the separate all_posteriors /
// all_log_odds / data_log_likelihood calls would each rescan every
// column). Per column the kernels::finalize_column epilogue derives all
// three outputs from a single exp — bit-identical to the separate
// sigmoid + logsumexp calls it fused (see math/kernels.h). With a pool,
// columns are processed in fixed assertion chunks and per-column
// outputs land in index-addressed slots; the log-likelihood is then a
// fixed-shape tree sum in assertion order (kernels::tree_sum) — so the
// result is bit-identical to the serial pass for any thread count. pool == nullptr or
// single-worker pools run serially.
EStepResult fused_e_step(const LikelihoodTable& table,
                         ThreadPool* pool = nullptr);

// Scratch-reusing variant for per-iteration callers: `out`'s vectors
// and `column_ll_scratch` are resized once and reused across EM
// iterations, eliminating the three per-iteration allocations of the
// value-returning form.
void fused_e_step(const LikelihoodTable& table, ThreadPool* pool,
                  EStepResult& out, std::vector<double>& column_ll_scratch);

}  // namespace ss
