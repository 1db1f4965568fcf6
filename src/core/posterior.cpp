#include "core/posterior.h"

#include <algorithm>

#include "math/kernels.h"
#include "math/logprob.h"
#include "util/thread_pool.h"

namespace ss {
namespace {

// Columns per parallel chunk. Fixed (never derived from the worker
// count) so chunk boundaries — and thus every slot write — are the same
// for any SS_THREADS value.
constexpr std::size_t kColumnGrain = 256;

}  // namespace

double assertion_posterior(const LikelihoodTable& table,
                           std::size_t assertion) {
  ColumnLogLikelihood c = table.column(assertion);
  return normalize_log_pair(c.log_given_true + table.log_prior_true(),
                            c.log_given_false + table.log_prior_false());
}

void all_posteriors(const LikelihoodTable& table,
                    std::vector<double>& out) {
  std::size_t m = table.assertion_count();
  out.resize(m);
  const double log_z = table.log_prior_true();
  const double log_1mz = table.log_prior_false();
  for (std::size_t j = 0; j < m; ++j) {
    ColumnLogLikelihood c = table.column(j);
    out[j] = kernels::finalize_pair(c.log_given_true + log_z,
                                    c.log_given_false + log_1mz)
                 .posterior;
  }
}

std::vector<double> all_posteriors(const LikelihoodTable& table) {
  std::vector<double> out;
  all_posteriors(table, out);
  return out;
}

std::vector<double> all_posteriors(const Dataset& dataset,
                                   const ModelParams& params) {
  LikelihoodTable table(dataset, params);
  return all_posteriors(table);
}

std::vector<double> all_log_odds(const LikelihoodTable& table) {
  std::size_t m = table.assertion_count();
  std::vector<double> out(m);
  for (std::size_t j = 0; j < m; ++j) {
    ColumnLogLikelihood c = table.column(j);
    out[j] = (c.log_given_true + table.log_prior_true()) -
             (c.log_given_false + table.log_prior_false());
  }
  return out;
}

void fused_e_step(const LikelihoodTable& table, ThreadPool* pool,
                  EStepResult& out,
                  std::vector<double>& column_ll_scratch) {
  std::size_t m = table.assertion_count();
  out.posterior.resize(m);
  out.log_odds.resize(m);
  column_ll_scratch.resize(m);

  // Two passes: gather first, transcendental epilogue second. Keeping
  // the libm calls (exp/log1p) out of the gather loop lets the compiler
  // hold the accumulators in registers across a whole column, and the
  // epilogue then streams contiguously. The prior-shifted intermediates
  // park in the output buffers (log_odds / column_ll slots are
  // overwritten in place by the epilogue), so no extra scratch is
  // needed and — since doubles round-trip through memory exactly — the
  // results stay bit-identical to the single-pass form.
  double* la_buf = out.log_odds.data();
  double* lb_buf = column_ll_scratch.data();
  double* post = out.posterior.data();
  const double log_z = table.log_prior_true();
  const double log_1mz = table.log_prior_false();
  auto gather_pass = [&](std::size_t begin, std::size_t end) {
    for (std::size_t j = begin; j < end; ++j) {
      ColumnLogLikelihood c = table.column(j);
      la_buf[j] = c.log_given_true + log_z;
      lb_buf[j] = c.log_given_false + log_1mz;
    }
  };
  // Epilogue over [begin, end): the dispatched batch kernel writes
  // posterior / log_odds / column_ll in place (note the sanctioned
  // elementwise aliasing — log_odds == la_buf, column_ll == lb_buf;
  // kernels::finalize_columns documents it). The block log-likelihoods
  // stay parked in column_ll_scratch and are summed once, flat, in
  // assertion order below — the same addition sequence the old
  // running-accumulator epilogue performed, so the serial scalar path
  // is bit-identical, and serial/parallel/backends all share one
  // canonical reduction.
  auto epilogue_pass = [&](std::size_t begin, std::size_t end) {
    kernels::finalize_columns(la_buf + begin, lb_buf + begin, end - begin,
                              post + begin, la_buf + begin,
                              lb_buf + begin);
  };
  if (pool != nullptr && pool->size() > 1 && m > kColumnGrain) {
    pool->parallel_for_chunks(
        m, kColumnGrain,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          gather_pass(begin, end);
          epilogue_pass(begin, end);
        });
  } else {
    // Serial: same chunking, so each block's la/lb intermediates are
    // still L1-resident when the epilogue rereads them.
    for (std::size_t begin = 0; begin < m; begin += kColumnGrain) {
      std::size_t end = std::min(begin + kColumnGrain, m);
      gather_pass(begin, end);
      epilogue_pass(begin, end);
    }
  }
  // Canonical fixed-shape tree sum in assertion order, independent of
  // which thread (or backend lane) produced each term — and of how
  // many threads run the leaf blocks (kernels::tree_sum).
  out.log_likelihood = kernels::tree_sum(pool, column_ll_scratch.data(), m);
}

EStepResult fused_e_step(const LikelihoodTable& table, ThreadPool* pool) {
  EStepResult out;
  std::vector<double> column_ll;
  fused_e_step(table, pool, out, column_ll);
  return out;
}

}  // namespace ss
