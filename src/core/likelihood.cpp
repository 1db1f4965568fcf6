#include "core/likelihood.h"

#include <stdexcept>

#include "math/logprob.h"

namespace ss {

double cell_probability(const SourceParams& p, bool claimed, bool truth,
                        bool dependent) {
  double rate = truth ? (dependent ? p.f : p.a) : (dependent ? p.g : p.b);
  return claimed ? rate : 1.0 - rate;
}

LikelihoodTable::LikelihoodTable(const Dataset& dataset)
    : dataset_(dataset), partition_(&dataset.partition()) {}

LikelihoodTable::LikelihoodTable(const Dataset& dataset,
                                 const ModelParams& params)
    : LikelihoodTable(dataset) {
  set_params(params);
}

void LikelihoodTable::set_params(const ModelParams& params,
                                 ThreadPool* pool) {
  std::size_t n = dataset_.source_count();
  if (params.source.size() != n) {
    throw std::invalid_argument(
        "LikelihoodTable: params/source count mismatch");
  }
  // SourceParams is {a, b, f, g} as four contiguous doubles, so the
  // params array IS the rate-row layout build_from_rows consumes —
  // the table clamps each rate in flight.
  static_assert(sizeof(SourceParams) == 4 * sizeof(double));
  logs_.build_from_rows(n, clamp_prob(params.z),
                        reinterpret_cast<const double*>(params.source.data()),
                        pool);
}

double LikelihoodTable::data_log_likelihood() const {
  double total = 0.0;
  for (std::size_t j = 0; j < dataset_.assertion_count(); ++j) {
    ColumnLogLikelihood c = column(j);
    total += logsumexp(c.log_given_true + logs_.log_z(),
                       c.log_given_false + logs_.log_1mz());
  }
  return total;
}

}  // namespace ss
