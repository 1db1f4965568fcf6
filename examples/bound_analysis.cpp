// Bound analysis: how far is a practical fact-finder from optimal?
//
// Generates a synthetic scenario with known source behaviour, computes the
// fundamental error bound (exact when tractable, Gibbs otherwise),
// runs the three EM-family estimators, and reports each algorithm's gap
// from the bound — the question the paper's Section III exists to answer.
//
//   ./bound_analysis [--seed N] [--sources N] [--assertions M] [--trees T]
#include <cstdio>

#include "bounds/confidence.h"
#include "bounds/dataset_bound.h"
#include "core/em_ext.h"
#include "eval/metrics.h"
#include "eval/table.h"
#include "simgen/parametric_gen.h"
#include "util/cli.h"
#include "util/string_util.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace ss;
  Cli cli("bound_analysis",
          "Fundamental error bound vs practical estimators");
  auto& seed_flag = cli.add_int("seed", 7, "RNG seed");
  auto& n_flag = cli.add_int("sources", 20, "number of sources");
  auto& m_flag = cli.add_int("assertions", 50, "number of assertions");
  auto& tau_flag = cli.add_int("trees", 0,
                               "dependency trees (0 = paper default 8-10)");
  cli.parse(argc, argv);

  auto seed = static_cast<std::uint64_t>(seed_flag);
  auto n = static_cast<std::size_t>(n_flag);
  auto m = static_cast<std::size_t>(m_flag);

  Rng rng(seed);
  SimKnobs knobs = SimKnobs::paper_defaults(n, m);
  if (tau_flag > 0) {
    knobs.tau_lo = knobs.tau_hi =
        std::min(static_cast<std::size_t>(tau_flag), n);
  }
  SimInstance inst = generate_parametric(knobs, rng);

  print_banner("Fundamental error bound");
  WallTimer timer;
  bool exact_ok = n <= kExactBoundMaxSources;
  DatasetBoundResult exact;
  double exact_time = 0.0;
  if (exact_ok) {
    exact = exact_dataset_bound(inst.dataset, inst.true_params);
    exact_time = timer.seconds();
  }
  timer.reset();
  DatasetBoundResult approx =
      gibbs_dataset_bound(inst.dataset, inst.true_params, seed);
  double approx_time = timer.seconds();

  TablePrinter bound_table(
      {"method", "error bound", "false-pos part", "false-neg part",
       "seconds"});
  if (exact_ok) {
    bound_table.add_row({"exact (Eq. 3)",
                         format_double(exact.bound.error, 6),
                         format_double(exact.bound.false_positive, 6),
                         format_double(exact.bound.false_negative, 6),
                         format_double(exact_time, 3)});
  }
  bound_table.add_row({"Gibbs (Alg. 1)",
                       format_double(approx.bound.error, 6),
                       format_double(approx.bound.false_positive, 6),
                       format_double(approx.bound.false_negative, 6),
                       format_double(approx_time, 3)});
  bound_table.print();
  double bound_error =
      exact_ok ? exact.bound.error : approx.bound.error;
  std::printf("no estimator can beat accuracy %.4f on average here\n",
              1.0 - bound_error);

  print_banner("Practical estimators vs the bound");
  TablePrinter est_table(
      {"estimator", "accuracy", "false-pos", "false-neg", "gap to optimal"});
  auto add = [&](const std::string& name, const EstimateResult& est) {
    ClassificationMetrics metrics = classify(inst.dataset, est);
    est_table.add_row(
        {name, format_double(metrics.accuracy(), 4),
         format_double(metrics.false_positive_rate(), 4),
         format_double(metrics.false_negative_rate(), 4),
         format_double((1.0 - bound_error) - metrics.accuracy(), 4)});
  };
  EmExtResult detailed = EmExtEstimator().run_detailed(inst.dataset, seed);
  add("EM-Ext", detailed.estimate);
  add("EM-Social", EmSocialEstimator().run(inst.dataset, seed));
  add("EM", EmIpsn12Estimator().run(inst.dataset, seed));
  est_table.print();

  print_banner("How well are the sources themselves known?");
  auto confidence = estimate_confidence(inst.dataset, detailed.params,
                                        detailed.estimate.belief);
  TablePrinter conf_table({"source", "a (est)", "a 95% CI", "true a",
                           "f (est)", "f 95% CI", "true f"});
  std::size_t shown = std::min<std::size_t>(8, confidence.size());
  for (std::size_t i = 0; i < shown; ++i) {
    const auto& c = confidence[i];
    conf_table.add_row(
        {std::to_string(i), format_double(c.a.estimate, 3),
         strprintf("[%.3f, %.3f]", c.a.lower(), c.a.upper()),
         format_double(inst.true_params.source[i].a, 3),
         format_double(c.f.estimate, 3),
         c.f.n_effective >= 1.0
             ? strprintf("[%.3f, %.3f]", c.f.lower(), c.f.upper())
             : std::string("n/a (no exposure)"),
         format_double(inst.true_params.source[i].f, 3)});
  }
  conf_table.print();
  std::printf("(first %zu of %zu sources; asymptotic intervals per the "
              "SECON'12 confidence-bound analysis)\n",
              shown, confidence.size());
  return 0;
}
