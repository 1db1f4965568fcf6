#include "known_defects.h"

#include <cstdio>
#include <filesystem>

#include "bounds/column_model.h"
#include "bounds/gibbs_bound.h"
#include "core/em_ext.h"
#include "data/ssd.h"
#include "twitter/builder.h"
#include "twitter/scenario.h"
#include "twitter/simulator.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

int print_known_defects(std::uint64_t seed, std::size_t workers) {
  using namespace ss;
  ThreadPool pool(workers);
  EmExtConfig config;
  config.pool = &pool;

  // 1. At 10^5 scale-gen sources EM-Ext ends less accurate than the
  //    independent-claim vote prior it starts from.
  {
    std::filesystem::create_directories(".bench_build/work");
    std::string path = ".bench_build/work/defects-1e5.ssd";
    generate_scale_ssd(scale_knobs(100'000), seed, path);
    Dataset d = SsdView::open_or_throw(path).materialize();
    std::filesystem::remove(path);
    EmExtResult r = EmExtEstimator(config).run_detailed(d, seed);
    std::vector<double> prior = vote_prior_posterior(d, true);
    std::size_t em_wrong = 0, prior_wrong = 0, labelled = 0, unused = 0;
    count_errors(r.estimate.belief, d.truth, em_wrong, labelled);
    count_errors(prior, d.truth, prior_wrong, unused);
    std::printf("scale-gen 1e5: EM-Ext accuracy %.4f, vote-prior accuracy "
                "%.4f (%zu labelled assertions, %zu iterations)\n",
                1.0 - static_cast<double>(em_wrong) / labelled,
                1.0 - static_cast<double>(prior_wrong) / labelled, labelled,
                r.likelihood_trace.size());
  }

  // 2. EM-Ext on Ukraine stops at the iteration cap: four seeded Ukraine
  //    streams, then bench_table3's (seed 1600).
  {
    TwitterScenario ukraine = scenario_by_name("Ukraine");
    std::vector<std::uint64_t> streams;
    for (std::uint64_t k = 0; k < 4; ++k) streams.push_back(seed * 1000 + k * 5);
    streams.push_back(1600);
    for (std::uint64_t stream : streams) {
      BuiltDataset built = build_dataset(simulate_twitter(ukraine, stream));
      EmExtResult r = EmExtEstimator(config).run_detailed(built.dataset, seed);
      std::printf("Ukraine (stream seed %llu): EM-Ext ran %zu of max_iters "
                  "%zu iterations, converged %s\n",
                  static_cast<unsigned long long>(stream),
                  r.estimate.iterations, config.max_iters,
                  r.estimate.converged ? "yes" : "no");
    }
  }

  // 3. Per-column Gibbs chains of the bound-grid inputs run to
  //    max_sweeps (default GibbsBoundConfig): an unconverged chain is one
  //    the sweep cap stopped.
  {
    GibbsBoundConfig gibbs;
    std::size_t columns = 0, at_cap = 0;
    double samples = 0.0;
    std::size_t k = 0;
    for (const SimInstance& inst : bound_grid_instances(seed)) {
      std::uint64_t chain_seed = seed * 7919 + k++;
      for (std::size_t j = 0; j < inst.dataset.assertion_count(); j += 10) {
        GibbsBoundResult r = gibbs_bound(
            make_column_model(inst.true_params, inst.dataset.dependency, j),
            chain_seed ^ (0x9e3779b97f4a7c15ULL * (j + 1)), gibbs);
        ++columns;
        if (!r.converged) ++at_cap;
        samples += static_cast<double>(r.sweeps);
      }
    }
    std::printf("bound-grid Gibbs: %zu of %zu sampled columns ran to "
                "max_sweeps %zu (mean %.0f post-burn-in sweeps)\n",
                at_cap, columns, gibbs.max_sweeps,
                samples / static_cast<double>(columns));
  }
  return 0;
}

}  // namespace perfbench
