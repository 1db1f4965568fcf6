// The three benchmark workloads. Each builds its inputs from the seed
// (input generation is timed as gen_s and is not a metric), sets up,
// then runs a closed loop with one client thread for at least
// `seconds`, checking every operation's output.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "checks.h"
#include "data/dataset.h"
#include "eval/json.h"
#include "math/stats.h"
#include "simgen/parametric_gen.h"
#include "simgen/scale_gen.h"
#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  // Pool workers; every parallel call also runs on the calling thread,
  // so workers + 1 threads work at once, at most the CPUs available.
  std::size_t workers = 0;
  // Scratch directory inside the checkout for generated files.
  std::string work_dir;
};

struct RunResult {
  // End-to-end and per-layer metrics by name. A per-layer metric a
  // workload does not measure is left out.
  std::map<std::string, double> metrics;
  CheckTally checks;
  // Sample counts, input shape, gen_s and other context for the record.
  ss::JsonValue details = ss::JsonValue::object();
};

RunResult run_scale_1m(const RunOptions& opts, Tracer& tracer);
RunResult run_bound_grid(const RunOptions& opts, Tracer& tracer);
RunResult run_live_stream(const RunOptions& opts, Tracer& tracer);

// Inputs shared with the known-defects report: bench_scale's knobs at
// `sources`, and the bound-grid instances the seed generates.
ss::ScaleKnobs scale_knobs(std::size_t sources);
std::vector<ss::SimInstance> bound_grid_instances(std::uint64_t seed);

using ss::mean;
using ss::quantile;
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// Adds to `labelled` the assertions whose truth is true or false, and to
// `wrong` those of them whose belief lands on the wrong side of 0.5.
void count_errors(const std::vector<double>& belief,
                  const std::vector<ss::Label>& truth, std::size_t& wrong,
                  std::size_t& labelled);

}  // namespace perfbench
