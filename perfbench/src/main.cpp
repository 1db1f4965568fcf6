// perfbench: the repository benchmark binary. perfbench/run.py builds
// it and runs it once per measurement:
//
//   perfbench --workload <scale-1m|bound-grid|live-stream>
//             --seed <n> --seconds <s> [--trace 0|1]
//             [--trace-out <file>] [--work-dir <dir>]
//   perfbench --self-test
//   perfbench --known-defects --seed <n>
//
// A measurement prints one JSON record as its last stdout line: the
// check counts, every metric the workload measured, details (sample
// counts, input shape, gen_s) and the host block. With --trace 1 spans
// are recorded around every call into a library module; the record then
// adds per-layer metrics and per-span self times, and --trace-out
// writes the spans as Chrome trace-event JSON.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "bench_common.h"
#include "known_defects.h"
#include "util/cpu.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string work_dir = ".bench_build/work";
  bool self_test = false;
  bool known_defects = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> [--trace 0|1] [--trace-out <file>] "
               "[--work-dir <dir>]\n       perfbench --self-test\n       "
               "perfbench --known-defects --seed <n>\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (flag == "--known-defects") {
      a.known_defects = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else if (flag == "--trace-out") {
        a.trace_out = value;
      } else if (flag == "--work-dir") {
        a.work_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  return a;
}

// CPUs this process may run on (what `nproc` prints).
std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return ss::online_cpu_count();
}

ss::JsonValue self_times(const Tracer& tracer) {
  ss::JsonValue out = ss::JsonValue::object();
  for (const Tracer::NameTotals& t : tracer.totals()) {
    ss::JsonValue row = ss::JsonValue::object();
    row["count"] = t.count;
    row["total_ms"] = t.total_s * 1e3;
    row["self_ms"] = t.self_s * 1e3;
    out[t.name] = row;
  }
  return out;
}

ss::JsonValue unattributed(const Tracer& tracer) {
  // Time inside a span that none of its child spans covers: harness
  // work, checks, and anything the traced calls do not reach.
  ss::JsonValue out = ss::JsonValue::object();
  for (const Tracer::NameTotals& t : tracer.totals()) {
    if (t.has_children) out[t.name] = t.self_s * 1e3;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse(argc, argv);

  // One client thread plus pool workers, never more threads than CPUs.
  // Every pool the benchmark builds gets `workers` threads; the
  // process-wide pool (used by estimators that take no pool) is sized
  // the same way before anything starts it. On a single-CPU host the
  // smallest pool still has one worker.
  std::size_t cpus = usable_cpus();
  std::size_t workers = cpus > 1 ? cpus - 1 : 1;
  setenv("SS_THREADS", std::to_string(workers).c_str(), 1);

  if (args.self_test) return self_test();
  if (args.known_defects) return print_known_defects(args.seed, workers);

  RunOptions opts;
  opts.seed = args.seed;
  opts.seconds = args.seconds;
  opts.workers = workers;
  opts.work_dir = args.work_dir;
  std::filesystem::create_directories(opts.work_dir);

  Tracer tracer(args.trace);
  RunResult result;
  try {
    Span run(tracer, "run");
    if (args.workload == "scale-1m") {
      result = run_scale_1m(opts, tracer);
    } else if (args.workload == "bound-grid") {
      result = run_bound_grid(opts, tracer);
    } else if (args.workload == "live-stream") {
      result = run_live_stream(opts, tracer);
    } else {
      usage("unknown workload '" + args.workload + "'");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  const CheckTally& checks = result.checks;
  result.metrics["peak_rss_mb"] = ss::bench::peak_rss_mb();
  if (args.trace) {
    result.metrics["failure_rate"] =
        static_cast<double>(checks.failed()) /
        static_cast<double>(checks.attempted());
  }

  ss::JsonValue record = ss::JsonValue::object();
  record["workload"] = args.workload;
  record["seed"] = static_cast<std::size_t>(args.seed);
  record["seconds"] = args.seconds;
  record["trace"] = args.trace;
  record["correct"] = checks.failed() == 0;
  record["attempted"] = checks.attempted();
  record["failed"] = checks.failed();
  ss::JsonValue problems = ss::JsonValue::array();
  for (const std::string& p : checks.problems()) problems.push_back(p);
  record["problems"] = problems;
  ss::JsonValue metrics = ss::JsonValue::object();
  for (const auto& [name, value] : result.metrics) metrics[name] = value;
  record["metrics"] = metrics;
  record["details"] = result.details;
  if (args.trace) {
    record["span_count"] = tracer.span_count();
    record["self_times"] = self_times(tracer);
    record["unattributed_ms"] = unattributed(tracer);
    if (!args.trace_out.empty() &&
        !tracer.write_chrome_json(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
  }
  ss::JsonValue host = ss::bench::host_metadata();
  host["online_cpus"] = ss::online_cpu_count();
  host["usable_cpus"] = cpus;
  host["pool_workers"] = workers;
  host["pool_participants"] = workers + 1;
  record["host"] = host;
  std::printf("%s\n", record.dump(0).c_str());
  return 0;
}
