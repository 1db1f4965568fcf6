// live-stream: one long event replayed through the incremental engine.
//   input:   one simulate_twitter("Paris Attack") stream, about 44k tweets
//   set-up:  construct the worker pool and a LiveApollo on it, kSetupReps
//            times before each replay
//   replay:  LiveApollo::ingest for every tweet of the stream, refresh()
//            after each of kRefreshes equal windows of tweets
// Each replay runs on a fresh LiveApollo and repeats the same work;
// replays run until the time is up, and at least kMinReplays of them. A
// request is one refresh. Its latency is the median of its times over the
// replays, and the percentiles are taken over the event's refreshes.
//
// The traced run also analyses the stream in batch once, after its
// first replay and outside the requests: build_dataset, then
// ApolloPipeline::analyze with EM-Ext, EM-Social and EM. This measures
// the twitter, estimators and apollo batch layers, which no end-to-end
// metric covers (perfbench/README.md says why there is no batch
// workload).
#include <algorithm>
#include <array>
#include <memory>
#include <unordered_map>
#include <utility>

#include "apollo/live.h"
#include "apollo/pipeline.h"
#include "twitter/builder.h"
#include "twitter/scenario.h"
#include "twitter/simulator.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ss;

// examples/live_monitor.cpp, the repository's live caller, refreshes
// "every few hours of event time": every 6 h of Paris Attack's 240 h is 40
// refreshes, about 1.1k tweets a window. Its default, 120 h over Kirkuk's
// 1440 h, would be 12 refreshes here; the first refresh of a replay costs
// 3-4 times a later one, and at 1 in 12 those sit just above p90, whose
// spread over five seeds was then 0.38 (perfbench/README.md).
constexpr std::size_t kRefreshes = 40;
// Set-ups before each replay (the last one serves it). Spread over the
// run rather than back to back, they sample the host's drift the way the
// replays do.
constexpr int kSetupReps = 4;
// The shared host slows stretches of about 2 s (some 20 refreshes) to
// about twice their time. Pooled over a run, or per replay, p90 caught
// those stretches and spread by 0.36-0.40 over seeds; the median of five
// or more repeats of each refresh passes over them unless they hit three
// of its five.
constexpr std::size_t kMinReplays = 5;
constexpr std::array<const char*, 3> kEstimators = {"EM-Ext", "EM-Social",
                                                    "EM"};

struct Engine {
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<LiveApollo> live;
};

Engine make_engine(const Digraph& follows, std::size_t workers) {
  Engine e;
  e.pool = std::make_unique<ThreadPool>(workers);
  LiveApolloConfig config;
  config.em.pool = e.pool.get();
  e.live = std::make_unique<LiveApollo>(follows, config);
  return e;
}

}  // namespace

RunResult run_live_stream(const RunOptions& opts, Tracer& tracer) {
  RunResult out;
  WallTimer gen_timer;
  TwitterSimulation sim =
      simulate_twitter(scenario_by_name("Paris Attack"), opts.seed);
  out.details["gen_s"] = gen_timer.seconds();

  std::vector<double> setup_s;
  // by_refresh[i]: the times of the i-th refresh, one per replay.
  std::vector<std::vector<double>> by_refresh;
  std::vector<double> refresh_ms, replay_s, replay_tweets_per_s;
  std::vector<double> ingest_us, window_claims;
  std::vector<double> error_rates;
  std::vector<double> build_ms, clusters;
  std::array<std::vector<double>, 3> analyze_ms;
  std::uint64_t request_id = 0;
  WallTimer window;
  while (replay_s.size() < kMinReplays || window.seconds() < opts.seconds) {
    Engine engine;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      Engine next;
      {
        Span span(tracer, "setup");
        WallTimer timer;
        next = make_engine(sim.follows, opts.workers);
        setup_s.push_back(timer.seconds());
      }
      // The previous engine goes out of scope in `next`, LiveApollo first.
      std::swap(engine, next);
    }
    LiveApollo& live = *engine.live;
    std::size_t pending = 0;
    std::size_t refreshes = 0;
    double replay = 0.0;
    auto refresh = [&] {
      Span span(tracer, "request", ++request_id);
      WallTimer timer;
      LiveRefreshResult r;
      {
        Span s(tracer, "apollo.live_refresh");
        r = live.refresh();
      }
      double t = timer.seconds();
      replay += t;
      refresh_ms.push_back(t * 1e3);
      if (by_refresh.size() <= refreshes) by_refresh.resize(refreshes + 1);
      by_refresh[refreshes].push_back(t * 1e3);
      window_claims.push_back(static_cast<double>(r.window_claims));
      ++refreshes;
      RefreshObservation obs{r.clusters.size(),  r.belief,
                             r.window_claims,    live.refreshes(),
                             live.next_sequence(), live.dropped_tweets()};
      out.checks.record(check_refresh(obs, pending, refreshes));
      pending = 0;
    };
    std::size_t window_tweets =
        (sim.tweets.size() + kRefreshes - 1) / kRefreshes;
    std::vector<std::uint32_t> cluster_of(sim.tweets.size());
    for (std::size_t begin = 0; begin < sim.tweets.size();
         begin += window_tweets) {
      std::size_t end = std::min(begin + window_tweets, sim.tweets.size());
      WallTimer timer;
      {
        Span s(tracer, "apollo.live_ingest");
        for (std::size_t t = begin; t < end; ++t) {
          cluster_of[t] = live.ingest(sim.tweets[t]);
        }
      }
      double t = timer.seconds();
      replay += t;
      ingest_us.push_back(t * 1e6 / static_cast<double>(end - begin));
      pending += end - begin;
      refresh();
    }
    replay_s.push_back(replay);
    replay_tweets_per_s.push_back(static_cast<double>(sim.tweets.size()) /
                                  replay);

    // Cluster id -> tweets labelled true / false, for the final grade.
    std::unordered_map<std::uint32_t, std::pair<std::size_t, std::size_t>>
        votes;
    for (std::size_t t = 0; t < sim.tweets.size(); ++t) {
      if (sim.tweets[t].hidden_label == Label::kTrue) {
        ++votes[cluster_of[t]].first;
      }
      if (sim.tweets[t].hidden_label == Label::kFalse) {
        ++votes[cluster_of[t]].second;
      }
    }
    std::vector<double> belief;
    std::vector<Label> truth;
    for (const auto& [cluster, b] : live.beliefs()) {
      auto it = votes.find(cluster);
      if (it == votes.end() || it->second.first == it->second.second) {
        continue;
      }
      belief.push_back(b);
      truth.push_back(it->second.first > it->second.second ? Label::kTrue
                                                           : Label::kFalse);
    }
    std::size_t wrong = 0;
    std::size_t labelled = 0;
    count_errors(belief, truth, wrong, labelled);
    error_rates.push_back(static_cast<double>(wrong) /
                          static_cast<double>(labelled));

    if (tracer.enabled() && replay_s.size() == 1) {
      Span probe(tracer, "batch_probe");
      WallTimer timer;
      BuiltDataset built;
      {
        Span s(tracer, "twitter.build_dataset");
        built = build_dataset(sim);
      }
      build_ms.push_back(timer.millis());
      clusters.push_back(static_cast<double>(built.dataset.assertion_count()));
      for (std::size_t e = 0; e < kEstimators.size(); ++e) {
        ApolloPipeline pipeline(kEstimators[e]);
        timer.reset();
        PipelineReport report;
        {
          Span s(tracer, "apollo.analyze");
          report = pipeline.analyze(built.dataset, opts.seed);
        }
        analyze_ms[e].push_back(timer.millis());
        std::vector<std::uint32_t> ranking;
        for (const RankedAssertion& ra : report.ranked) {
          ranking.push_back(ra.assertion);
        }
        out.checks.record(check_estimate(report.estimate, ranking));
      }
    }
  }

  // Each refresh's latency is the median of its repeats; the percentiles
  // are over the event's refreshes.
  std::vector<double> latency_ms;
  for (const std::vector<double>& times : by_refresh) {
    latency_ms.push_back(median(times));
  }
  auto& m = out.metrics;
  m["setup_s"] = median(setup_s);
  m["solve_s"] = median(replay_s);
  m["latency_p50_ms"] = quantile(latency_ms, 0.5);
  m["latency_p90_ms"] = quantile(latency_ms, 0.9);
  m["throughput_per_s"] = median(replay_tweets_per_s);
  m["error_rate"] = mean(error_rates);

  if (tracer.enabled()) {
    m["apollo.live_ingest_us"] = median(ingest_us);
    m["apollo.live_refresh_ms"] = median(refresh_ms);
    m["apollo.window_claims"] = mean(window_claims);
    m["apollo.analyze_ms"] = median(analyze_ms[0]);
    m["estimators.em_social_ms"] = median(analyze_ms[1]);
    m["estimators.em_ipsn12_ms"] = median(analyze_ms[2]);
    m["twitter.build_dataset_ms"] = median(build_ms);
    m["twitter.clusters"] = mean(clusters);
    m["util.pool_participants"] = static_cast<double>(opts.workers + 1);
  }

  out.details["tweets"] = sim.tweets.size();
  out.details["refreshes_per_replay"] = by_refresh.size();
  out.details["replays"] = replay_s.size();
  out.details["requests"] = refresh_ms.size();
  out.details["setup_reps"] = setup_s.size();
  return out;
}

}  // namespace perfbench
