// The EM-Ext outer driver, shared by the flat and sharded engines.
//
// em_ext.cpp's original run_detailed mixed two concerns: the numerical
// E/M iteration (engine-specific — the flat engine runs a
// LikelihoodTable over one global CSR, the sharded engine runs the same
// kernels shard-parallel) and everything around it: initialization,
// the f=g warm-up, convergence, divergence retries, random restarts,
// checkpoint/resume, winner selection, health accounting. The
// surrounding machinery is engine-independent and lives here once,
// templated over an Engine, so the sharded path inherits the exact
// retry/restart/checkpoint semantics — same split keys, same
// fingerprint chain, same attempt encoding — instead of a diverging
// copy.
//
// Engine contract (duck-typed; FlatEmEngine in em_ext.cpp and
// ShardedEmEngine in sharded_em.cpp are the two implementations):
//
//   std::size_t source_count() const;
//   std::size_t assertion_count() const;
//   std::uint64_t claim_count() const;     // checkpoint fingerprint
//   ThreadPool* pool() const;              // resolved, never nullptr
//   using Scratch = ...;                   // per-attempt state
//   Scratch make_scratch() const;
//   // E-step under `params`: fills scratch.e (posterior, log_odds,
//   // log_likelihood). May produce non-finite values; the driver
//   // guards them.
//   void e_step(const ModelParams& params, Scratch& scratch) const;
//   // Closed-form M-step given the posterior, applied to `params` IN
//   // PLACE (params holds the previous estimates on entry, the new
//   // ones on return). The non-finite sanitize, the optional f=g
//   // warm-up tie and the max-norm convergence delta happen inside
//   // the update (em_detail::finalize_m_step_fused) and are reported
//   // via MStepOutcome. Must be bit-identical across engines (both
//   // delegate to the shared fused tail).
//   void m_step(const std::vector<double>& posterior, ModelParams& params,
//               bool tie_fg, Scratch& scratch,
//               em_detail::MStepOutcome& out) const;
//   // Support-based initial posterior (em_ext.h vote_prior_posterior
//   // semantics).
//   std::vector<double> vote_prior(bool independent_only) const;
//   // True when source i carries no evidence (no claims, no exposure).
//   bool degenerate_source(std::size_t i) const;
//
// Determinism inventory (docs/MODEL.md §14/§16): every floating-point
// reduction the driver or the engines own is either serial in
// canonical order or a fixed-shape tree reduction over a global array
// (kernels::tree_reduce — shape depends only on the element count, so
// thread counts, shard layouts and work-stealing schedules cannot
// perturb it): log-likelihood via kernels::tree_sum in assertion
// order, M-step statistics slot-addressed with a tree-pooled
// reduction, per-source updates combined by order-independent +/max.
// Integer health counters are the only values merged without ordering.
#pragma once

#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/em_ext.h"
#include "core/em_mstep.h"
#include "core/params.h"
#include "math/convergence.h"
#include "math/logprob.h"
#include "util/checkpoint.h"
#include "util/fault_inject.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace ss {
namespace em_detail {

// CheckpointStore kind tag for EM restart attempts.
inline constexpr std::uint64_t kEmExtCheckpointKind = 1;
// Split-key base for divergence-recovery re-seeds; offset past any
// plausible attempt index so retry streams never collide with the
// attempts' own init streams.
inline constexpr std::uint64_t kReseedKeyBase = 0x52450000ull;

inline bool all_finite(const std::vector<double>& v) {
  for (double x : v) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

// One completed restart attempt, serialized bit-exact for
// CheckpointStore — everything the winner selection and the final
// result need, so a resumed run is indistinguishable from an
// uninterrupted one.
inline std::string encode_attempt(const EmExtResult& r) {
  BinWriter w;
  w.vec_f64(r.estimate.belief);
  w.vec_f64(r.estimate.log_odds);
  w.u64(r.estimate.iterations);
  w.u8(r.estimate.converged ? 1 : 0);
  w.vec_f64(r.likelihood_trace);
  w.f64(r.log_likelihood);
  w.f64(r.params.z);
  w.u64(r.params.source.size());
  for (const SourceParams& s : r.params.source) {
    w.f64(s.a);
    w.f64(s.b);
    w.f64(s.f);
    w.f64(s.g);
  }
  w.u64(r.health.nonfinite_events);
  w.u64(r.health.reseeded_attempts);
  w.u64(r.health.failed_attempts);
  w.u64(r.health.sanitized_params);
  return w.take();
}

// Throws std::runtime_error on any malformed payload; the caller treats
// that as "record absent" and recomputes the attempt.
inline EmExtResult decode_attempt(const std::string& bytes) {
  BinReader rd(bytes);
  EmExtResult r;
  r.estimate.belief = rd.vec_f64();
  r.estimate.log_odds = rd.vec_f64();
  r.estimate.iterations = static_cast<std::size_t>(rd.u64());
  r.estimate.converged = rd.u8() != 0;
  r.estimate.probabilistic = true;
  r.likelihood_trace = rd.vec_f64();
  r.log_likelihood = rd.f64();
  r.params.z = rd.f64();
  std::uint64_t n = rd.u64();
  if (n > bytes.size()) {  // 32 bytes per source; reject garbage counts
    throw std::runtime_error("checkpoint: truncated payload");
  }
  r.params.source.resize(static_cast<std::size_t>(n));
  for (SourceParams& s : r.params.source) {
    s.a = rd.f64();
    s.b = rd.f64();
    s.f = rd.f64();
    s.g = rd.f64();
  }
  r.health.nonfinite_events = static_cast<std::size_t>(rd.u64());
  r.health.reseeded_attempts = static_cast<std::size_t>(rd.u64());
  r.health.failed_attempts = static_cast<std::size_t>(rd.u64());
  r.health.sanitized_params = static_cast<std::size_t>(rd.u64());
  r.health.resumed_attempts = 1;
  if (!rd.done()) {
    throw std::runtime_error("checkpoint: trailing bytes");
  }
  return r;
}

// The full EM-Ext outer loop over `engine`. Semantically identical to
// the pre-refactor em_ext.cpp run_detailed — same RNG streams, same
// checkpoint fingerprint chain, same winner selection — so existing
// golden hashes pin this driver through the flat engine.
template <typename Engine>
EmExtResult run_em_driver(const Engine& engine, const EmExtConfig& config,
                          std::uint64_t seed) {
  const std::size_t n = engine.source_count();
  const std::size_t m = engine.assertion_count();
  if (m == 0) {
    // Nothing to estimate; return a well-formed empty result.
    EmExtResult empty;
    empty.estimate.probabilistic = true;
    empty.params.source.assign(n, SourceParams{});
    return empty;
  }
  ThreadPool* pool = engine.pool();
  Rng rng(seed, /*stream=*/0x37);

  bool random_init =
      !config.init.has_value() && config.init_kind == EmInit::kRandom;
  std::size_t restarts =
      random_init ? std::max<std::size_t>(1, config.restarts) : 1;

  // One guarded EM run. Returns nullopt when an E-step went non-finite
  // (injected fault or pathological input) — the caller re-seeds and
  // retries rather than letting a NaN reach winner selection. retry > 0
  // always draws fresh random parameters: replaying a deterministic
  // initialization that already diverged would diverge again.
  auto run_attempt_once =
      [&](std::size_t attempt, std::size_t retry,
          EmHealth& health) -> std::optional<EmExtResult> {
    // Per-attempt scratch, reused by every EM iteration below (tables
    // rebuilt in place, buffers keep their capacity, so the iteration
    // loops run allocation-free).
    typename Engine::Scratch scratch = engine.make_scratch();
    ModelParams params;
    if (retry > 0) {
      Rng retry_rng = rng.split(kReseedKeyBase + attempt * 64 + retry);
      params = random_init_params(n, retry_rng);
    } else if (config.init.has_value()) {
      params = *config.init;
    } else if (random_init) {
      Rng attempt_rng = rng.split(attempt);
      params = random_init_params(n, attempt_rng);
    } else {
      // Vote prior: derive the initial parameters from a support-based
      // posterior via one M-step (in place over neutral parameters;
      // the outcome's sanitize count and delta are meaningless here
      // and dropped). Only independent claims count toward the
      // initial support — seeding belief from echo counts would let
      // a viral rumour enter the first M-step as "true", inflating f
      // relative to g and locking the dependent-claim semantics in
      // backwards.
      params.source.assign(n, SourceParams{});
      MStepOutcome ignored;
      engine.m_step(engine.vote_prior(/*independent_only=*/true), params,
                    /*tie_fg=*/false, scratch, ignored);
    }
    clamp_params(params, config.clamp_eps);

    EmExtResult result;
    // One guarded E-step: posterior + likelihood with the driver's
    // non-finite check, shared by both phases below.
    auto guarded_e_step = [&]() -> bool {
      engine.e_step(params, scratch);
      fault::maybe_corrupt_posterior(scratch.e.posterior);
      if (!std::isfinite(scratch.e.log_likelihood) ||
          !all_finite(scratch.e.posterior)) {
        ++health.nonfinite_events;
        return false;
      }
      return true;
    };

    // Phase 1 (warm-up): f and g tied per source, which cancels every
    // dependent-branch factor from the posterior — labels form from
    // independent evidence only (see EmExtConfig::warmup_iters).
    std::size_t warmup = config.init.has_value() || random_init
                             ? 0
                             : config.warmup_iters;
    if (warmup > 0) {
      ConvergenceMonitor warm_monitor(config.tol, warmup);
      bool warm_done = false;
      while (!warm_done) {
        if (!guarded_e_step()) return std::nullopt;
        result.likelihood_trace.push_back(scratch.e.log_likelihood);
        // In-place M-step with the f=g tie and the sanitize/delta
        // bookkeeping fused into the update pass (same per-element
        // order as the historical separate walks).
        MStepOutcome mo;
        engine.m_step(scratch.e.posterior, params, /*tie_fg=*/true,
                      scratch, mo);
        health.sanitized_params += mo.sanitized;
        warm_done = warm_monitor.update_delta(mo.delta);
      }
    }

    // Phase 2: the full model (Eq. 9 / Eq. 10-14).
    ConvergenceMonitor monitor(config.tol, config.max_iters);
    bool done = false;
    while (!done) {
      if (!guarded_e_step()) return std::nullopt;  // E-step (Eq. 9)
      result.likelihood_trace.push_back(scratch.e.log_likelihood);
      // M-step (Eq. 10-14), in place.
      MStepOutcome mo;
      engine.m_step(scratch.e.posterior, params, /*tie_fg=*/false,
                    scratch, mo);
      health.sanitized_params += mo.sanitized;
      done = monitor.update_delta(mo.delta);
    }

    // Final posterior under the converged parameters — one fused pass
    // supplies beliefs, log-odds and the final likelihood together.
    if (!guarded_e_step()) return std::nullopt;
    result.estimate.belief = std::move(scratch.e.posterior);
    result.estimate.log_odds = std::move(scratch.e.log_odds);
    result.estimate.probabilistic = true;
    result.estimate.iterations = monitor.iterations();
    result.estimate.converged = !monitor.hit_max();
    result.params = std::move(params);
    result.log_likelihood = scratch.e.log_likelihood;
    return result;
  };

  // Retry wrapper: re-seed a diverged attempt up to
  // max_divergence_retries times; after that, fall back to the
  // data-driven vote prior with -inf likelihood, which can win only
  // when every attempt diverged — and even then the returned beliefs
  // are finite.
  auto run_attempt = [&](std::size_t attempt) -> EmExtResult {
    EmHealth health;
    for (std::size_t retry = 0; retry <= config.max_divergence_retries;
         ++retry) {
      if (retry > 0) ++health.reseeded_attempts;
      std::optional<EmExtResult> r =
          run_attempt_once(attempt, retry, health);
      if (r.has_value()) {
        r->health = health;
        return *std::move(r);
      }
    }
    ++health.failed_attempts;
    EmExtResult r;
    r.estimate.belief = engine.vote_prior(/*independent_only=*/false);
    r.estimate.log_odds.resize(m);
    for (std::size_t j = 0; j < m; ++j) {
      double b = r.estimate.belief[j];  // clamped to [0.05, 0.95]
      r.estimate.log_odds[j] = logit(b);
    }
    r.estimate.probabilistic = true;
    r.estimate.converged = false;
    r.params.source.assign(n, SourceParams{});
    clamp_params(r.params, config.clamp_eps);
    r.log_likelihood = -std::numeric_limits<double>::infinity();
    r.health = health;
    return r;
  };

  // Checkpoint store bound to everything that determines an attempt's
  // output; a stale file (different data, seed or config) is ignored.
  std::unique_ptr<CheckpointStore> ckpt;
  if (!config.checkpoint_path.empty()) {
    std::uint64_t fp = fingerprint_combine(0x454d4558ull, seed);
    fp = fingerprint_combine(fp, static_cast<std::uint64_t>(n));
    fp = fingerprint_combine(fp, static_cast<std::uint64_t>(m));
    fp = fingerprint_combine(fp, engine.claim_count());
    fp = fingerprint_combine(fp, config.tol);
    fp = fingerprint_combine(fp,
                             static_cast<std::uint64_t>(config.max_iters));
    fp = fingerprint_combine(fp, config.clamp_eps);
    fp = fingerprint_combine(fp, config.shrinkage);
    fp = fingerprint_combine(fp, config.z_floor);
    fp = fingerprint_combine(
        fp, static_cast<std::uint64_t>(config.warmup_iters));
    fp = fingerprint_combine(fp,
                             static_cast<std::uint64_t>(config.init_kind));
    fp = fingerprint_combine(
        fp, static_cast<std::uint64_t>(config.max_divergence_retries));
    fp = fingerprint_combine(
        fp, static_cast<std::uint64_t>(config.init.has_value()));
    ckpt = std::make_unique<CheckpointStore>(
        config.checkpoint_path, kEmExtCheckpointKind, fp, restarts);
  }

  auto run_or_resume = [&](std::size_t attempt) -> EmExtResult {
    if (ckpt != nullptr && ckpt->has(attempt)) {
      try {
        return decode_attempt(ckpt->payload(attempt));
      } catch (const std::exception&) {
        // Undecodable record: recompute. A checkpoint can only save
        // work, never poison a run.
      }
    }
    EmExtResult r = run_attempt(attempt);
    if (ckpt != nullptr) {
      ckpt->commit(attempt, encode_attempt(r));
      fault::unit_committed();  // kill-after-commit injection point
    }
    return r;
  };

  std::vector<EmExtResult> attempts(restarts);
  if (restarts > 1) {
    // Random restarts are independent; run them across the pool (grain
    // 1: one attempt per chunk). Nested parallel sections inside each
    // attempt are safe because parallel_for_chunks callers participate.
    pool->parallel_for_chunks(
        restarts, 1, [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t a = begin; a < end; ++a) {
            attempts[a] = run_or_resume(a);
          }
        });
  } else {
    attempts[0] = run_or_resume(0);
  }

  // Winner selection in attempt order (first best wins ties), identical
  // to the sequential loop it replaces. Health aggregates over every
  // attempt, not just the winner.
  EmExtResult best;
  bool have_best = false;
  EmHealth total;
  for (EmExtResult& result : attempts) {
    total.nonfinite_events += result.health.nonfinite_events;
    total.reseeded_attempts += result.health.reseeded_attempts;
    total.failed_attempts += result.health.failed_attempts;
    total.sanitized_params += result.health.sanitized_params;
    total.resumed_attempts += result.health.resumed_attempts;
    if (!have_best || result.log_likelihood > best.log_likelihood) {
      best = std::move(result);
      have_best = true;
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (engine.degenerate_source(i)) ++total.degenerate_sources;
  }
  best.health = total;
  if (ckpt != nullptr && !config.keep_checkpoint) ckpt->remove_file();
  return best;
}

}  // namespace em_detail
}  // namespace ss
