// Template definitions for the BayesLSH / BayesLSH-Lite engines declared
// in core/bayes_lsh.h.
//
// The engines are generic over (PosteriorModel, Store); translation units
// that pair them with a new store type include this header and add an
// explicit instantiation (see core/bayes_lsh.cc for the built-in sparse
// combinations and kernel/kernel_search.cc for the KLSH one). Keeping the
// definitions out of core/bayes_lsh.h keeps rebuilds of the public header
// cheap and the instantiation set explicit.
//
// The round loops live in internal::BayesRounds / internal::LiteRounds,
// generic over a `match(a, b, from, to)` callable and resumable from a
// pair's evidence so far. The sequential engines here run each pair's
// rounds to the end in one call (depth-first); the level-synchronous
// parallel driver in core/parallel_verify.h runs every open pair a few
// rounds at a time. Both execute literally the same per-round decisions,
// which is what makes the multi-threaded output bit-identical.

#ifndef BAYESLSH_CORE_BAYES_LSH_IMPL_H_
#define BAYESLSH_CORE_BAYES_LSH_IMPL_H_

#include <cassert>

#include "core/bayes_lsh.h"

namespace bayeslsh {
namespace internal {

// Records a pair's lifetime into the Fig. 4 survival curve: the pair was
// alive for rounds [0, pruned_at_round). Accepted pairs pass
// pruned_at_round = total_rounds + 1 so they count as alive everywhere.
inline void RecordSurvival(std::vector<uint64_t>* curve,
                           uint32_t pruned_at_round) {
  for (uint32_t r = 0; r < curve->size() && r < pruned_at_round; ++r) {
    ++(*curve)[r];
  }
}

// A pair's evidence so far: m matching hashes among its first n.
struct PairEvidence {
  uint32_t m = 0;
  uint32_t n = 0;
};

// Where a pair stands after a stretch of rounds: still open, or decided.
// kRejected is BayesLSH-Lite's exact similarity falling below the
// threshold.
enum class PairVerdict : uint8_t { kOpen, kPruned, kAccepted, kRejected };

// Algorithm 1's rounds for pair (a, b), continued from *ev while the next
// round ends at or before `until` hashes (a multiple of k, at most the
// budget). On kAccepted, *sim holds the reported estimate. `stats` must
// arrive with surviving_after_round sized rounds + 1.
template <typename Model, typename Match>
PairVerdict BayesRounds(const Model& model, InferenceCache<Model>& cache,
                        const Match& match, uint32_t a, uint32_t b,
                        uint32_t until, PairEvidence* ev, double* sim,
                        VerifyStats* stats) {
  const uint32_t k = cache.hashes_per_round();
  const uint32_t rounds = cache.max_hashes() / k;
  while (ev->n + k <= until) {
    ev->m += match(a, b, ev->n, ev->n + k);
    ev->n += k;
    stats->hashes_compared += k;
    if (ev->m < cache.MinMatches(ev->n)) {
      ++stats->pruned;
      RecordSurvival(&stats->surviving_after_round, ev->n / k);
      return PairVerdict::kPruned;
    }
    const auto er = cache.EstimateAt(ev->m, ev->n);
    if (er.concentrated) {
      ++stats->accepted;
      *sim = er.estimate;
      RecordSurvival(&stats->surviving_after_round, rounds + 1);
      return PairVerdict::kAccepted;
    }
  }
  if (ev->n < cache.max_hashes()) return PairVerdict::kOpen;
  // Hash budget exhausted: accept with the current estimate.
  ++stats->forced_accepts;
  ++stats->accepted;
  *sim = model.Estimate(static_cast<int>(ev->m), static_cast<int>(ev->n));
  RecordSurvival(&stats->surviving_after_round, rounds + 1);
  return PairVerdict::kAccepted;
}

// Algorithm 2's rounds for pair (a, b); see BayesRounds. A pair that
// survives the whole pruning budget is scored with exact_sim.
template <typename Model, typename Match, typename ExactFn>
PairVerdict LiteRounds(InferenceCache<Model>& cache, const Match& match,
                       const ExactFn& exact_sim, double threshold, uint32_t a,
                       uint32_t b, uint32_t until, PairEvidence* ev,
                       double* sim, VerifyStats* stats) {
  const uint32_t k = cache.hashes_per_round();
  const uint32_t rounds = cache.max_hashes() / k;
  while (ev->n + k <= until) {
    ev->m += match(a, b, ev->n, ev->n + k);
    ev->n += k;
    stats->hashes_compared += k;
    if (ev->m < cache.MinMatches(ev->n)) {
      ++stats->pruned;
      RecordSurvival(&stats->surviving_after_round, ev->n / k);
      return PairVerdict::kPruned;
    }
  }
  if (ev->n < cache.max_hashes()) return PairVerdict::kOpen;
  RecordSurvival(&stats->surviving_after_round, rounds + 1);
  ++stats->exact_computed;
  *sim = exact_sim(a, b);
  if (!(*sim >= threshold)) return PairVerdict::kRejected;
  ++stats->accepted;
  return PairVerdict::kAccepted;
}

// The two round loops above with their engine-specific arguments bound,
// called by the drivers as run_rounds(cache, match, a, b, until, &ev, &sim,
// &stats).
template <typename Model>
auto BayesRoundLoop(const Model& model) {
  return [&model](auto& cache, const auto& match, uint32_t a, uint32_t b,
                  uint32_t until, PairEvidence* ev, double* sim,
                  VerifyStats* st) {
    return BayesRounds(model, cache, match, a, b, until, ev, sim, st);
  };
}

template <typename ExactFn>
auto LiteRoundLoop(const ExactFn& exact_sim, double threshold) {
  return [&exact_sim, threshold](auto& cache, const auto& match, uint32_t a,
                                 uint32_t b, uint32_t until, PairEvidence* ev,
                                 double* sim, VerifyStats* st) {
    return LiteRounds(cache, match, exact_sim, threshold, a, b, until, ev,
                      sim, st);
  };
}

// The sequential engine: each pair runs all its rounds before the next
// pair starts, growing signatures lazily through store->MatchCount.
// `run_rounds` is BayesRoundLoop or LiteRoundLoop.
template <typename Model, typename Store, typename RoundsFn>
std::vector<ScoredPair> VerifyDepthFirst(
    const Model& model, Store* store,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs, uint32_t budget,
    const BayesLshParams& params, VerifyStats* stats,
    const RoundsFn& run_rounds) {
  assert(params.hashes_per_round > 0 &&
         budget % params.hashes_per_round == 0);
  InferenceCache<Model> cache(&model, params.hashes_per_round, budget,
                              params.epsilon, params.delta, params.gamma);
  VerifyStats local;
  local.pairs_in = pairs.size();
  local.surviving_after_round.assign(budget / params.hashes_per_round + 1,
                                     0);
  const auto match = [store](uint32_t a, uint32_t b, uint32_t from,
                             uint32_t to) {
    return store->MatchCount(a, b, from, to);
  };
  std::vector<ScoredPair> out;
  for (const auto& [a, b] : pairs) {
    PairEvidence ev;
    double sim = 0.0;
    if (run_rounds(cache, match, a, b, budget, &ev, &sim, &local) ==
        PairVerdict::kAccepted) {
      out.push_back({a, b, sim});
    }
  }
  local.cache = cache.stats();
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace internal

template <typename Model, typename Store>
std::vector<ScoredPair> BayesLshVerify(
    const Model& model, Store* store,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    const BayesLshParams& params, VerifyStats* stats) {
  return internal::VerifyDepthFirst(
      model, store, pairs, params.max_hashes, params, stats,
      internal::BayesRoundLoop(model));
}

template <typename Model, typename Store>
std::vector<ScoredPair> BayesLshLiteVerify(
    const Model& model, Store* store,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    uint32_t max_prune_hashes,
    const std::function<double(uint32_t, uint32_t)>& exact_sim,
    double threshold, const BayesLshParams& params, VerifyStats* stats) {
  return internal::VerifyDepthFirst(
      model, store, pairs, max_prune_hashes, params, stats,
      internal::LiteRoundLoop(exact_sim, threshold));
}

}  // namespace bayeslsh

#endif  // BAYESLSH_CORE_BAYES_LSH_IMPL_H_
