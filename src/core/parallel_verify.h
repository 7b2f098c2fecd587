// Level-synchronous parallel verification: the multi-threaded drivers for
// the BayesLSH / BayesLSH-Lite engines of core/bayes_lsh.h.
//
// The sequential engines verify depth-first: each pair runs all of its
// rounds, growing its endpoints' signatures lazily, before the next pair
// starts. The parallel drivers instead advance every open pair together,
// one signature chunk at a time (docs/ARCHITECTURE.md, "Where the
// parallelism lives"). Each level has two phases:
//
//   1. Grow. The horizon moves to the next chunk boundary that covers at
//      least one more round (one 64-bit chunk = two rounds for SRP; for
//      16-int minwise chunks a round spans two chunks). The rows of the
//      pairs still open are collected once each with a per-row mark array
//      and grown to the horizon in parallel, workers claiming small
//      batches of rows (EnsureRowUncounted — distinct rows touch distinct
//      vectors, so no locks).
//   2. Verify. Growth pauses; every open pair runs the rounds that end at
//      or before the horizon, statically sharded over the pool, reading
//      signatures with MatchCountReadOnly. Each worker keeps one
//      InferenceCache across all levels. A pair is pruned, accepted (Lite:
//      scored exactly once its pruning budget is spent) or carried to the
//      next level as (candidate index, m) — every open pair has compared
//      the same number of hashes, so n is implicit.
//
// Level 0 reads the candidate list directly, so the majority of pairs that
// die in the first rounds never get per-pair state. Accepted pairs are put
// back into candidate order at the end.
//
// Results are bit-identical to the sequential engines for any thread
// count: hash values are pure functions of (hasher, row, chunk) and each
// pair's verdict depends only on its own match counts. The hashing tally
// is identical too: a row is grown to a level's horizon only when a pair
// using it runs a round in that level, which is exactly the chunk the
// depth-first engine's lazy growth reaches for that round. Only the
// inference-cache hit/miss counters vary with the thread count.

#ifndef BAYESLSH_CORE_PARALLEL_VERIFY_H_
#define BAYESLSH_CORE_PARALLEL_VERIFY_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/bayes_lsh_impl.h"

namespace bayeslsh {

// Below this many pairs per worker, sharding verification costs more than
// it saves and the work runs on the calling thread.
inline constexpr uint64_t kMinPairsPerShard = 64;

namespace internal {

// Collects the distinct rows of a set of pairs with a per-row mark array
// and grows them in parallel. Rows are kept in first-appearance order; the
// marks are cleared again by Grow, so one collector serves many rounds.
template <typename Store>
class PairRowGrower {
 public:
  explicit PairRowGrower(Store* store)
      : store_(store), marked_(store->num_rows(), 0) {}

  void Add(uint32_t a, uint32_t b) {
    Mark(a);
    Mark(b);
  }

  // Grows every added row to at least n hashes on `pool` (a chunk costs
  // tens of microseconds per row, so even a few rows are worth a
  // fork-join), and forgets the rows. A row's cost follows its length, so
  // workers claim small batches rather than static shards; which worker
  // grows a row does not change its hashes. Returns the hashing work done;
  // the caller merges it into the store's tally with AddComputed.
  uint64_t Grow(uint32_t n, ThreadPool* pool) {
    for (const uint32_t row : rows_) marked_[row] = 0;
    constexpr uint64_t kBatch = 4;
    std::atomic<uint64_t> next{0};
    const uint64_t work = ParallelWorkSum(
        pool, pool->num_threads(), [&](uint64_t) {
          uint64_t done = 0;
          for (uint64_t i; (i = next.fetch_add(kBatch)) < rows_.size();) {
            const uint64_t end = std::min<uint64_t>(i + kBatch, rows_.size());
            for (; i < end; ++i) {
              done += store_->EnsureRowUncounted(rows_[i], n);
            }
          }
          return done;
        });
    rows_.clear();
    return work;
  }

 private:
  void Mark(uint32_t row) {
    if (marked_[row] == 0) {
      marked_[row] = 1;
      rows_.push_back(row);
    }
  }

  Store* store_;
  std::vector<uint8_t> marked_;
  std::vector<uint32_t> rows_;
};

// Grows every row referenced by `pairs` to n hashes on `pool` and merges
// the work into the store's tally (the fixed-depth classical verifiers).
template <typename Store>
void GrowPairRows(Store* store,
                  const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
                  uint32_t n, ThreadPool* pool) {
  PairRowGrower<Store> grower(store);
  for (const auto& [a, b] : pairs) grower.Add(a, b);
  store->AddComputed(grower.Grow(n, pool));
}

// Sums `from` into `into` (surviving_after_round element-wise).
inline void MergeVerifyStats(VerifyStats* into, const VerifyStats& from) {
  into->accepted += from.accepted;
  into->pruned += from.pruned;
  into->forced_accepts += from.forced_accepts;
  into->exact_computed += from.exact_computed;
  into->hashes_compared += from.hashes_compared;
  for (size_t r = 0; r < from.surviving_after_round.size(); ++r) {
    into->surviving_after_round[r] += from.surviving_after_round[r];
  }
  into->cache.concentration_hits += from.cache.concentration_hits;
  into->cache.concentration_misses += from.cache.concentration_misses;
}

// The level-synchronous driver (see the header comment). `run_rounds` is
// BayesRoundLoop or LiteRoundLoop (core/bayes_lsh_impl.h).
template <typename Model, typename Store, typename RoundsFn>
std::vector<ScoredPair> VerifyLevelSynchronous(
    const Model& model, Store* store,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs, uint32_t budget,
    const BayesLshParams& params, ThreadPool* pool, VerifyStats* stats,
    const RoundsFn& run_rounds) {
  const uint32_t k = params.hashes_per_round;
  assert(k > 0 && budget % k == 0);
  const uint32_t chunk = store->chunk_hashes();

  // A pair carried to the next level: its candidate index and matches.
  struct OpenPair {
    uint64_t idx;
    uint32_t m;
  };
  struct alignas(64) Worker {  // Own cache lines: workers write these.
    std::optional<InferenceCache<Model>> cache;
    VerifyStats stats;
    std::vector<OpenPair> open;
    std::vector<std::pair<uint64_t, ScoredPair>> accepted;
  };
  std::vector<Worker> workers(pool->num_threads());
  for (Worker& w : workers) {
    w.stats.surviving_after_round.assign(budget / k + 1, 0);
  }
  const auto match = [store](uint32_t a, uint32_t b, uint32_t from,
                             uint32_t to) {
    return store->MatchCountReadOnly(a, b, from, to);
  };

  PairRowGrower<Store> grower(store);
  std::vector<OpenPair> open;
  uint64_t grown = 0;
  uint32_t done = 0;  // Hashes every open pair has compared.
  for (bool first = true; first || !open.empty(); first = false) {
    // Rounds ending at or before the next chunk boundary past one round.
    const uint32_t horizon = (done + k + chunk - 1) / chunk * chunk;
    const uint32_t until = std::min(horizon / k * k, budget);

    if (first) {
      for (const auto& [a, b] : pairs) grower.Add(a, b);
    } else {
      for (const OpenPair& o : open) {
        grower.Add(pairs[o.idx].first, pairs[o.idx].second);
      }
    }
    grown += grower.Grow(until, pool);

    const uint64_t count = first ? pairs.size() : open.size();
    const auto verify = [&](uint32_t s, uint64_t begin, uint64_t end) {
      Worker& w = workers[s];
      if (!w.cache) {
        w.cache.emplace(&model, k, budget, params.epsilon, params.delta,
                        params.gamma);
      }
      for (uint64_t i = begin; i < end; ++i) {
        const uint64_t idx = first ? i : open[i].idx;
        const auto& [a, b] = pairs[idx];
        PairEvidence ev{first ? 0 : open[i].m, done};
        double sim = 0.0;
        switch (run_rounds(*w.cache, match, a, b, until, &ev, &sim,
                           &w.stats)) {
          case PairVerdict::kOpen:
            w.open.push_back({idx, ev.m});
            break;
          case PairVerdict::kAccepted:
            w.accepted.push_back({idx, {a, b, sim}});
            break;
          default:
            break;
        }
      }
    };
    if (count < kMinPairsPerShard * pool->num_threads()) {
      verify(0, 0, count);
    } else {
      pool->RunShards(count, verify);
    }
    // Shards are contiguous ranges: concatenation keeps candidate order.
    open.clear();
    for (Worker& w : workers) {
      open.insert(open.end(), w.open.begin(), w.open.end());
      w.open.clear();
    }
    done = until;
  }
  store->AddComputed(grown);

  std::vector<std::pair<uint64_t, ScoredPair>> accepted;
  VerifyStats merged;
  merged.pairs_in = pairs.size();
  merged.surviving_after_round.assign(budget / k + 1, 0);
  for (Worker& w : workers) {
    accepted.insert(accepted.end(), w.accepted.begin(), w.accepted.end());
    if (w.cache) w.stats.cache = w.cache->stats();
    MergeVerifyStats(&merged, w.stats);
  }
  std::sort(accepted.begin(), accepted.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  std::vector<ScoredPair> out;
  out.reserve(accepted.size());
  for (const auto& entry : accepted) out.push_back(entry.second);
  if (stats != nullptr) *stats = merged;
  return out;
}

// True when `pairs` is long enough to shard over `pool`.
inline bool ShouldParallelize(
    const ThreadPool* pool,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs) {
  return pool != nullptr && pool->num_threads() > 1 &&
         pairs.size() >= kMinPairsPerShard * pool->num_threads();
}

}  // namespace internal

// BayesLSH (Algorithm 1), level-synchronous across `pool`. Falls back to
// the sequential BayesLshVerify when the pool is null/single-threaded or
// the candidate list is too small to shard profitably. Output, VerifyStats
// (except cache hit/miss counts) and the store's hashing tally are
// identical to the sequential engine's.
template <typename Model, typename Store>
std::vector<ScoredPair> BayesLshVerifyParallel(
    const Model& model, Store* store,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    const BayesLshParams& params, ThreadPool* pool,
    VerifyStats* stats = nullptr) {
  if (!internal::ShouldParallelize(pool, pairs)) {
    return BayesLshVerify(model, store, pairs, params, stats);
  }
  return internal::VerifyLevelSynchronous(
      model, store, pairs, params.max_hashes, params, pool, stats,
      internal::BayesRoundLoop(model));
}

// BayesLSH-Lite (Algorithm 2), level-synchronous across `pool`. exact_sim
// must be safe to call concurrently (it only reads the dataset).
template <typename Model, typename Store, typename ExactFn>
std::vector<ScoredPair> BayesLshLiteVerifyParallel(
    const Model& model, Store* store,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    uint32_t max_prune_hashes, const ExactFn& exact_sim, double threshold,
    const BayesLshParams& params, ThreadPool* pool,
    VerifyStats* stats = nullptr) {
  if (!internal::ShouldParallelize(pool, pairs)) {
    return BayesLshLiteVerify(model, store, pairs, max_prune_hashes,
                              exact_sim, threshold, params, stats);
  }
  return internal::VerifyLevelSynchronous(
      model, store, pairs, max_prune_hashes, params, pool, stats,
      internal::LiteRoundLoop(exact_sim, threshold));
}

}  // namespace bayeslsh

#endif  // BAYESLSH_CORE_PARALLEL_VERIFY_H_
