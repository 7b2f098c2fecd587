#include "core/query_search.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "candgen/banding_index.h"
#include "common/bit_ops.h"
#include "common/prng.h"
#include "common/thread_pool.h"
#include "core/bbit_posterior.h"
#include "core/cosine_posterior.h"
#include "core/index_io.h"
#include "core/inference_cache.h"
#include "core/jaccard_posterior.h"
#include "core/pipeline.h"
#include "euclidean/distance_posterior.h"
#include "euclidean/pstable_hasher.h"
#include "kernel/kernels.h"
#include "kernel/klsh.h"
#include "lsh/bbit_minwise.h"
#include "lsh/icws_hasher.h"
#include "lsh/minwise_hasher.h"
#include "lsh/srp_hasher.h"

namespace bayeslsh {

// Instantiated in euclidean/nn_search.cc.
extern template class InferenceCache<EuclideanPosterior>;

namespace {

// Measures verified through the cosine posterior over a bit store: plain
// SRP cosine, binary cosine, and the kernel cosine (KLSH bits obey the
// same collision law — kernel/klsh.h).
bool CosineLike(Measure m) {
  return m == Measure::kCosine || m == Measure::kBinaryCosine ||
         m == Measure::kKernelCosine;
}

// Below this many candidates per worker a query is verified sequentially.
constexpr uint64_t kMinQueryCandidatesPerShard = 16;

// A mutex-guarded pool of inference caches. Every serving path leases the
// caches it needs for one call (one for a serial query, one per worker for
// a sharded query or a batch) and returns them afterwards, so concurrent
// Query()/QueryBatch() callers never share a cache — the memoized state
// still persists across calls through reuse of returned caches. Leasing
// costs two uncontended lock acquisitions per call, never one per
// estimate.
template <typename Model>
class CachePool {
 public:
  void Configure(const Model* model, uint32_t hashes_per_round,
                 uint32_t max_hashes, double epsilon, double delta,
                 double gamma) {
    model_ = model;
    k_ = hashes_per_round;
    budget_ = max_hashes;
    epsilon_ = epsilon;
    delta_ = delta;
    gamma_ = gamma;
  }

  std::vector<InferenceCache<Model>*> Acquire(uint32_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<InferenceCache<Model>*> out;
    out.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      if (!free_.empty()) {
        out.push_back(free_.back());
        free_.pop_back();
      } else {
        owned_.push_back(std::make_unique<InferenceCache<Model>>(
            model_, k_, budget_, epsilon_, delta_, gamma_));
        out.push_back(owned_.back().get());
      }
    }
    return out;
  }

  void Release(const std::vector<InferenceCache<Model>*>& caches) {
    std::lock_guard<std::mutex> lock(mu_);
    free_.insert(free_.end(), caches.begin(), caches.end());
  }

 private:
  const Model* model_ = nullptr;
  uint32_t k_ = 0;
  uint32_t budget_ = 0;
  double epsilon_ = 0.0;
  double delta_ = 0.0;
  double gamma_ = 0.0;

  std::mutex mu_;
  std::vector<std::unique_ptr<InferenceCache<Model>>> owned_;
  std::vector<InferenceCache<Model>*> free_;
};

// RAII lease of n caches from a CachePool.
template <typename Model>
class CacheLease {
 public:
  CacheLease(CachePool<Model>* pool, uint32_t n)
      : pool_(pool), caches_(pool->Acquire(n)) {}
  ~CacheLease() { pool_->Release(caches_); }

  CacheLease(const CacheLease&) = delete;
  CacheLease& operator=(const CacheLease&) = delete;

  InferenceCache<Model>& operator[](uint32_t i) const { return *caches_[i]; }

 private:
  CachePool<Model>* pool_;
  std::vector<InferenceCache<Model>*> caches_;
};

void SortMatches(std::vector<QueryMatch>* out) {
  std::sort(out->begin(), out->end(),
            [](const QueryMatch& a, const QueryMatch& b) {
              return a.sim != b.sim ? a.sim > b.sim : a.id < b.id;
            });
}

// Folds a dataset's full CSR content into a fingerprint.
uint64_t FoldDataset(uint64_t fp, const Dataset& d) {
  fp = Mix64(fp, d.num_vectors(), d.num_dims());
  for (const uint64_t p : d.indptr()) fp = Mix64(fp, p);
  for (const DimId i : d.indices()) fp = Mix64(fp, i);
  for (const float v : d.values()) fp = Mix64(fp, std::bit_cast<uint32_t>(v));
  return fp;
}

// Grows every row to `ensure`'s target, sharded over rows; returns the
// total hashing work for one AddBitsComputed/AddHashesComputed merge.
template <typename EnsureFn>
uint64_t PrefetchAllRows(uint32_t num_rows, ThreadPool* pool,
                         const EnsureFn& ensure) {
  return ParallelWorkSum(pool, num_rows, [&](uint64_t row) {
    return ensure(static_cast<uint32_t>(row));
  });
}

}  // namespace

struct QuerySearcher::Impl {
  const Dataset* data;
  QuerySearchConfig cfg;
  uint32_t k = 0;  // Hashes per band.
  uint32_t l = 0;  // Bands.
  uint32_t lite_h = 0;

  // Accept threshold on the score axis: cfg.threshold for similarity
  // measures, -radius for Euclidean (scores are negated distances —
  // sim/similarity.h).
  double score_threshold = 0.0;

  // The hash families (core/query_sketch.h): the generation
  // (banding-seed) family feeds the banding build, incremental inserts and
  // every sketch's banding chunks; the verification family hashes the
  // engaged store's rows and every sketch's verification chunks. Every
  // sketch this searcher makes shares it (and keeps it alive). For KLSH
  // both families hash over the SAME anchor set (seeds differ, anchors
  // must not — see QuerySearchConfig::klsh_anchors).
  std::shared_ptr<const SketchFamily> family;

  // Collection stores (exactly one engaged, per measure/bbit). The stores
  // are the explicitly `mutable`, internally synchronized serving state
  // behind Query() const: all growth reachable from a const searcher goes
  // through the store's mutex-guarded MatchAgainstQuery / GrowthLock
  // extension points (or is absent entirely once frozen) — see
  // lsh/signature_store.h.
  mutable std::optional<BitSignatureStore> bits;
  mutable std::optional<IntSignatureStore> ints;
  mutable std::optional<BbitSignatureStore> bbits;

  // Posterior models (threshold-bound, hence per-searcher) and the pools
  // their per-call inference caches are leased from.
  std::optional<CosinePosterior> cos_model;
  std::optional<JaccardPosterior> jac_model;
  std::optional<BbitMinwisePosterior> bbit_model;
  std::optional<EuclideanPosterior> euc_model;
  mutable CachePool<CosinePosterior> cos_pool;
  mutable CachePool<JaccardPosterior> jac_pool;
  mutable CachePool<BbitMinwisePosterior> bbit_pool;
  mutable CachePool<EuclideanPosterior> euc_pool;

  // Worker pool (num_threads > 1 only). pool_mu_ grants exclusive use of
  // it: QueryBatch holds it for the batch, a single Query() try-locks it
  // for within-query sharding and verifies sequentially when it is busy.
  std::unique_ptr<ThreadPool> pool;
  mutable std::mutex pool_mu_;

  // Banding buckets: owned for a fresh build, borrowed from the persistent
  // index for a warm start (the index outlives the searcher).
  BandingIndex banding_storage;
  const BandingIndex* banding = nullptr;

  // Resolved BayesLSH params.
  BayesLshParams bayes;

  // Per-candidate hash budget of the serving paths.
  uint32_t ServeBudget() const {
    return cfg.exact_verification ? lite_h : bayes.max_hashes;
  }

  // Resolves parameters, models, cache pools, the hash families, empty
  // stores and the worker pool — everything except the banding buckets,
  // which the two constructors provide differently.
  void Init(const Dataset* d, const QuerySearchConfig& config);

  // Fails closed on a sketch this searcher's families did not hash.
  void CheckFamily(const QuerySketch& sketch) const {
    if (sketch.fingerprint() != family->fingerprint) {
      throw std::invalid_argument(
          "QuerySearcher: the query sketch was hashed by another hash "
          "family (measure, seed, banding shape, bbit or KLSH kernel / "
          "anchors differ)");
    }
  }

  // Candidate ids from the buckets the sketch's banding keys fall into
  // (sorted, unique).
  std::vector<uint32_t> CollectCandidates(const QuerySketch& sketch) const;

  // Runs serve_one(worker, i) for every query index i < n: sharded over
  // queries with exclusive use of the pool, or inline without one.
  // Workers must write only their own slots, so the merged output is
  // deterministic for any thread count.
  template <typename ServeOne>
  void RunOverQueries(uint64_t n, const ServeOne& serve_one) const {
    if (pool == nullptr) {
      for (uint64_t i = 0; i < n; ++i) serve_one(0u, i);
      return;
    }
    std::lock_guard<std::mutex> lock(pool_mu_);
    pool->RunShards(n, [&](uint32_t s, uint64_t b, uint64_t e) {
      for (uint64_t i = b; i < e; ++i) serve_one(s, i);
    });
  }

  // Leases n inference caches of the engaged posterior model and runs
  // fn(lease) — the one dispatch from measure to model.
  template <typename Fn>
  void WithCaches(uint32_t n, const Fn& fn) const {
    if (cos_model.has_value()) {
      fn(CacheLease<CosinePosterior>(&cos_pool, n));
    } else if (bbit_model.has_value()) {
      fn(CacheLease<BbitMinwisePosterior>(&bbit_pool, n));
    } else if (euc_model.has_value()) {
      fn(CacheLease<EuclideanPosterior>(&euc_pool, n));
    } else {
      fn(CacheLease<JaccardPosterior>(&jac_pool, n));
    }
  }

  // Exact score of collection row vs the query on the measure's score axis
  // (negated distance for Euclidean; compare against score_threshold).
  double ExactSim(uint32_t row, const SparseVectorView& q) const {
    const SparseVectorView x = data->Row(row);
    switch (cfg.measure) {
      case Measure::kCosine:
        return SparseDot(x, q);  // Query must be pre-normalized.
      case Measure::kJaccard:
        return JaccardSimilarity(x, q);
      case Measure::kBinaryCosine:
        return BinaryCosineSimilarity(x, q);
      case Measure::kWeightedJaccard:
        return WeightedJaccardSimilarity(x, q);
      case Measure::kKernelCosine:
        return KernelCosine(*family->kernel, x, q);
      case Measure::kEuclidean:
        return -SparseEuclideanDistance(x, q);
    }
    return 0.0;
  }

  // Similarity reported for a candidate whose budget ran out without a
  // concentrated estimate: the forced accept of Algorithm 1, the MAP
  // estimate at (m, n). (Unreachable for Euclidean — exact verification is
  // forced — but the dispatch stays total: the MAP distance, negated.)
  double ForcedEstimate(uint32_t m, uint32_t n) const {
    const int mi = static_cast<int>(m), ni = static_cast<int>(n);
    if (cos_model.has_value()) return cos_model->Estimate(mi, ni);
    if (bbit_model.has_value()) return bbit_model->Estimate(mi, ni);
    if (euc_model.has_value()) return -euc_model->Estimate(mi, ni);
    return jac_model->Estimate(mi, ni);
  }

  // --- verification of one candidate against the current query ---
  // Returns true with the similarity in *sim if the candidate is kept.
  // `cache` is the caller's leased inference cache for the active measure.
  template <typename Cache, typename EnsureQuery, typename MatchRange>
  bool VerifyCandidate(uint32_t row, const SparseVectorView& q,
                       const EnsureQuery& ensure_query,
                       const MatchRange& match_range, Cache& cache,
                       QueryStats* stats, double* sim) const {
    const uint32_t kk = bayes.hashes_per_round;
    const uint32_t budget = ServeBudget();
    uint32_t m = 0, n = 0;
    while (n < budget) {
      ensure_query(n + kk);
      m += match_range(row, n, n + kk);
      n += kk;
      if (stats != nullptr) stats->hashes_compared += kk;
      if (m < cache.MinMatches(n)) {
        if (stats != nullptr) ++stats->pruned;
        return false;
      }
      if (!cfg.exact_verification) {
        const auto er = cache.EstimateAt(m, n);
        if (er.concentrated) {
          *sim = er.estimate;
          return true;
        }
      }
    }
    if (cfg.exact_verification) {
      const double s = ExactSim(row, q);
      if (s >= score_threshold) {
        *sim = s;
        return true;
      }
      return false;
    }
    *sim = ForcedEstimate(m, n);
    return true;
  }

  // Default block width for batched posterior evaluation (see
  // QuerySearchConfig::posterior_batch).
  static constexpr uint32_t kDefaultPosteriorBatch = 8;

  // --- blocked verification (posterior_batch != 1) ---
  // Drives a block of candidates round-by-round, pushing every survivor's
  // posterior update through one InferenceCache::EstimateAtBatch call per
  // round. Each candidate's (m, n) trajectory — and therefore its prune /
  // accept decision, similarity, and stats contribution — is exactly the
  // one VerifyCandidate computes; only the cache-call grouping changes
  // (the memo is order-invariant, so hit/miss tallies also agree).
  // Accepted candidates are appended in candidate order, so the output is
  // identical to the serial loop even before the caller's similarity sort
  // (tests/batched_posterior_test.cc).
  template <typename Cache, typename EnsureQuery, typename MatchRange>
  void VerifyBlocked(const SparseVectorView& q,
                     std::span<const uint32_t> candidates,
                     const EnsureQuery& ensure_query,
                     const MatchRange& match_range, Cache& cache,
                     QueryStats* stats, std::vector<QueryMatch>* out) const {
    const uint32_t kk = bayes.hashes_per_round;
    const uint32_t budget = ServeBudget();
    const uint32_t block = cfg.posterior_batch == 0 ? kDefaultPosteriorBatch
                                                    : cfg.posterior_batch;
    struct Slot {
      uint32_t row = 0;
      uint32_t m = 0;
      double sim = 0.0;
      bool done = false;
      bool accepted = false;
    };
    std::vector<Slot> slots;
    std::vector<uint32_t> ms;   // Survivor match counts, gathered per round.
    std::vector<uint32_t> idx;  // Slot index behind each ms entry.
    std::vector<typename Cache::EstimateResult> res;
    for (size_t base = 0; base < candidates.size(); base += block) {
      const auto bsz = static_cast<uint32_t>(
          std::min<size_t>(block, candidates.size() - base));
      slots.assign(bsz, Slot{});
      for (uint32_t i = 0; i < bsz; ++i) slots[i].row = candidates[base + i];
      uint32_t active = bsz;
      uint32_t n = 0;
      while (active > 0 && n < budget) {
        ensure_query(n + kk);
        for (auto& s : slots) {
          if (s.done) continue;
          s.m += match_range(s.row, n, n + kk);
          if (stats != nullptr) stats->hashes_compared += kk;
        }
        n += kk;
        const uint32_t min_m = cache.MinMatches(n);
        ms.clear();
        idx.clear();
        for (uint32_t i = 0; i < bsz; ++i) {
          auto& s = slots[i];
          if (s.done) continue;
          if (s.m < min_m) {
            s.done = true;
            --active;
            if (stats != nullptr) ++stats->pruned;
            continue;
          }
          if (!cfg.exact_verification) {
            ms.push_back(s.m);
            idx.push_back(i);
          }
        }
        if (!ms.empty()) {
          res.resize(ms.size());
          cache.EstimateAtBatch(ms.data(), static_cast<uint32_t>(ms.size()),
                                n, res.data());
          for (size_t j = 0; j < ms.size(); ++j) {
            if (!res[j].concentrated) continue;
            auto& s = slots[idx[j]];
            s.done = true;
            s.accepted = true;
            s.sim = res[j].estimate;
            --active;
          }
        }
      }
      // Budget exhausted: the still-undecided slots all saw n hashes.
      for (auto& s : slots) {
        if (s.done) continue;
        if (cfg.exact_verification) {
          const double sim = ExactSim(s.row, q);
          if (sim >= score_threshold) {
            s.accepted = true;
            s.sim = sim;
          }
          continue;
        }
        s.sim = ForcedEstimate(s.m, n);  // As in VerifyCandidate.
        s.accepted = true;
      }
      for (const auto& s : slots) {
        if (s.accepted) out->push_back({s.row, s.sim});
      }
    }
  }

  // --- serial verification (one query on the calling thread) ---
  // Used by the serial Query() fallback and by QueryBatch workers. Safe
  // for concurrent callers with distinct sketches: every row access goes
  // through the store's MatchAgainstQuery (lock-free once frozen).
  // posterior_batch != 1 routes through VerifyBlocked above; 1 keeps the
  // per-candidate loop. `hash_to(n)` grows the sketch's verification
  // hashes to n and returns them in the store's layout.
  template <typename Store, typename HashTo, typename Cache>
  void VerifyAgainst(Store& store, const HashTo& hash_to,
                     const SparseVectorView& q,
                     std::span<const uint32_t> candidates, Cache& cache,
                     QueryStats* stats, std::vector<QueryMatch>* out) const {
    decltype(hash_to(0u)) qh = nullptr;
    auto ensure_query = [&](uint32_t n) { qh = hash_to(n); };
    auto match_range = [&](uint32_t row, uint32_t from, uint32_t to) {
      return store.MatchAgainstQuery(row, qh, from, to);
    };
    if (cfg.posterior_batch != 1) {
      VerifyBlocked(q, candidates, ensure_query, match_range, cache, stats,
                    out);
      return;
    }
    for (uint32_t row : candidates) {
      double sim = 0.0;
      if (VerifyCandidate(row, q, ensure_query, match_range, cache, stats,
                          &sim)) {
        out->push_back({row, sim});
      }
    }
  }

  // The store behind each posterior model: bits for the cosine posterior
  // (SRP cosine, binary cosine, KLSH), packed b-bit groups for the b-bit
  // posterior, ints otherwise (minwise Jaccard, ICWS, p-stable).
  template <typename Model>
  void VerifySerial(QuerySketch& sketch, std::span<const uint32_t> candidates,
                    InferenceCache<Model>& cache, QueryStats* stats,
                    std::vector<QueryMatch>* out) const {
    const auto words = [&](uint32_t n) { return sketch.VerifyWords(n); };
    if constexpr (std::is_same_v<Model, CosinePosterior>) {
      VerifyAgainst(*bits, words, sketch.query(), candidates, cache, stats,
                    out);
    } else if constexpr (std::is_same_v<Model, BbitMinwisePosterior>) {
      VerifyAgainst(*bbits, words, sketch.query(), candidates, cache, stats,
                    out);
    } else {
      VerifyAgainst(
          *ints, [&](uint32_t n) { return sketch.VerifyInts(n); },
          sketch.query(), candidates, cache, stats, out);
    }
  }

  // --- within-query sharded paths (caller must hold pool_mu_) ---
  // The query signature is hashed to the full budget up front (shared
  // read-only), candidate rows are prefetched to one chunk, and each
  // worker runs the same per-candidate loop with its leased inference
  // cache and a private overflow store. The caller's final similarity
  // sort makes the output independent of the thread count. On a frozen
  // store the whole path is read-only: the growth lock is a no-op, the
  // prefetch is skipped, and overflow shards never materialize rows.
  // b-bit verification has no overflow-shard protocol: Query never
  // shards it, and the dispatch below falls back to the serial loop.
  template <typename Model>
  void VerifySharded(QuerySketch& sketch, std::span<const uint32_t> candidates,
                     const CacheLease<Model>& caches, QueryStats* stats,
                     std::vector<QueryMatch>* out) const {
    if constexpr (std::is_same_v<Model, CosinePosterior>) {
      VerifyBitsSharded(sketch, candidates, caches, stats, out);
    } else if constexpr (std::is_same_v<Model, BbitMinwisePosterior>) {
      VerifySerial(sketch, candidates, caches[0], stats, out);
    } else {
      VerifyIntsSharded(sketch, candidates, caches, stats, out);
    }
  }

  void VerifyBitsSharded(QuerySketch& sketch,
                         std::span<const uint32_t> candidates,
                         const CacheLease<CosinePosterior>& caches,
                         QueryStats* stats,
                         std::vector<QueryMatch>* out) const {
    ThreadPool* p = pool.get();
    const uint32_t kk = bayes.hashes_per_round;
    const SparseVectorView q = sketch.query();
    const uint64_t* qbits = sketch.VerifyWords(ServeBudget());

    auto growth_lock = bits->GrowthLock();
    if (!bits->frozen()) {
      const uint32_t horizon =
          (kk + kBitsPerWord - 1) / kBitsPerWord * kBitsPerWord;
      bits->AddBitsComputed(ParallelReduce(
          p, candidates.size(), uint64_t{0},
          [&](uint32_t, uint64_t b, uint64_t e) {
            uint64_t work = 0;
            for (uint64_t i = b; i < e; ++i) {
              work += bits->EnsureBitsUncounted(candidates[i], horizon);
            }
            return work;
          },
          [](uint64_t x, uint64_t y) { return x + y; }));
    }

    struct Shard {
      std::vector<QueryMatch> out;
      QueryStats stats;
      std::optional<BitOverflowShard> overflow;
    };
    std::vector<Shard> shards(p->num_threads());
    p->RunShards(candidates.size(), [&](uint32_t s, uint64_t begin,
                                        uint64_t end) {
      Shard& sh = shards[s];
      BitOverflowShard& overflow = sh.overflow.emplace(&*bits);
      auto no_ensure = [](uint32_t) {};
      auto match_range = [&](uint32_t row, uint32_t from, uint32_t to) {
        return MatchingBits(qbits, overflow.RowWords(row, to), from, to);
      };
      for (uint64_t i = begin; i < end; ++i) {
        double sim = 0.0;
        if (VerifyCandidate(candidates[i], q, no_ensure, match_range,
                            caches[s], &sh.stats, &sim)) {
          sh.out.push_back({candidates[i], sim});
        }
      }
    });
    uint64_t overflow_total = 0;
    for (Shard& sh : shards) {
      out->insert(out->end(), sh.out.begin(), sh.out.end());
      if (stats != nullptr) {
        stats->pruned += sh.stats.pruned;
        stats->hashes_compared += sh.stats.hashes_compared;
      }
      if (sh.overflow.has_value()) {
        overflow_total += sh.overflow->computed();
        // Fold beyond-horizon signatures back into the persistent store
        // so later queries reuse them (the hashing is already counted).
        sh.overflow->MergeInto(&*bits);
      }
    }
    bits->AddBitsComputed(overflow_total);
  }

  template <typename Model>
  void VerifyIntsSharded(QuerySketch& sketch,
                         std::span<const uint32_t> candidates,
                         const CacheLease<Model>& caches, QueryStats* stats,
                         std::vector<QueryMatch>* out) const {
    ThreadPool* p = pool.get();
    const uint32_t kk = bayes.hashes_per_round;
    const uint32_t chunk_ints = ints->hasher().chunk_ints();
    const SparseVectorView q = sketch.query();
    const uint32_t* qints = sketch.VerifyInts(ServeBudget());

    auto growth_lock = ints->GrowthLock();
    if (!ints->frozen()) {
      const uint32_t horizon =
          (kk + chunk_ints - 1) / chunk_ints * chunk_ints;
      ints->AddHashesComputed(ParallelReduce(
          p, candidates.size(), uint64_t{0},
          [&](uint32_t, uint64_t b, uint64_t e) {
            uint64_t work = 0;
            for (uint64_t i = b; i < e; ++i) {
              work += ints->EnsureHashesUncounted(candidates[i], horizon);
            }
            return work;
          },
          [](uint64_t x, uint64_t y) { return x + y; }));
    }

    struct Shard {
      std::vector<QueryMatch> out;
      QueryStats stats;
      std::optional<IntOverflowShard> overflow;
    };
    std::vector<Shard> shards(p->num_threads());
    p->RunShards(candidates.size(), [&](uint32_t s, uint64_t begin,
                                        uint64_t end) {
      Shard& sh = shards[s];
      IntOverflowShard& overflow = sh.overflow.emplace(&*ints);
      auto no_ensure = [](uint32_t) {};
      auto match_range = [&](uint32_t row, uint32_t from, uint32_t to) {
        const uint32_t* h = overflow.RowHashes(row, to);
        uint32_t m = 0;
        for (uint32_t i = from; i < to; ++i) m += (h[i] == qints[i]);
        return m;
      };
      for (uint64_t i = begin; i < end; ++i) {
        double sim = 0.0;
        if (VerifyCandidate(candidates[i], q, no_ensure, match_range,
                            caches[s], &sh.stats, &sim)) {
          sh.out.push_back({candidates[i], sim});
        }
      }
    });
    uint64_t overflow_total = 0;
    for (Shard& sh : shards) {
      out->insert(out->end(), sh.out.begin(), sh.out.end());
      if (stats != nullptr) {
        stats->pruned += sh.stats.pruned;
        stats->hashes_compared += sh.stats.hashes_compared;
      }
      if (sh.overflow.has_value()) {
        overflow_total += sh.overflow->computed();
        // Fold beyond-horizon signatures back into the persistent store
        // so later queries reuse them (the hashing is already counted).
        sh.overflow->MergeInto(&*ints);
      }
    }
    ints->AddHashesComputed(overflow_total);
  }
};

void QuerySearcher::Impl::Init(const Dataset* d,
                               const QuerySearchConfig& config) {
  assert(d != nullptr);
  data = d;
  cfg = config;

  const bool cosine = CosineLike(config.measure);
  const bool euclidean = config.measure == Measure::kEuclidean;
  if (config.bbit != 0 && (config.measure != Measure::kJaccard ||
                           !IsValidBbitWidth(config.bbit))) {
    throw std::invalid_argument(
        "QuerySearchConfig: bbit requires the Jaccard measure and a "
        "power-of-two width in [1, 32]");
  }
  if (euclidean && !(config.threshold > 0.0)) {
    throw std::invalid_argument(
        "QuerySearchConfig: the Euclidean threshold is a radius and must "
        "be > 0");
  }
  if (euclidean && !(config.hash_radius >= 0.0)) {
    throw std::invalid_argument(
        "QuerySearchConfig: the Euclidean hash radius must be >= 0");
  }
  // Euclidean serving always verifies survivors exactly: the posterior
  // estimates collision rates, not distances, and the contract is "rows
  // within the radius" (query_search.h). Forced before ServeBudget() is
  // read so the cache budget is the lite budget.
  if (euclidean) cfg.exact_verification = true;
  score_threshold = euclidean ? -config.threshold : config.threshold;
  bayes = config.bayes;
  if (bayes.hashes_per_round == 0) {
    bayes.hashes_per_round = cosine || euclidean ? 32 : 16;
  }
  if (bayes.max_hashes == 0) bayes.max_hashes = cosine ? 4096 : 512;
  bayes.max_hashes -= bayes.max_hashes % bayes.hashes_per_round;
  lite_h = config.lite_max_hashes != 0
               ? config.lite_max_hashes
               : (cosine || euclidean ? 128u : 64u);
  lite_h -= lite_h % bayes.hashes_per_round;
  if (lite_h == 0) lite_h = bayes.hashes_per_round;

  // Banding shape (the warm-start constructor passes the index's recorded
  // shape explicitly).
  const BandingShape shape =
      ResolveBandingShape(config.measure, config.threshold, config.banding);
  k = shape.hashes_per_band;
  l = shape.num_bands;

  const uint64_t gen_seed = GenerationSeed(config.seed);
  const uint64_t verify_seed = VerificationSeed(config.seed);

  const uint32_t num_threads = ResolveNumThreads(config.num_threads);
  if (num_threads > 1) pool = std::make_unique<ThreadPool>(num_threads);
  const uint32_t cache_budget = ServeBudget();

  auto fam = std::make_shared<SketchFamily>();
  fam->num_bands = l;
  fam->hashes_per_band = k;
  fam->bbit = config.bbit;
  uint64_t fp = Mix64(static_cast<uint64_t>(config.measure), config.seed);
  fp = Mix64(fp, Mix64(l, k), config.bbit);

  // Models, cache pools, hash families and the matching empty store —
  // one arm per measure (plus the Jaccard bbit split).
  switch (config.measure) {
    case Measure::kCosine:
    case Measure::kBinaryCosine: {
      cos_model.emplace(config.threshold);
      cos_pool.Configure(&*cos_model, bayes.hashes_per_round, cache_budget,
                         bayes.epsilon, bayes.delta, bayes.gamma);
      fam->gen_gauss = std::make_shared<ImplicitGaussianSource>(gen_seed);
      fam->verify_gauss =
          std::make_shared<ImplicitGaussianSource>(verify_seed);
      fam->gen_bits = std::make_shared<SrpChunkHasher>(
          SrpHasher(fam->gen_gauss.get()));
      fam->verify_bits = std::make_shared<SrpChunkHasher>(
          SrpHasher(fam->verify_gauss.get()));
      bits.emplace(d, fam->verify_bits);
      break;
    }
    case Measure::kKernelCosine: {
      cos_model.emplace(config.threshold);
      cos_pool.Configure(&*cos_model, bayes.hashes_per_round, cache_budget,
                         bayes.epsilon, bayes.delta, bayes.gamma);
      fam->kernel = MakeKernel(config.kernel);
      // The row cache both streams share (anchor kernel rows are
      // seed-independent).
      auto klsh_cache = std::make_shared<KlshRowCache>();
      // Both hash streams see the SAME anchors (sampled once with the
      // master seed — never the derived stream seeds — so every serving
      // component agrees); only kp.seed differs between the streams.
      KlshParams kp = config.klsh;
      Dataset gen_anchors =
          config.klsh_anchors != nullptr
              ? *config.klsh_anchors
              : SampleKlshAnchors(
                    *d, std::min(kp.num_anchors, d->num_vectors()),
                    config.seed);
      fp = Mix64(fp, static_cast<uint64_t>(config.kernel.tag),
                 std::bit_cast<uint64_t>(config.kernel.gamma));
      fp = Mix64(fp, kp.subset_size, static_cast<uint64_t>(kp.direction));
      fp = FoldDataset(fp, gen_anchors);
      kp.seed = gen_seed;
      fam->gen_klsh = std::shared_ptr<const KlshHasher>(new KlshHasher(
          KlshHasher::FromAnchors(std::move(gen_anchors), fam->kernel.get(),
                                  kp)));
      fam->verify_klsh = std::shared_ptr<const KlshHasher>(
          new KlshHasher(fam->gen_klsh->WithSeed(verify_seed)));
      fam->gen_bits =
          std::make_shared<KlshChunkHasher>(fam->gen_klsh, klsh_cache, d);
      fam->verify_bits =
          std::make_shared<KlshChunkHasher>(fam->verify_klsh, klsh_cache, d);
      bits.emplace(d, fam->verify_bits);
      break;
    }
    case Measure::kJaccard: {
      fam->gen_ints =
          std::make_shared<MinwiseChunkHasher>(MinwiseHasher(gen_seed));
      fam->verify_ints =
          std::make_shared<MinwiseChunkHasher>(MinwiseHasher(verify_seed));
      if (config.bbit != 0) {
        bbit_model.emplace(config.threshold, config.bbit);
        bbit_pool.Configure(&*bbit_model, bayes.hashes_per_round,
                            cache_budget, bayes.epsilon, bayes.delta,
                            bayes.gamma);
        bbits.emplace(d, MinwiseHasher(verify_seed), config.bbit);
        break;
      }
      jac_model.emplace(config.threshold);  // Uniform prior in query mode.
      jac_pool.Configure(&*jac_model, bayes.hashes_per_round, cache_budget,
                         bayes.epsilon, bayes.delta, bayes.gamma);
      ints.emplace(d, fam->verify_ints);
      break;
    }
    case Measure::kWeightedJaccard: {
      // ICWS collisions obey Pr[h(x) = h(y)] = J_w(x, y) — the minwise
      // law — so the Jaccard posterior verifies weighted Jaccard as-is.
      jac_model.emplace(config.threshold);
      jac_pool.Configure(&*jac_model, bayes.hashes_per_round, cache_budget,
                         bayes.epsilon, bayes.delta, bayes.gamma);
      fam->gen_ints =
          std::make_shared<IcwsChunkHasher>(IcwsHasher(gen_seed));
      fam->verify_ints =
          std::make_shared<IcwsChunkHasher>(IcwsHasher(verify_seed));
      ints.emplace(d, fam->verify_ints);
      break;
    }
    case Measure::kEuclidean: {
      // Serving-stack width convention w = 2 * radius — the same one
      // ResolveBandingShape assumed above, making the collision
      // probability at the radius a scale-free constant. The radius is
      // the one the hashes were built for; the serving radius only sets
      // the posterior's threshold and the exact filter.
      const double width =
          2.0 * (config.hash_radius > 0.0 ? config.hash_radius
                                          : config.threshold);
      fp = Mix64(fp, std::bit_cast<uint64_t>(width));
      euc_model.emplace(
          EuclideanPosterior::MakeForRadius(config.threshold, width));
      euc_pool.Configure(&*euc_model, bayes.hashes_per_round, cache_budget,
                         bayes.epsilon, bayes.delta, bayes.gamma);
      fam->gen_ints = std::make_shared<PstableChunkHasher>(
          PstableHasher(gen_seed, width));
      fam->verify_ints = std::make_shared<PstableChunkHasher>(
          PstableHasher(verify_seed, width));
      ints.emplace(d, fam->verify_ints);
      break;
    }
  }
  fam->fingerprint = fp;
  family = std::move(fam);
}

std::vector<uint32_t> QuerySearcher::Impl::CollectCandidates(
    const QuerySketch& sketch) const {
  const std::vector<uint64_t>& words = sketch.gen_words();
  const std::vector<uint32_t>& hashes = sketch.gen_ints();
  const bool bit_keys = family->gen_bits != nullptr;
  std::vector<uint32_t> candidates;
  for (uint32_t band = 0; band < l; ++band) {
    const uint64_t key =
        bit_keys ? BandingIndex::CosineKey(
                       words.data(), static_cast<uint32_t>(words.size()),
                       band, k)
                 : BandingIndex::JaccardKey(hashes.data(), band, k);
    const auto* bucket = banding->Find(band, key);
    if (bucket == nullptr) continue;
    candidates.insert(candidates.end(), bucket->begin(), bucket->end());
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  return candidates;
}

QuerySearcher::QuerySearcher(const Dataset* data,
                             const QuerySearchConfig& config)
    : impl_(std::make_unique<Impl>()) {
  Impl& im = *impl_;
  im.Init(data, config);

  // Build the banding buckets over the collection with the generation-seed
  // hash family (a separate, throwaway store: banding hashes are not
  // reused for verification; see DESIGN.md §6). Deterministic for any
  // thread count — see candgen/banding_index.h.
  if (im.family->gen_bits != nullptr) {
    im.banding_storage = BandingIndex::BuildBits(
        *data, im.family->gen_bits, im.k, im.l, im.pool.get());
  } else {
    im.banding_storage = BandingIndex::BuildInts(
        *data, im.family->gen_ints, im.k, im.l, im.pool.get());
  }
  im.banding = &im.banding_storage;
  num_bands_ = im.l;
  hashes_per_band_ = im.k;
}

QuerySearcher::QuerySearcher(const PersistentIndex* index,
                             const QuerySearchConfig& config)
    : impl_(std::make_unique<Impl>()) {
  assert(index != nullptr);
  if (config.measure != index->measure()) {
    throw IndexError("QuerySearcher: config measure does not match the "
                     "index");
  }
  if (config.seed != index->seed()) {
    throw IndexError("QuerySearcher: config seed does not match the index "
                     "(loaded signatures would disagree with query hashes)");
  }
  if (config.bbit != index->bbit()) {
    throw IndexError("QuerySearcher: config bbit width does not match the "
                     "index");
  }
  if ((config.banding.hashes_per_band != 0 &&
       config.banding.hashes_per_band != index->hashes_per_band()) ||
      (config.banding.num_bands != 0 &&
       config.banding.num_bands != index->num_bands())) {
    throw IndexError("QuerySearcher: explicit banding shape does not match "
                     "the index");
  }

  Impl& im = *impl_;
  // Serve from the index's recorded banding shape. The KLSH hash family is
  // defined by the anchors the index was built with — adopt the index's
  // kernel spec, family shape and anchor rows so warm-served signatures
  // agree bit-for-bit with the loaded store.
  QuerySearchConfig cfg2 = config;
  cfg2.banding.hashes_per_band = index->hashes_per_band();
  cfg2.banding.num_bands = index->num_bands();
  if (index->measure() == Measure::kEuclidean) {
    if (config.hash_radius != 0.0 &&
        config.hash_radius != index->build_threshold()) {
      throw IndexError("QuerySearcher: explicit hash radius does not match "
                       "the index");
    }
    cfg2.hash_radius = index->build_threshold();
  }
  if (index->measure() == Measure::kKernelCosine) {
    cfg2.kernel = index->kernel_spec();
    cfg2.klsh = index->klsh_params();
    cfg2.klsh_anchors = index->klsh_anchors();
  }
  im.Init(&index->data(), cfg2);
  // Serve from the index's buckets; adopt its prefetched verification
  // signatures (copies — many searchers can share one loaded index).
  im.banding = &index->banding();
  if (im.bits.has_value() && index->bit_store() != nullptr) {
    im.bits->CopyRowsFrom(*index->bit_store());
  } else if (im.ints.has_value() && index->int_store() != nullptr) {
    im.ints->CopyRowsFrom(*index->int_store());
  } else if (im.bbits.has_value() && index->bbit_store() != nullptr) {
    im.bbits->CopyRowsFrom(*index->bbit_store());
  }
  num_bands_ = im.l;
  hashes_per_band_ = im.k;
}

QuerySearcher::~QuerySearcher() = default;

void QuerySearcher::Freeze() {
  Impl& im = *impl_;
  ThreadPool* pool = im.pool.get();
  const uint32_t budget = im.ServeBudget();
  if (im.bits.has_value()) {
    if (im.bits->frozen()) return;
    im.bits->AddBitsComputed(
        PrefetchAllRows(im.bits->num_rows(), pool, [&](uint32_t row) {
          return im.bits->EnsureBitsUncounted(row, budget);
        }));
    im.bits->Freeze();
  } else if (im.ints.has_value()) {
    if (im.ints->frozen()) return;
    im.ints->AddHashesComputed(
        PrefetchAllRows(im.ints->num_rows(), pool, [&](uint32_t row) {
          return im.ints->EnsureHashesUncounted(row, budget);
        }));
    im.ints->Freeze();
  } else {
    if (im.bbits->frozen()) return;
    im.bbits->AddHashesComputed(
        PrefetchAllRows(im.bbits->num_rows(), pool, [&](uint32_t row) {
          return im.bbits->EnsureHashesUncounted(row, budget);
        }));
    im.bbits->Freeze();
  }
}

void QuerySearcher::SyncAppendedRows() {
  Impl& im = *impl_;
  if (im.banding != &im.banding_storage) {
    throw std::logic_error(
        "QuerySearcher: cannot grow a searcher serving a borrowed "
        "(persistent-index) banding table");
  }
  if (frozen()) {
    throw std::logic_error("QuerySearcher: cannot grow a frozen searcher");
  }
  const uint32_t n_data = im.data->num_vectors();
  const uint32_t n_store = im.bits.has_value()   ? im.bits->num_rows()
                           : im.ints.has_value() ? im.ints->num_rows()
                                                 : im.bbits->num_rows();
  assert(n_store <= n_data);
  for (uint32_t row = n_store; row < n_data; ++row) {
    if (im.bits.has_value()) {
      im.bits->AppendRow();
    } else if (im.ints.has_value()) {
      im.ints->AppendRow();
    } else {
      im.bbits->AppendRow();
    }
    if (im.family->gen_bits != nullptr) {
      im.banding_storage.InsertBits(im.data->Row(row), row,
                                    *im.family->gen_bits);
    } else {
      im.banding_storage.InsertInts(im.data->Row(row), row,
                                    *im.family->gen_ints);
    }
  }
}

bool QuerySearcher::frozen() const {
  const Impl& im = *impl_;
  if (im.bits.has_value()) return im.bits->frozen();
  if (im.ints.has_value()) return im.ints->frozen();
  return im.bbits->frozen();
}

uint64_t QuerySearcher::bits_computed() const {
  const Impl& im = *impl_;
  return im.bits.has_value() ? im.bits->bits_computed() : 0;
}

uint64_t QuerySearcher::hashes_computed() const {
  const Impl& im = *impl_;
  if (im.ints.has_value()) return im.ints->hashes_computed();
  if (im.bbits.has_value()) return im.bbits->hashes_computed();
  return 0;
}

QuerySketch QuerySearcher::Sketch(const SparseVectorView& q) const {
  return QuerySketch(impl_->family, q);
}

std::vector<QuerySketch> QuerySearcher::SketchBatch(
    std::span<const SparseVectorView> queries) const {
  const Impl& im = *impl_;
  std::vector<QuerySketch> sketches(queries.size());
  im.RunOverQueries(queries.size(), [&](uint32_t, uint64_t i) {
    sketches[i] = QuerySketch(im.family, queries[i]);
  });
  return sketches;
}

std::vector<QueryMatch> QuerySearcher::Query(const SparseVectorView& q,
                                             QueryStats* stats) const {
  QuerySketch sketch = Sketch(q);
  std::vector<QueryMatch> out = Query(sketch, stats);
  if (stats != nullptr) stats->query_gen_chunks = sketch.gen_chunks();
  return out;
}

std::vector<QueryMatch> QuerySearcher::Query(QuerySketch& sketch,
                                             QueryStats* stats) const {
  Impl& im = *impl_;
  im.CheckFamily(sketch);
  // threads_used starts at the serial answer; only the sharded branch
  // below overwrites it — so a busy-pool try-lock fallback reports the
  // truth, not the configured thread count.
  if (stats != nullptr) *stats = QueryStats{.threads_used = 1};
  std::vector<QueryMatch> out;
  if (sketch.query().empty()) return out;
  const uint32_t verify_before = sketch.verify_chunks();

  // 1. Collect candidates from the buckets the query falls into.
  const std::vector<uint32_t> candidates = im.CollectCandidates(sketch);
  if (stats != nullptr) stats->candidates = candidates.size();

  // 2. Verify each candidate with incremental Bayesian pruning, using
  //    verification-seed hashes (independent of the banding hashes).
  //
  // With a pool, enough candidates, and no batch in flight, verification
  // shards over the candidate list. b-bit verification always runs the
  // serial loop (no overflow-shard protocol). Every path produces
  // identical results, so a busy pool degrades to sequential instead of
  // blocking.
  ThreadPool* pool = im.pool.get();
  const bool want_sharded =
      pool != nullptr && !im.bbits.has_value() &&
      candidates.size() >= kMinQueryCandidatesPerShard * pool->num_threads();
  std::unique_lock<std::mutex> pool_lock(im.pool_mu_, std::defer_lock);
  if (want_sharded && pool_lock.try_lock()) {
    if (stats != nullptr) stats->threads_used = pool->num_threads();
    im.WithCaches(pool->num_threads(), [&](const auto& caches) {
      im.VerifySharded(sketch, candidates, caches, stats, &out);
    });
  } else {
    im.WithCaches(1, [&](const auto& caches) {
      im.VerifySerial(sketch, candidates, caches[0], stats, &out);
    });
  }
  if (stats != nullptr) {
    stats->query_verify_chunks = sketch.verify_chunks() - verify_before;
  }

  SortMatches(&out);
  return out;
}

std::vector<std::vector<QueryMatch>> QuerySearcher::QueryBatch(
    std::span<const SparseVectorView> queries, QueryStats* stats,
    uint32_t top_k) const {
  std::vector<QuerySketch> sketches = SketchBatch(queries);
  std::vector<std::vector<QueryMatch>> results =
      QueryBatch(sketches, stats, top_k);
  if (stats != nullptr) {
    for (const QuerySketch& s : sketches) {
      stats->query_gen_chunks += s.gen_chunks();
    }
  }
  return results;
}

std::vector<std::vector<QueryMatch>> QuerySearcher::QueryBatch(
    std::vector<QuerySketch>& sketches, QueryStats* stats,
    uint32_t top_k) const {
  Impl& im = *impl_;
  for (const QuerySketch& s : sketches) im.CheckFamily(s);
  if (stats != nullptr) *stats = QueryStats{.threads_used = 1};
  std::vector<std::vector<QueryMatch>> results(sketches.size());
  if (sketches.empty()) return results;

  ThreadPool* pool = im.pool.get();
  const uint32_t workers = pool != nullptr ? pool->num_threads() : 1;
  // A batch waits for exclusive use of the pool rather than degrading, so
  // (unlike Query's try-lock fallback) the worker count is the thread
  // count actually used.
  if (stats != nullptr) stats->threads_used = workers;
  std::vector<QueryStats> worker_stats(workers);

  im.WithCaches(workers, [&](const auto& caches) {
    im.RunOverQueries(sketches.size(), [&](uint32_t w, uint64_t i) {
      QuerySketch& sketch = sketches[i];
      if (sketch.query().empty()) return;
      QueryStats qs;
      const uint32_t verify_before = sketch.verify_chunks();
      const std::vector<uint32_t> cand = im.CollectCandidates(sketch);
      qs.candidates = cand.size();
      im.VerifySerial(sketch, cand, caches[w], &qs, &results[i]);
      qs.query_verify_chunks = sketch.verify_chunks() - verify_before;
      SortMatches(&results[i]);
      if (top_k != 0 && results[i].size() > top_k) results[i].resize(top_k);
      worker_stats[w].MergeFrom(qs);
    });
  });

  if (stats != nullptr) {
    for (const QueryStats& ws : worker_stats) stats->MergeFrom(ws);
  }
  return results;
}

std::vector<QueryMatch> QuerySearcher::QueryTopK(const SparseVectorView& q,
                                                 uint32_t k,
                                                 QueryStats* stats) const {
  std::vector<QueryMatch> all = Query(q, stats);
  if (all.size() > k) all.resize(k);
  return all;
}

std::vector<QueryMatch> QuerySearcher::QueryTopK(QuerySketch& sketch,
                                                 uint32_t k,
                                                 QueryStats* stats) const {
  std::vector<QueryMatch> all = Query(sketch, stats);
  if (all.size() > k) all.resize(k);
  return all;
}

}  // namespace bayeslsh
