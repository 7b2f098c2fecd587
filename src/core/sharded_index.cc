#include "core/sharded_index.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "common/prng.h"

namespace bayeslsh {

namespace {

using SteadyClock = std::chrono::steady_clock;

// The router and the shard executors hand each query back and forth: the
// router hashes it while the executors wait, then waits while they serve
// it. A thread that sleeps on a condition variable at each hand-off pays
// a wake-up whose latency is the host's to decide — on a virtual machine
// an idle vCPU halts, and waking it takes from microseconds to
// milliseconds depending on the host's load — so serving speed would
// follow the host instead of the work. Instead, the router wakes the
// executors as it starts hashing (Impl::Prewake), so their wake-up
// overlaps the hash, and they poll for requests until this window from
// the latest prewake has passed — under steady traffic the next query's
// prewake comes first, so they never halt; the router polls for each
// shard's answer for at most one window before it sleeps. Polling yields
// the CPU to any runnable thread. The window spans the hashing of one
// query and a shard's share of a typical one.
constexpr std::chrono::microseconds kHandoffSpin{1000};

// Polls ready() until it holds or `until` passes.
template <typename Ready>
void SpinUntil(SteadyClock::time_point until, Ready ready) {
  while (!ready() && SteadyClock::now() < until) std::this_thread::yield();
}

// Salt folded into the partitioning hash so shard placement is its own
// hash stream, uncorrelated with the signature/banding streams derived
// from the same master seed.
constexpr uint64_t kShardSalt = 0x73686172644c5348ULL;  // "shardLSH"

// The one result ordering of the serving stack (same rule as
// DynamicIndex): similarity descending, ties by ascending logical id.
void SortMerged(std::vector<QueryMatch>* out) {
  std::sort(out->begin(), out->end(),
            [](const QueryMatch& a, const QueryMatch& b) {
              return a.sim != b.sim ? a.sim > b.sim : a.id < b.id;
            });
}

std::vector<std::pair<DimId, float>> RowEntries(const SparseVectorView& v) {
  std::vector<std::pair<DimId, float>> entries;
  entries.reserve(v.size());
  for (uint32_t i = 0; i < v.size(); ++i) {
    entries.emplace_back(v.indices[i], v.values[i]);
  }
  return entries;
}

// The router's owned copy of a fan-out's query batch: sub-requests may
// outlive the caller's views (an abandoned request sits in a shard queue
// until its executor drains it), so every shard shares one owned copy.
struct OwnedQueries {
  std::vector<std::vector<DimId>> indices;
  std::vector<std::vector<float>> values;
  std::vector<SparseVectorView> views;  // into indices/values, built last

  static std::shared_ptr<const OwnedQueries> Copy(
      std::span<const SparseVectorView> queries) {
    auto owned = std::make_shared<OwnedQueries>();
    owned->indices.reserve(queries.size());
    owned->values.reserve(queries.size());
    for (const SparseVectorView& q : queries) {
      owned->indices.emplace_back(q.indices.begin(), q.indices.end());
      owned->values.emplace_back(q.values.begin(), q.values.end());
    }
    owned->views.reserve(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      owned->views.push_back(SparseVectorView{
          {owned->indices[i].data(), owned->indices[i].size()},
          {owned->values[i].data(), owned->values[i].size()}});
    }
    return owned;
  }
};

// One shard's answer slot: the router waits on cv with a deadline and
// may abandon; the executor fills it and notifies regardless.
struct SubResult {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool failed = false;
  std::string error;
  std::vector<std::vector<QueryMatch>> results;  // shard-LOCAL ids
  QueryStats stats;
  std::atomic<bool> abandoned{false};
  // Mirrors `done` for the router's lock-free poll (kHandoffSpin).
  std::atomic<bool> ready{false};
};

// One fan-out's payload, shared read-only by every shard: the queries to
// hash (each shard sketches them itself), or sketches the router already
// hashed (each shard serves its own copy, so shards grow verification
// chunks independently while reading one generation part).
struct SubRequest {
  std::shared_ptr<const OwnedQueries> queries;
  std::shared_ptr<const std::vector<QuerySketch>> sketches;
  uint32_t top_k = 0;
  std::shared_ptr<SubResult> result;
};

}  // namespace

struct ShardedIndex::Impl {
  struct Shard {
    std::unique_ptr<DynamicIndex> dyn;
    std::unique_ptr<CircuitBreaker> breaker;

    // Ascending global ids routed here; position == shard-local logical
    // id (DynamicIndex assigns 0,1,2,... exactly as we append). Guarded
    // by the router lock `mu`; never shrinks (tombstoned ids keep their
    // mapping, mirroring DynamicIndex's never-reuse contract).
    std::vector<uint32_t> globals;

    // Executor: one thread per shard draining a FIFO of sub-requests,
    // so a wedged or slow shard blocks only itself.
    std::mutex qmu;
    std::condition_variable qcv;
    std::deque<SubRequest> queue;
    // queue.size(), for the executor's lock-free poll (kHandoffSpin);
    // written under qmu.
    std::atomic<size_t> queued{0};
    // Set by Prewake (under qmu): until this time the executor polls for
    // a request the router is hashing, instead of sleeping.
    std::atomic<SteadyClock::rep> expect_until{0};
    bool stop = false;
    std::thread worker;
  };

  ShardedIndexConfig cfg;
  uint64_t seed = 0;
  Measure measure = Measure::kCosine;
  uint32_t num_dims = 0;
  // Fingerprint of the shards' common hash family: sketches of any other
  // family are rejected here, before fan-out, instead of failing on every
  // shard and tripping the breakers.
  uint64_t family_fingerprint = 0;
  SteadyClock::time_point epoch = SteadyClock::now();

  std::vector<std::unique_ptr<Shard>> shards;
  std::unique_ptr<ShardFaultInjector> injector;

  // Router lock: global id assignment + the global<->local maps.
  // Queries take it shared (merge-time mapping), Add exclusive.
  mutable std::shared_mutex mu;
  uint32_t next_id = 0;

  void CheckFamily(const QuerySketch& sketch) const;

  double NowSeconds() const {
    return std::chrono::duration<double>(SteadyClock::now() - epoch).count();
  }

  // Wakes every executor to poll for a request the caller is about to
  // hash and dispatch (kHandoffSpin).
  void Prewake() const {
    const SteadyClock::rep until =
        (SteadyClock::now() + kHandoffSpin).time_since_epoch().count();
    for (const auto& shard : shards) {
      {
        std::lock_guard<std::mutex> lock(shard->qmu);
        shard->expect_until.store(until, std::memory_order_relaxed);
      }
      shard->qcv.notify_one();
    }
  }

  void ExecutorLoop(uint32_t s) {
    Shard& shard = *shards[s];
    auto expect_until = [&] {
      return SteadyClock::time_point(SteadyClock::duration(
          shard.expect_until.load(std::memory_order_relaxed)));
    };
    for (;;) {
      SubRequest req;
      SpinUntil(expect_until(), [&] {
        return shard.queued.load(std::memory_order_acquire) != 0;
      });
      {
        std::unique_lock<std::mutex> lock(shard.qmu);
        shard.qcv.wait(lock, [&] {
          return shard.stop || !shard.queue.empty() ||
                 SteadyClock::now() < expect_until();
        });
        if (shard.queue.empty()) {
          if (shard.stop) return;  // stop && drained
          continue;                // prewoken: poll for the request
        }
        req = std::move(shard.queue.front());
        shard.queue.pop_front();
        shard.queued.store(shard.queue.size(), std::memory_order_relaxed);
      }
      if (req.result->abandoned.load(std::memory_order_acquire)) continue;
      bool failed = false;
      std::string error;
      std::vector<std::vector<QueryMatch>> results;
      QueryStats stats;
      try {
        injector->BeforeShardQuery(s);
        if (req.sketches != nullptr) {
          std::vector<QuerySketch> sketches = *req.sketches;
          results = shard.dyn->QueryBatch(sketches, &stats, req.top_k);
        } else {
          results = shard.dyn->QueryBatch(req.queries->views, &stats,
                                          req.top_k);
        }
      } catch (const std::exception& e) {
        failed = true;
        error = e.what();
      }
      {
        std::lock_guard<std::mutex> lock(req.result->mu);
        req.result->failed = failed;
        req.result->error = std::move(error);
        req.result->results = std::move(results);
        req.result->stats = stats;
        req.result->done = true;
        req.result->ready.store(true, std::memory_order_release);
      }
      req.result->cv.notify_all();
    }
  }

  // The fan-out/collect/merge core behind Query/QueryTopK/QueryBatch.
  // `request` carries the queries or sketches (and top_k) every shard
  // serves; num_queries is their count. Returns one result list per query
  // slot, in GLOBAL ids, merged over every shard that answered within the
  // budget.
  std::vector<std::vector<QueryMatch>> FanOut(const SubRequest& request,
                                              size_t num_queries,
                                              const ServeOptions& opts,
                                              QueryStats* stats) const {
    if (stats != nullptr) *stats = QueryStats{};
    const uint32_t top_k = request.top_k;
    const uint32_t K = static_cast<uint32_t>(shards.size());
    const auto start = SteadyClock::now();
    const bool has_deadline = opts.deadline_seconds > 0;
    const bool has_shard_to = cfg.shard_timeout_seconds > 0;
    const auto deadline_tp =
        start + std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double>(opts.deadline_seconds));
    const auto shard_to_tp =
        start + std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double>(cfg.shard_timeout_seconds));

    // Dispatch to every shard whose breaker admits the request. Shards
    // skipped here simply don't contribute (no outcome to record).
    struct Pending {
      uint32_t shard;
      std::shared_ptr<SubResult> res;
    };
    std::vector<Pending> pending;
    pending.reserve(K);
    for (uint32_t s = 0; s < K; ++s) {
      Shard& shard = *shards[s];
      if (!shard.breaker->AllowRequest(NowSeconds())) continue;
      auto res = std::make_shared<SubResult>();
      {
        std::lock_guard<std::mutex> lock(shard.qmu);
        SubRequest sub = request;
        sub.result = res;
        shard.queue.push_back(std::move(sub));
        shard.queued.store(shard.queue.size(), std::memory_order_release);
      }
      shard.qcv.notify_one();
      pending.push_back(Pending{s, std::move(res)});
    }

    // Collect, bounded by min(per-shard timeout, query deadline). Once
    // the deadline is past, the remaining waits return immediately —
    // already-answered shards are still harvested, the rest abandoned.
    uint32_t answered = 0;
    bool deadline_hit = false;
    std::vector<std::pair<uint32_t, std::vector<std::vector<QueryMatch>>>>
        collected;
    collected.reserve(pending.size());
    for (Pending& p : pending) {
      Shard& shard = *shards[p.shard];
      const bool bounded = has_deadline || has_shard_to;
      auto bound = deadline_tp;
      if (!has_deadline || (has_shard_to && shard_to_tp < deadline_tp)) {
        bound = shard_to_tp;
      }
      auto spin_until = SteadyClock::now() + kHandoffSpin;
      if (bounded) spin_until = std::min(spin_until, bound);
      SpinUntil(spin_until, [&] {
        return p.res->ready.load(std::memory_order_acquire);
      });
      bool done = false;
      {
        std::unique_lock<std::mutex> lock(p.res->mu);
        auto is_done = [&] { return p.res->done; };
        if (!bounded) {
          p.res->cv.wait(lock, is_done);
          done = true;
        } else {
          done = p.res->cv.wait_until(lock, bound, is_done);
        }
      }
      if (done) {
        if (p.res->failed) {
          shard.breaker->RecordFailure(NowSeconds());
        } else {
          shard.breaker->RecordSuccess();
          ++answered;
          if (stats != nullptr) stats->MergeFrom(p.res->stats);
          collected.emplace_back(p.shard, std::move(p.res->results));
        }
        continue;
      }
      // Timed out: abandon. A per-shard timeout is a health signal (the
      // server's own bound); a query deadline is the client's budget and
      // says nothing about the shard — release any probe slot, count
      // nothing.
      p.res->abandoned.store(true, std::memory_order_release);
      const auto now_tp = SteadyClock::now();
      if (has_shard_to && now_tp >= shard_to_tp) {
        shard.breaker->RecordFailure(NowSeconds());
      } else {
        shard.breaker->RecordAbandoned();
      }
      if (has_deadline && now_tp >= deadline_tp) deadline_hit = true;
    }

    // Merge: map shard-local ids to global ids under the router lock,
    // concatenate per query slot, re-sort with the one ordering rule,
    // truncate to top_k.
    std::vector<std::vector<QueryMatch>> merged(num_queries);
    {
      std::shared_lock<std::shared_mutex> lock(mu);
      for (auto& [s, shard_results] : collected) {
        const std::vector<uint32_t>& globals = shards[s]->globals;
        for (size_t qi = 0; qi < shard_results.size(); ++qi) {
          for (QueryMatch m : shard_results[qi]) {
            m.id = globals[m.id];
            merged[qi].push_back(m);
          }
        }
      }
    }
    for (auto& list : merged) {
      SortMerged(&list);
      if (top_k != 0 && list.size() > top_k) list.resize(top_k);
    }

    if (stats != nullptr) {
      stats->shards_total += K;
      stats->shards_answered += answered;
      if (deadline_hit) ++stats->deadline_expired;
    }
    return merged;
  }
};

uint32_t ShardedIndex::ShardOfId(uint64_t seed, uint32_t id,
                                 uint32_t num_shards) {
  return static_cast<uint32_t>(Mix64(seed, kShardSalt, id) % num_shards);
}

ShardedIndex::ShardedIndex(Dataset data, const IndexBuildConfig& build,
                           const ShardedIndexConfig& cfg)
    : impl_(std::make_unique<Impl>()) {
  if (cfg.num_shards == 0) {
    throw std::invalid_argument("ShardedIndex: num_shards must be >= 1");
  }
  impl_->cfg = cfg;
  impl_->seed = build.seed;
  impl_->num_dims = data.num_dims();
  const uint32_t K = cfg.num_shards;
  impl_->injector = std::make_unique<ShardFaultInjector>(K);

  // Partition the corpus row-by-row: row i is global id i, placed by the
  // seeded hash. Each shard then gets its own frozen base built with the
  // SAME build config — banding shape depends only on (measure,
  // threshold, params), never on data size, so all shards (and the
  // equivalent unsharded index) agree on every hash.
  //
  // KLSH anchors are the one piece of hash-family state that IS sampled
  // from data, so they are resolved here, ONCE, from the full corpus —
  // every shard (and the equivalent unsharded index given the same
  // anchors) then hashes with the identical family. Without this each
  // shard would sample from its own sub-corpus and the shards would
  // disagree on every signature.
  IndexBuildConfig shard_build = build;
  if (build.measure == Measure::kKernelCosine &&
      shard_build.klsh_anchors == nullptr) {
    shard_build.klsh_anchors =
        std::make_shared<const Dataset>(SampleKlshAnchors(
            data, std::min(build.klsh.num_anchors, data.num_vectors()),
            build.seed));
  }
  std::vector<DatasetBuilder> builders;
  builders.reserve(K);
  for (uint32_t s = 0; s < K; ++s) builders.emplace_back(data.num_dims());
  std::vector<std::vector<uint32_t>> globals(K);
  const uint32_t n = data.num_vectors();
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t s = ShardOfId(build.seed, i, K);
    builders[s].AddRow(RowEntries(data.Row(i)));
    globals[s].push_back(i);
  }
  impl_->next_id = n;

  DynamicIndexConfig dcfg;
  dcfg.threshold = cfg.threshold;
  dcfg.exact_verification = cfg.exact_verification;
  dcfg.num_threads = cfg.num_threads;
  impl_->shards.reserve(K);
  for (uint32_t s = 0; s < K; ++s) {
    auto shard = std::make_unique<Impl::Shard>();
    shard->dyn = std::make_unique<DynamicIndex>(
        PersistentIndex::Build(std::move(builders[s]).Build(), shard_build),
        dcfg);
    shard->breaker = std::make_unique<CircuitBreaker>(cfg.breaker);
    shard->globals = std::move(globals[s]);
    impl_->shards.push_back(std::move(shard));
  }
  impl_->measure = impl_->shards[0]->dyn->measure();
  // An empty query hashes nothing but still carries the family.
  impl_->family_fingerprint = Sketch(SparseVectorView{}).fingerprint();
  for (uint32_t s = 0; s < K; ++s) {
    impl_->shards[s]->worker = std::thread(&Impl::ExecutorLoop, impl_.get(), s);
  }
}

ShardedIndex::~ShardedIndex() {
  // Wake wedged executors first, then drain and join them.
  impl_->injector->Shutdown();
  for (auto& shard : impl_->shards) {
    {
      std::lock_guard<std::mutex> lock(shard->qmu);
      shard->stop = true;
      // Unreached requests would hang routers waiting on them; there are
      // none by construction (the destructor runs after all queries),
      // but drop them defensively.
      shard->queue.clear();
      shard->queued.store(0, std::memory_order_relaxed);
    }
    shard->qcv.notify_all();
  }
  for (auto& shard : impl_->shards) {
    if (shard->worker.joinable()) shard->worker.join();
  }
}

uint32_t ShardedIndex::Add(const SparseVectorView& v) {
  std::unique_lock<std::shared_mutex> lock(impl_->mu);
  const uint32_t id = impl_->next_id;
  const uint32_t s =
      ShardOfId(impl_->seed, id, static_cast<uint32_t>(impl_->shards.size()));
  Impl::Shard& shard = *impl_->shards[s];
  const uint32_t local = shard.dyn->Add(v);  // throws on bad input: id unused
  if (local != shard.globals.size()) {
    throw std::logic_error("ShardedIndex: shard-local id map out of sync");
  }
  shard.globals.push_back(id);
  impl_->next_id = id + 1;
  return id;
}

bool ShardedIndex::Remove(uint32_t id) {
  std::unique_lock<std::shared_mutex> lock(impl_->mu);
  if (id >= impl_->next_id) return false;
  const uint32_t s =
      ShardOfId(impl_->seed, id, static_cast<uint32_t>(impl_->shards.size()));
  Impl::Shard& shard = *impl_->shards[s];
  const auto it =
      std::lower_bound(shard.globals.begin(), shard.globals.end(), id);
  if (it == shard.globals.end() || *it != id) return false;
  const uint32_t local =
      static_cast<uint32_t>(it - shard.globals.begin());
  return shard.dyn->Remove(local);
}

bool ShardedIndex::Contains(uint32_t id) const {
  std::shared_lock<std::shared_mutex> lock(impl_->mu);
  if (id >= impl_->next_id) return false;
  const uint32_t s =
      ShardOfId(impl_->seed, id, static_cast<uint32_t>(impl_->shards.size()));
  const Impl::Shard& shard = *impl_->shards[s];
  const auto it =
      std::lower_bound(shard.globals.begin(), shard.globals.end(), id);
  if (it == shard.globals.end() || *it != id) return false;
  return shard.dyn->Contains(
      static_cast<uint32_t>(it - shard.globals.begin()));
}

QuerySketch ShardedIndex::Sketch(const SparseVectorView& q) const {
  // Every shard hashes with the same family (one build config, KLSH
  // anchors resolved once), so shard 0's is everyone's.
  return impl_->shards[0]->dyn->Sketch(q);
}

void ShardedIndex::Impl::CheckFamily(const QuerySketch& sketch) const {
  if (sketch.fingerprint() != family_fingerprint) {
    throw std::invalid_argument(
        "ShardedIndex: the query sketch was hashed by another hash family");
  }
}

std::vector<QueryMatch> ShardedIndex::Query(const SparseVectorView& q,
                                            QueryStats* stats,
                                            const ServeOptions& opts) const {
  impl_->Prewake();
  const QuerySketch sketch = Sketch(q);
  std::vector<QueryMatch> out = Query(sketch, stats, opts);
  if (stats != nullptr) stats->query_gen_chunks += sketch.gen_chunks();
  return out;
}

std::vector<QueryMatch> ShardedIndex::Query(const QuerySketch& sketch,
                                            QueryStats* stats,
                                            const ServeOptions& opts) const {
  impl_->CheckFamily(sketch);
  SubRequest request;
  request.sketches =
      std::make_shared<const std::vector<QuerySketch>>(1, sketch);
  return std::move(impl_->FanOut(request, 1, opts, stats)[0]);
}

std::vector<QueryMatch> ShardedIndex::QueryTopK(const SparseVectorView& q,
                                                uint32_t k, QueryStats* stats,
                                                const ServeOptions& opts) const {
  if (k == 0) return {};
  impl_->Prewake();
  const QuerySketch sketch = Sketch(q);
  std::vector<QueryMatch> out = QueryTopK(sketch, k, stats, opts);
  if (stats != nullptr) stats->query_gen_chunks += sketch.gen_chunks();
  return out;
}

std::vector<QueryMatch> ShardedIndex::QueryTopK(const QuerySketch& sketch,
                                                uint32_t k, QueryStats* stats,
                                                const ServeOptions& opts) const {
  impl_->CheckFamily(sketch);
  if (k == 0) return {};
  SubRequest request;
  request.sketches =
      std::make_shared<const std::vector<QuerySketch>>(1, sketch);
  request.top_k = k;
  return std::move(impl_->FanOut(request, 1, opts, stats)[0]);
}

std::vector<std::vector<QueryMatch>> ShardedIndex::QueryBatch(
    std::span<const SparseVectorView> queries, QueryStats* stats,
    uint32_t top_k, const ServeOptions& opts) const {
  if (queries.empty()) return {};
  SubRequest request;
  request.queries = OwnedQueries::Copy(queries);
  request.top_k = top_k;
  return impl_->FanOut(request, queries.size(), opts, stats);
}

std::vector<std::vector<QueryMatch>> ShardedIndex::QueryBatch(
    const std::vector<QuerySketch>& sketches, QueryStats* stats,
    uint32_t top_k, const ServeOptions& opts) const {
  for (const QuerySketch& sketch : sketches) impl_->CheckFamily(sketch);
  if (sketches.empty()) return {};
  SubRequest request;
  request.sketches =
      std::make_shared<const std::vector<QuerySketch>>(sketches);
  request.top_k = top_k;
  return impl_->FanOut(request, sketches.size(), opts, stats);
}

void ShardedIndex::WaitForCompaction() {
  for (auto& shard : impl_->shards) shard->dyn->WaitForCompaction();
}

bool ShardedIndex::WaitForCompaction(double timeout_seconds) {
  // One wall-clock budget across all shards: each shard gets whatever
  // remains, so a single wedged compaction bounds the whole drain.
  const auto deadline =
      SteadyClock::now() + std::chrono::duration_cast<SteadyClock::duration>(
                               std::chrono::duration<double>(timeout_seconds));
  bool all_drained = true;
  for (auto& shard : impl_->shards) {
    const double remaining =
        std::chrono::duration<double>(deadline - SteadyClock::now()).count();
    if (!shard->dyn->WaitForCompaction(remaining > 0 ? remaining : 0)) {
      all_drained = false;
    }
  }
  return all_drained;
}

ShardFaultInjector& ShardedIndex::fault_injector() const {
  return *impl_->injector;
}

ShardState ShardedIndex::shard_state(uint32_t shard) const {
  const Impl::Shard& s = *impl_->shards.at(shard);
  ShardState state;
  state.breaker = s.breaker->state(impl_->NowSeconds());
  state.consecutive_failures = s.breaker->consecutive_failures();
  state.times_opened = s.breaker->times_opened();
  state.num_live = s.dyn->num_live();
  return state;
}

double ShardedIndex::Now() const { return impl_->NowSeconds(); }

uint32_t ShardedIndex::num_shards() const {
  return static_cast<uint32_t>(impl_->shards.size());
}

Measure ShardedIndex::measure() const { return impl_->measure; }

uint32_t ShardedIndex::num_dims() const { return impl_->num_dims; }

uint32_t ShardedIndex::num_live() const {
  uint32_t live = 0;
  for (const auto& shard : impl_->shards) live += shard->dyn->num_live();
  return live;
}

uint64_t ShardedIndex::seed() const { return impl_->seed; }

}  // namespace bayeslsh
