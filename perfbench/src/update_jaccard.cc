// update_jaccard: a durable DynamicIndex over the Orkut-like binary graph
// (Jaccard, t = 0.5, BayesLSH-Lite: survivors verified exactly). One
// client sends a seeded stream of 90% queries, 8% adds and 2% removes,
// each write appended to the WAL and flushed (no fsync), and calls
// Compact() itself after every kMutationsPerCycle mutations. The steady
// phase runs whole cycles (ops up to and including the compaction), so
// every run pays compaction in the same proportion.

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/prng.h"
#include "core/dynamic_index.h"
#include "core/index_io.h"
#include "core/pipeline.h"
#include "core/query_search.h"
#include "data/paper_datasets.h"
#include "lsh/minwise_hasher.h"
#include "sim/similarity.h"
#include "trace.h"
#include "vec/io.h"
#include "workloads.h"

namespace perfbench {

using namespace bayeslsh;

namespace {

constexpr double kThreshold = 0.5;
constexpr uint32_t kMutationsPerCycle = 500;
constexpr uint32_t kPrefixMutations = 300;  // Logged, then replayed.
// peak_rss_mb is read after this many cycles, which every run completes.
// Each cycle grows the corpus (adds outnumber removes) and the op log, so
// a reading at the end of the phase would grow with throughput.
constexpr uint64_t kRssCycles = 8;

// True while a run should set up once more: until three set-ups ran,
// then on while they total under five seconds (a set-up takes under half
// a second, so its median steadies over many), up to 25.
bool WantSetup(const std::vector<double>& setup_s) {
  constexpr size_t kMinSetups = 3, kMaxSetups = 25;
  constexpr double kMinTotalSeconds = 5.0;
  double total = 0.0;
  for (const double s : setup_s) total += s;
  return setup_s.size() < kMinSetups ||
         (total < kMinTotalSeconds && setup_s.size() < kMaxSetups);
}

std::string BaseFile(const Args& a) { return a.dir + "/base.bin"; }
std::string AddsFile(const Args& a) { return a.dir + "/adds.bin"; }
std::string Manifest(const Args& a) { return a.dir + "/index.dx"; }
std::string Wal(const Args& a) { return a.dir + "/index.wal"; }

IndexBuildConfig BuildConfig() {
  IndexBuildConfig b;
  b.measure = Measure::kJaccard;
  b.threshold = kThreshold;
  b.seed = kLibrarySeed;
  b.num_threads = 1;
  return b;
}

DynamicIndexConfig DynConfig() {
  DynamicIndexConfig d;
  d.threshold = kThreshold;
  d.exact_verification = true;
  d.num_threads = 1;
  d.wal_sync = false;
  return d;
}

struct Op {
  enum Kind : uint8_t { kQuery, kAdd, kRemove } kind = kQuery;
  uint32_t arg = 0;  // Pool query, row of adds.bin, or logical id.
};

// The client's op stream: a pure function of the seed. The client tracks
// the live ids itself (Add assigns ids in sequence, so they are known in
// advance) to pick removal targets.
class OpStream {
 public:
  OpStream(uint64_t seed, uint32_t base_rows, uint32_t add_rows,
           uint32_t pool)
      : rng_(seed), add_rows_(add_rows), pool_(pool), next_id_(base_rows) {
    live_.resize(base_rows);
    for (uint32_t i = 0; i < base_rows; ++i) live_[i] = i;
  }

  // 90% queries, 8% adds, 2% removes.
  Op Next() {
    const uint64_t r = rng_.NextBounded(100);
    if (r < 90) return {Op::kQuery, static_cast<uint32_t>(
                                        rng_.NextBounded(pool_))};
    return r < 98 ? Add() : Remove();
  }
  // Mutations only, in the same 8:2 proportion.
  Op NextMutation() { return rng_.NextBounded(10) < 8 ? Add() : Remove(); }

  // The id the next Add will be assigned.
  uint32_t next_id() const { return next_id_; }

 private:
  Op Add() {
    // Held-out rows first; when they run out, re-added under new ids.
    const Op op{Op::kAdd, next_add_++ % add_rows_};
    live_.push_back(next_id_++);
    return op;
  }
  Op Remove() {
    const auto i = static_cast<size_t>(rng_.NextBounded(live_.size()));
    const Op op{Op::kRemove, live_[i]};
    live_[i] = live_.back();
    live_.pop_back();
    return op;
  }

  Xoshiro256StarStar rng_;
  uint32_t add_rows_, pool_;
  uint32_t next_id_;
  uint32_t next_add_ = 0;
  std::vector<uint32_t> live_;
};

// Everything a steady phase produced, for the checks.
struct PhaseLog {
  std::vector<Op> ops;
  Answers answers;  // One per query op, in order.
  std::vector<double> query_s, write_s, add_s, compact_s;
  uint64_t first_rehashed = 0;  // base_hash_work() after the first Compact.
  QueryStats first_cycle;          // Summed stats of cycle 0's queries.
  uint64_t first_cycle_queries = 0;
  uint64_t first_cycle_delta_rows = 0;
  uint64_t client_ops = 0;
  double peak_rss_mb = 0.0;  // After kRssCycles cycles.
  Phase phase;  // One phase op = one cycle.
};

struct Inputs {
  Dataset base, adds, queries;
};

// Rebuilds the stream state reached after the logged prefix.
OpStream StreamAfterPrefix(const Args& args, const Inputs& in) {
  OpStream s(InputSeed(args.seed, args.workload) + 2, in.base.num_vectors(),
             in.adds.num_vectors(), in.queries.num_vectors());
  for (uint32_t i = 0; i < kPrefixMutations; ++i) s.NextMutation();
  return s;
}

// Replays a phase's op log over the live rows it started from (indexed by
// logical id) and checks every answer: each returned id is live at that
// point, and its similarity is the exact Jaccard similarity (Lite verifies
// survivors exactly) and reaches t.
void CheckPhase(const Inputs& in, const PhaseLog& log,
                std::vector<SparseVectorView> rows, std::vector<bool> live,
                Report* report) {
  size_t next_answer = 0;
  for (size_t i = 0; i < log.ops.size(); ++i) {
    const Op& op = log.ops[i];
    if (op.kind == Op::kAdd) {
      rows.push_back(in.adds.Row(op.arg));
      live.push_back(true);
      continue;
    }
    if (op.kind == Op::kRemove) {
      live[op.arg] = false;
      continue;
    }
    report->Attempt();
    const SparseVectorView q = in.queries.Row(op.arg);
    for (const QueryMatch& m : log.answers[next_answer++]) {
      if (m.id >= live.size() || !live[m.id]) {
        report->Fail("query returned a removed id " + std::to_string(m.id));
        break;
      }
      const double s = JaccardSimilarity(q, rows[m.id]);
      if (s != m.sim || s < kThreshold) {
        report->Fail("query returned a wrong similarity for id " +
                     std::to_string(m.id));
        break;
      }
    }
  }
}

// Answers of a fresh build over `live` (logical ids `ids`) for the pool.
Answers FreshAnswers(const Dataset& live, const std::vector<uint32_t>& ids,
                     const Dataset& queries) {
  QuerySearchConfig c;
  c.measure = Measure::kJaccard;
  c.threshold = kThreshold;
  c.exact_verification = true;
  c.seed = kLibrarySeed;
  const QuerySearcher fresh(&live, c);
  return QueryPool(queries.num_vectors(), [&](uint32_t q) {
    std::vector<QueryMatch> out = fresh.Query(queries.Row(q));
    for (QueryMatch& m : out) m.id = ids[m.id];
    return out;
  });
}

}  // namespace

void PrepareUpdateJaccard(const Args& args) {
  const uint64_t seed = InputSeed(args.seed, args.workload);
  const Dataset all =
      MakeBinaryPaperDataset(PaperDataset::kOrkut, args.scale, seed);
  const uint32_t n = all.num_vectors();
  const uint32_t held = n / 10;  // Rows the stream adds: 900 at scale 1.
  const std::vector<uint32_t> order = SampleRows(n, n, seed + 1);
  std::vector<uint32_t> adds(order.begin(), order.begin() + held);
  std::vector<uint32_t> base(order.begin() + held, order.end());
  std::sort(base.begin(), base.end());
  // Pool of 2,000 at scale 1: 600 held-out rows (added during the run)
  // and 1,400 base rows.
  std::vector<uint32_t> pool(adds.begin(), adds.begin() + n / 15);
  pool.insert(pool.end(), order.begin() + held,
              order.begin() + held + 7 * n / 45);
  Inputs in{SelectRows(all, base), SelectRows(all, adds),
            SelectRows(all, pool)};
  WriteDatasetBinaryFile(in.base, BaseFile(args));
  WriteDatasetBinaryFile(in.adds, AddsFile(args));
  WriteDatasetBinaryFile(in.queries, QueriesFile(args));

  // Build, attach the WAL, checkpoint, log a prefix, and drop the index
  // without a second checkpoint: the run recovers it from manifest + log.
  DynamicIndex dyn(PersistentIndex::Build(Dataset(in.base), BuildConfig()),
                   DynConfig());
  dyn.AttachWal(Wal(args));
  dyn.SaveFile(Manifest(args));
  OpStream stream(seed + 2, in.base.num_vectors(), in.adds.num_vectors(),
                  in.queries.num_vectors());
  for (uint32_t i = 0; i < kPrefixMutations; ++i) {
    const Op op = stream.NextMutation();
    if (op.kind == Op::kAdd) {
      dyn.Add(in.adds.Row(op.arg));
    } else {
      dyn.Remove(op.arg);
    }
  }
}

void RunUpdateJaccard(const Args& args, Report* report) {
  const Inputs in{ReadDatasetBinaryFile(BaseFile(args)),
                  ReadDatasetBinaryFile(AddsFile(args)),
                  ReadDatasetBinaryFile(QueriesFile(args))};
  const uint32_t nq = in.queries.num_vectors();
  std::unique_ptr<DynamicIndex> dyn;
  int copy = 0;

  // Set-up: load the checkpoint, replay the log, one warm-up pass. The
  // files are copied first (untimed) so every set-up starts from the
  // prepared state.
  std::vector<double> setup_s, load_s, replay_s, warmup_s;
  WalRecovery recovery;
  Answers warm;
  auto setup = [&]() {
    dyn.reset();
    const std::string m = args.dir + "/run" + std::to_string(copy) + ".dx";
    const std::string w = args.dir + "/run" + std::to_string(copy) + ".wal";
    ++copy;
    CopyFile(Manifest(args), m);
    CopyFile(Wal(args), w);
    const double t0 = NowSeconds();
    {
      Span s("index_io.load");
      dyn = DynamicIndex::LoadFile(m, DynConfig());
    }
    const double t1 = NowSeconds();
    {
      Span s("wal.replay");
      recovery = dyn->AttachWal(w);
    }
    const double t2 = NowSeconds();
    {
      Span s("query_search.warmup");
      warm = QueryPool(nq, [&](uint32_t q) {
        return dyn->Query(in.queries.Row(q));
      });
    }
    const double t3 = NowSeconds();
    setup_s.push_back(t3 - t0);
    load_s.push_back(t1 - t0);
    replay_s.push_back(t2 - t1);
    warmup_s.push_back(t3 - t2);
  };
  while (WantSetup(setup_s)) setup();

  // The recovered state, kept for the checks after the steady phase.
  std::vector<uint32_t> live_ids;
  const Dataset live0 = dyn->LiveCorpus(&live_ids);
  const Answers warm0 = warm;

  // One steady phase from the recovered state: whole compaction cycles.
  auto run_phase = [&](bool traced) {
    GlobalTracer().set_enabled(traced);
    PhaseLog log;
    OpStream stream = StreamAfterPrefix(args, in);
    uint64_t cycle = 0, request = 0;
    auto run_cycle = [&](uint64_t) {
      uint32_t mutations = 0;
      while (mutations < kMutationsPerCycle) {
        const Op op = stream.Next();
        log.ops.push_back(op);
        ++log.client_ops;
        Span req("request", ++request);
        const double t0 = NowSeconds();
        if (op.kind == Op::kQuery) {
          QueryStats st;
          std::vector<QueryMatch> got;
          {
            Span s("dynamic_index.query");
            got = dyn->Query(in.queries.Row(op.arg), &st);
          }
          log.query_s.push_back(NowSeconds() - t0);
          log.answers.push_back(std::move(got));
          if (cycle == 0) {
            log.first_cycle.MergeFrom(st);
            ++log.first_cycle_queries;
            log.first_cycle_delta_rows += dyn->num_delta_rows();
          }
          continue;
        }
        ++mutations;
        if (op.kind == Op::kAdd) {
          const uint32_t expect = stream.next_id() - 1;
          uint32_t id = 0;
          {
            Span s("dynamic_index.add");
            id = dyn->Add(in.adds.Row(op.arg));
          }
          const double dt = NowSeconds() - t0;
          log.write_s.push_back(dt);
          log.add_s.push_back(dt);
          if (id != expect) report->Fail("Add assigned an unexpected id");
        } else {
          bool ok = false;
          {
            Span s("dynamic_index.remove");
            ok = dyn->Remove(op.arg);
          }
          log.write_s.push_back(NowSeconds() - t0);
          if (!ok) report->Fail("Remove of a live id returned false");
        }
      }
      const double t0 = NowSeconds();
      {
        Span s("dynamic_index.compact");
        dyn->Compact();
      }
      log.compact_s.push_back(NowSeconds() - t0);
      if (cycle == 0) log.first_rehashed = dyn->base_hash_work();
      if (++cycle == kRssCycles) log.peak_rss_mb = PeakRssMb();
    };
    log.phase = RunClosedLoop(args.seconds, kRssCycles, run_cycle);
    return log;
  };

  PhaseLog main_log = run_phase(false);
  report->Set("peak_rss_mb", main_log.peak_rss_mb, kRssCycles,
              "read after the first " + std::to_string(kRssCycles) +
                  " compaction cycles");
  const double ops_per_s = static_cast<double>(main_log.client_ops) /
                           main_log.phase.wall_s;

  // ---- checks, outside timing.
  std::vector<SparseVectorView> rows0(live_ids.empty() ? 0
                                                       : live_ids.back() + 1);
  std::vector<bool> live_flags0(rows0.size(), false);
  for (uint32_t r = 0; r < live0.num_vectors(); ++r) {
    rows0[live_ids[r]] = live0.Row(r);
    live_flags0[live_ids[r]] = true;
  }
  CheckPhase(in, main_log, rows0, live_flags0, report);
  // The recovered index answers as a fresh build over its live corpus.
  const Answers fresh0 = FreshAnswers(live0, live_ids, in.queries);
  for (uint32_t q = 0; q < nq; ++q) {
    report->Attempt();
    if (warm0[q] != fresh0[q]) {
      report->Fail("recovered index differs from a fresh build, query " +
                   std::to_string(q));
    }
  }
  // And so does the index after the steady phase.
  {
    std::vector<uint32_t> ids;
    const Dataset live = dyn->LiveCorpus(&ids);
    const Answers fresh = FreshAnswers(live, ids, in.queries);
    for (uint32_t q = 0; q < nq; ++q) {
      report->Attempt();
      if (dyn->Query(in.queries.Row(q)) != fresh[q]) {
        report->Fail("index after the steady phase differs from a fresh "
                     "build, query " + std::to_string(q));
      }
    }
  }
  Answers exact_ids = ExactAnswers(
      live0, in.queries, kThreshold, true, [&](uint32_t q, uint32_t r) {
        return JaccardSimilarity(in.queries.Row(q), live0.Row(r));
      });
  for (auto& a : exact_ids) {
    for (QueryMatch& m : a) m.id = live_ids[m.id];
  }
  const Quality qa = Evaluate(warm0, exact_ids, [&](uint32_t q, uint32_t id) {
    return JaccardSimilarity(in.queries.Row(q), rows0[id]);
  });

  const auto& log = main_log;
  report->Set("setup_s", Median(setup_s), setup_s.size(),
              "manifest load + WAL replay + warm-up pass");
  report->Set("ops_per_s", ops_per_s, log.client_ops,
              "queries + adds + removes; compaction inside the wall time");
  report->Set("query_p50_ms", Median(log.query_s) * 1e3, log.query_s.size());
  report->Set("client.query_p99_ms", Quantile(log.query_s, 0.99) * 1e3,
              log.query_s.size());
  report->Set("client.write_p50_ms", Median(log.write_s) * 1e3,
              log.write_s.size(), "Add/Remove incl. WAL append + flush");
  report->Set("client.write_p99_ms", Quantile(log.write_s, 0.99) * 1e3,
              log.write_s.size());
  report->Set("recall", qa.recall, qa.exact_matches,
              "recovered index, one pool pass");
  report->Set("within_delta_frac", qa.within_delta_frac, qa.returned);
  if (!args.trace) return;

  // ---- per-layer metrics (traced run).
  const double fq = static_cast<double>(log.first_cycle_queries);
  const QueryStats& st = log.first_cycle;
  report->Set("candgen.candidates_per_query",
              static_cast<double>(st.candidates) / fq, log.first_cycle_queries,
              "first compaction cycle");
  report->Set("bayes_lsh.pruned_frac", static_cast<double>(st.pruned) /
                                           static_cast<double>(st.candidates));
  report->Set("bayes_lsh.hashes_per_candidate",
              static_cast<double>(st.hashes_compared) /
                  static_cast<double>(st.candidates));
  report->Set("sim.exact_per_query",
              static_cast<double>(st.candidates - st.pruned) / fq,
              log.first_cycle_queries, "candidates - pruned under Lite");
  report->Set("dynamic_index.ghost_candidates_per_query",
              static_cast<double>(st.ghost_candidates) / fq,
              log.first_cycle_queries);
  report->Set("dynamic_index.delta_rows_mean",
              static_cast<double>(log.first_cycle_delta_rows) / fq,
              log.first_cycle_queries);
  report->Set("dynamic_index.compact_s", Median(log.compact_s),
              log.compact_s.size());
  report->Set("dynamic_index.compact_rehashed",
              static_cast<double>(log.first_rehashed), 0,
              "base_hash_work() after the first compaction");
  report->Set("index_io.load_s", Median(load_s), load_s.size());
  report->Set("index_io.bytes_per_row",
              static_cast<double>(FileBytes(Manifest(args))) /
                  static_cast<double>(in.base.num_vectors()));
  report->Set("wal.replay_s", Median(replay_s), replay_s.size());
  report->Set("wal.replay_records", static_cast<double>(recovery.applied));
  report->Set("wal.bytes_per_mutation",
              static_cast<double>(FileBytes(Wal(args))) / kPrefixMutations,
              kPrefixMutations, "the logged prefix");
  report->Set("query_search.warmup_s", Median(warmup_s), warmup_s.size());
  report->Omit("lsh.hashes_grown_timed",
               "adds hash new rows during the steady phase by design");

  // Twin without a WAL, fed the same stream: the write cost minus logging.
  {
    Span s("twin");
    auto twin = DynamicIndex::LoadFile(Manifest(args), DynConfig());
    OpStream prefix(InputSeed(args.seed, args.workload) + 2,
                    in.base.num_vectors(), in.adds.num_vectors(), nq);
    for (uint32_t i = 0; i < kPrefixMutations; ++i) {
      const Op op = prefix.NextMutation();
      if (op.kind == Op::kAdd) {
        twin->Add(in.adds.Row(op.arg));
      } else {
        twin->Remove(op.arg);
      }
    }
    std::vector<double> add_us, remove_us;
    uint32_t mutations = 0;
    for (const Op& op : log.ops) {
      if (op.kind == Op::kQuery) continue;
      const double t0 = NowSeconds();
      if (op.kind == Op::kAdd) {
        Span a("dynamic_index.add");
        twin->Add(in.adds.Row(op.arg));
        add_us.push_back((NowSeconds() - t0) * 1e6);
      } else {
        Span r("dynamic_index.remove");
        twin->Remove(op.arg);
        remove_us.push_back((NowSeconds() - t0) * 1e6);
      }
      if (++mutations == kMutationsPerCycle) break;
    }
    report->Set("dynamic_index.add_us", Median(add_us), add_us.size(),
                "twin with no WAL, first cycle");
    report->Set("dynamic_index.remove_us", Median(remove_us),
                remove_us.size(), "twin with no WAL, first cycle");
    report->Set("wal.append_us",
                Median(log.add_s) * 1e6 - Median(add_us), log.add_s.size(),
                "Add p50 with the WAL - twin Add p50");
  }

  // lsh + candgen + sim: the public hashers and a banding probe over an
  // index of the recovered live corpus, and exact Jaccard per candidate.
  const auto index = PersistentIndex::Build(Dataset(live0), BuildConfig());
  const MinwiseHasher gen(GenerationSeed(kLibrarySeed));
  const MinwiseHasher ver(VerificationSeed(kLibrarySeed));
  const uint32_t l = index->num_bands(), k = index->hashes_per_band();
  const uint32_t chunks = (l * k + kMinhashChunkInts - 1) / kMinhashChunkInts;
  std::vector<double> hash_us, probe_us;
  uint64_t entries = 0, unique = 0, pairs = 0;
  double exact_s = 0.0;
  for (uint32_t q = 0; q < nq; ++q) {
    const SparseVectorView v = in.queries.Row(q);
    std::vector<uint32_t> ints(chunks * kMinhashChunkInts);
    std::vector<uint32_t> first_round(kMinhashChunkInts);
    const double t0 = NowSeconds();
    {
      Span s("lsh.hash_query");
      for (uint32_t c = 0; c < chunks; ++c) {
        gen.HashChunk(v, c, ints.data() + c * kMinhashChunkInts);
      }
      ver.HashChunk(v, 0, first_round.data());
    }
    const double t1 = NowSeconds();
    const std::vector<uint32_t> cands = ProbeBands(
        index->banding(),
        [&](uint32_t b) { return BandingIndex::JaccardKey(ints.data(), b, k); },
        &entries);
    const double t2 = NowSeconds();
    hash_us.push_back((t1 - t0) * 1e6);
    probe_us.push_back((t2 - t1) * 1e6);
    unique += cands.size();
    {
      Span s("sim.jaccard");
      double sink = 0.0;
      const double t3 = NowSeconds();
      for (const uint32_t r : cands) sink += JaccardSimilarity(v, live0.Row(r));
      exact_s += NowSeconds() - t3;
      pairs += cands.size();
      if (std::isnan(sink)) report->Fail("NaN Jaccard similarity");
    }
  }
  report->Set("lsh.query_hash_us", Median(hash_us), nq,
              "minwise banding chunks + first verification round");
  report->Set("candgen.probe_us", Median(probe_us), nq);
  report->Set("candgen.bucket_entries_per_query",
              static_cast<double>(entries) / nq, nq);
  report->Set("candgen.dedup_ratio",
              static_cast<double>(unique) / static_cast<double>(entries), nq,
              "distinct candidates / bucket entries");
  report->Set("sim.exact_us", exact_s * 1e6 / static_cast<double>(pairs),
              pairs, "JaccardSimilarity per (query, candidate) pair");

  // Trace overhead: the same cycles again from the same recovered state,
  // traced.
  GlobalTracer().set_enabled(false);
  setup();
  const PhaseLog traced_log = run_phase(true);
  CheckPhase(in, traced_log, rows0, live_flags0, report);
  const double traced_ops_per_s = static_cast<double>(traced_log.client_ops) /
                                  traced_log.phase.wall_s;
  report->Set("trace.overhead_frac", 1.0 - traced_ops_per_s / ops_per_s,
              traced_log.client_ops, "1 - traced/untraced ops_per_s");
}

}  // namespace perfbench
