// serve_cosine_sharded: one client queries a ShardedIndex (K = 2 shards,
// one executor thread each) over the RCV1-like tf-idf corpus, passing every
// query through AdmissionController::TryAdmit first, as the CLI `serve`
// loop does. K = 2, not 4: with four shards every query lands on every
// vCPU of a 4-vCPU box and the run measures the scheduler.

#include <algorithm>
#include <memory>

#include "common/bit_ops.h"
#include "core/index_io.h"
#include "core/pipeline.h"
#include "core/query_search.h"
#include "core/serve_control.h"
#include "core/sharded_index.h"
#include "data/paper_datasets.h"
#include "lsh/gaussian_source.h"
#include "lsh/srp_hasher.h"
#include "trace.h"
#include "vec/io.h"
#include "vec/sparse_vector.h"
#include "vec/transforms.h"
#include "workloads.h"

namespace perfbench {

using namespace bayeslsh;

namespace {

constexpr double kThreshold = 0.7;
constexpr uint32_t kShards = 2;
// Set-up + steady-slice rounds per run: three set-ups of about 3 s.
constexpr uint32_t kRounds = 3;

std::string CorpusFile(const Args& a) { return a.dir + "/corpus.bin"; }
std::string Reference(const Args& a) { return a.dir + "/unsharded.txt"; }
std::string Oracle(const Args& a) { return a.dir + "/oracle.txt"; }

IndexBuildConfig BuildConfig() {
  IndexBuildConfig b;
  b.measure = Measure::kCosine;
  b.threshold = kThreshold;
  b.seed = kLibrarySeed;
  b.num_threads = 1;
  return b;
}

QuerySearchConfig SearchConfig() {
  QuerySearchConfig c;
  c.measure = Measure::kCosine;
  c.threshold = kThreshold;
  c.seed = kLibrarySeed;
  c.num_threads = 1;
  return c;
}

AdmissionConfig Admission() {
  // Generous limits: they never reject one closed-loop client.
  AdmissionConfig a;
  a.tokens_per_second = 1e6;
  a.burst = 1e6;
  a.max_in_flight = 64;
  return a;
}

}  // namespace

void PrepareServeCosineSharded(const Args& args) {
  // 5,250 documents at scale 1: 4,500 indexed and 750 held out. The pool
  // is the 750 held-out rows and 750 indexed rows, alternating; at 1,500
  // queries its per-query cost mix, and the recall over its matches, are
  // alike from seed to seed.
  const uint64_t seed = InputSeed(args.seed, args.workload);
  const Dataset all = L2NormalizeRows(TfIdfTransform(MakeRawPaperDataset(
      PaperDataset::kRcv1, args.scale * 7.0 / 6.0, seed)));
  const uint32_t n = all.num_vectors();
  const uint32_t held = n / 7;
  const std::vector<uint32_t> order = SampleRows(n, n, seed + 1);
  std::vector<uint32_t> corpus_rows(order.begin() + held, order.end());
  std::sort(corpus_rows.begin(), corpus_rows.end());
  std::vector<uint32_t> pool;
  for (uint32_t i = 0; i < held; ++i) {
    pool.push_back(order[i]);
    pool.push_back(order[held + i]);
  }
  const struct {
    Dataset corpus, queries;
  } in{SelectRows(all, corpus_rows), SelectRows(all, pool)};
  WriteDatasetBinaryFile(in.corpus, CorpusFile(args));
  WriteDatasetBinaryFile(in.queries, QueriesFile(args));

  const uint32_t nq = in.queries.num_vectors();
  WriteAnswers(ExactAnswers(in.corpus, in.queries, kThreshold, false,
                            [&](uint32_t q, uint32_t r) {
                              return SparseDot(in.queries.Row(q),
                                               in.corpus.Row(r));
                            }),
               Oracle(args));
  // The unsharded reference the sharded answers must equal pair for pair.
  const QuerySearcher searcher(&in.corpus, SearchConfig());
  WriteAnswers(QueryPool(nq,
                         [&](uint32_t q) {
                           return searcher.Query(in.queries.Row(q));
                         }),
               Reference(args));
  if (args.trace) PrepareKlshRestart(args, in.corpus, in.queries);
}

void RunServeCosineSharded(const Args& args, Report* report) {
  AdmissionController admission(Admission());
  Dataset queries;
  std::unique_ptr<ShardedIndex> sharded;
  uint32_t nq = 0;

  // One admitted, sharded query, as the serve loop issues it. Returns
  // false, leaving *out empty, when admission rejects the query.
  auto serve = [&](uint32_t q, QueryStats* stats,
                   std::vector<QueryMatch>* out) {
    AdmissionController::Ticket ticket;
    {
      Span s("serve_control.admit");
      ticket = admission.TryAdmit("client", sharded->Now());
    }
    if (!ticket.admitted()) return false;
    {
      Span s("sharded_index.query");
      *out = sharded->Query(queries.Row(q), stats);
    }
    Span s("serve_control.release");
    ticket.Release();
    return true;
  };

  // ---- set-up (read + shard build + one warm-up pass) and steady phase
  // (the pool, round robin, one client), in kRounds rounds. Every answer
  // is compared with the unsharded reference (a vector comparison): a
  // steady answer as it arrives, a warm-up answer once its set-up has been
  // timed. Nothing per op is kept, so peak RSS does not grow with the
  // number of ops a run completes.
  std::vector<double> setup_s, warmup_s;
  Answers warm, reference;
  QueryStats warm_stats;
  auto set_up = [&]() {
    sharded.reset();
    const double t0 = NowSeconds();
    Dataset corpus;
    {
      Span s("vec.read");
      corpus = ReadDatasetBinaryFile(CorpusFile(args));
      queries = ReadDatasetBinaryFile(QueriesFile(args));
    }
    nq = queries.num_vectors();
    {
      Span s("sharded_index.build");
      ShardedIndexConfig sc;
      sc.num_shards = kShards;
      sc.threshold = kThreshold;
      sc.num_threads = 1;
      sharded = std::make_unique<ShardedIndex>(std::move(corpus),
                                               BuildConfig(), sc);
    }
    const double t1 = NowSeconds();
    std::vector<char> rejected(nq, 0);
    {
      Span s("query_search.warmup");
      warm_stats = QueryStats();
      warm = QueryPool(nq, [&](uint32_t q) {
        QueryStats st;  // Query() overwrites its stats; sum them here.
        std::vector<QueryMatch> out;
        rejected[q] = !serve(q, &st, &out);
        warm_stats.MergeFrom(st);
        return out;
      });
    }
    setup_s.push_back(NowSeconds() - t0);
    warmup_s.push_back(NowSeconds() - t1);
    if (reference.empty()) reference = ReadAnswers(Reference(args), nq);
    for (uint32_t q = 0; q < nq; ++q) {
      report->Attempt();
      if (rejected[q]) {
        report->Fail("admission rejected warm-up query " + std::to_string(q));
      } else if (warm[q] != reference[q]) {
        report->Fail("warm-up answer differs from unsharded QuerySearcher, "
                     "query " + std::to_string(q));
      }
    }
  };
  QueryStats all;
  uint64_t request = 0;
  auto op = [&](uint64_t i) {
    Span req("request", ++request);
    const auto q = static_cast<uint32_t>(i % nq);
    QueryStats st;
    std::vector<QueryMatch> got;
    const bool admitted = serve(q, &st, &got);
    all.MergeFrom(st);
    report->Attempt();
    if (!admitted) {
      report->Fail("admission rejected query " + std::to_string(q));
    } else if (st.shards_answered != st.shards_total) {
      report->Fail("partial answer, query " + std::to_string(q));
    } else if (got != reference[q]) {
      report->Fail("answer differs from unsharded QuerySearcher, query " +
                   std::to_string(q));
    }
  };
  Phase traced;
  const Phase phase = RunSteadyPhase(args, kRounds, set_up, nq, op, report,
                                     &traced);
  report->Set("peak_rss_mb", PeakRssMb());

  // ---- checks, outside timing.
  const Dataset corpus = ReadDatasetBinaryFile(CorpusFile(args));
  const Quality qa =
      Evaluate(warm, ReadAnswers(Oracle(args), nq), [&](uint32_t q,
                                                        uint32_t r) {
        return SparseDot(queries.Row(q), corpus.Row(r));
      });

  const double p50_ms = Median(phase.latencies_s) * 1e3;
  report->Set("setup_s", Median(setup_s), setup_s.size(),
              "read + 2-shard build + warm-up pass");
  report->Set("ops_per_s", phase.ops_per_s(), phase.ops, "queries per second");
  report->Set("query_p50_ms", p50_ms, phase.ops);
  report->Set("client.query_p99_ms", Quantile(phase.latencies_s, 0.99) * 1e3,
              phase.ops);
  report->Set("recall", qa.recall, qa.exact_matches);
  report->Set("within_delta_frac", qa.within_delta_frac, qa.returned);
  report->Omit("client.write_p50_ms", "no writes in this workload");
  report->Omit("client.write_p99_ms", "no writes in this workload");
  if (!args.trace) return;

  // ---- per-layer metrics (traced run).
  const double dq = static_cast<double>(nq);
  report->Set("query_search.warmup_s", Median(warmup_s), warmup_s.size());
  report->Set("candgen.candidates_per_query",
              static_cast<double>(warm_stats.candidates) / dq, nq,
              "ShardedIndex QueryStats, one pool pass");
  report->Set("bayes_lsh.pruned_frac",
              static_cast<double>(warm_stats.pruned) /
                  static_cast<double>(warm_stats.candidates));
  report->Set("bayes_lsh.hashes_per_candidate",
              static_cast<double>(warm_stats.hashes_compared) /
                  static_cast<double>(warm_stats.candidates));
  report->Set("sharded_index.shards_answered_frac",
              static_cast<double>(all.shards_answered) /
                  static_cast<double>(all.shards_total),
              phase.ops + traced.ops);
  report->Set("serve_control.admit_us",
              (Median(GlobalTracer().Durations("serve_control.admit")) +
               Median(GlobalTracer().Durations("serve_control.release"))) *
                  1e6,
              traced.ops, "TryAdmit + ticket release, traced loop");
  report->Set("serve_control.rejected",
              static_cast<double>(admission.rejected_total()));
  sharded.reset();

  // index_io: each shard's partition built on its own, as the shards do.
  std::vector<std::vector<uint32_t>> parts(kShards);
  for (uint32_t i = 0; i < corpus.num_vectors(); ++i) {
    parts[ShardedIndex::ShardOfId(kLibrarySeed, i, kShards)].push_back(i);
  }
  double build_s = 0.0;
  for (const auto& rows : parts) {
    Dataset part = SelectRows(corpus, rows);
    Span s("index_io.build");
    const double t0 = NowSeconds();
    PersistentIndex::Build(std::move(part), BuildConfig());
    build_s += NowSeconds() - t0;
  }
  report->Set("index_io.build_s", build_s, kShards, "sum over the shards");

  // query_search: one unsharded index over the same corpus and pool.
  std::unique_ptr<PersistentIndex> index;
  {
    Span s("index_io.build");
    index = PersistentIndex::Build(Dataset(corpus), BuildConfig());
  }
  {
    const QuerySearcher searcher(index.get(), SearchConfig());
    QueryPool(nq, [&](uint32_t q) { return searcher.Query(queries.Row(q)); });
    const uint64_t bits0 = searcher.bits_computed();
    std::vector<double> lat;
    for (int pass = 0; pass < 2; ++pass) {
      const Answers got = QueryPool(
          nq,
          [&](uint32_t q) {
            Span s("query_search.query");
            return searcher.Query(queries.Row(q));
          },
          &lat);
      report->Attempt();
      if (got != reference) report->Fail("unsharded searcher is unsteady");
    }
    const double unsharded_ms = Median(lat) * 1e3;
    report->Set("query_search.query_ms", unsharded_ms, lat.size());
    report->Set("sharded_index.fanout_ms", p50_ms - unsharded_ms, phase.ops,
                "sharded p50 - unsharded p50");
    report->Set("lsh.hashes_grown_timed",
                static_cast<double>(searcher.bits_computed() - bits0), 0,
                "unsharded searcher, two passes after warm-up");
  }

  // lsh + candgen: hash each pool query with the public hashers (banding
  // chunks from the generation seed, the first verification round from
  // the verification seed), then probe the index's banding buckets.
  const ImplicitGaussianSource gen_gauss(GenerationSeed(kLibrarySeed));
  const ImplicitGaussianSource ver_gauss(VerificationSeed(kLibrarySeed));
  const SrpHasher gen(&gen_gauss), ver(&ver_gauss);
  const uint32_t l = index->num_bands(), k = index->hashes_per_band();
  const uint32_t words = WordsForBits(l * k);
  std::vector<double> hash_us, probe_us;
  uint64_t entries = 0, unique = 0;
  for (uint32_t q = 0; q < nq; ++q) {
    const SparseVectorView v = queries.Row(q);
    std::vector<uint64_t> key_words(words);
    double t0 = NowSeconds();
    {
      Span s("lsh.hash_query");
      for (uint32_t c = 0; c < words; ++c) key_words[c] = gen.HashChunk(v, c);
      ver.HashChunk(v, 0);
    }
    double t1 = NowSeconds();
    unique += ProbeBands(
                  index->banding(),
                  [&](uint32_t b) {
                    return BandingIndex::CosineKey(key_words.data(), words, b,
                                                   k);
                  },
                  &entries)
                  .size();
    const double t2 = NowSeconds();
    hash_us.push_back((t1 - t0) * 1e6);
    probe_us.push_back((t2 - t1) * 1e6);
  }
  report->Set("lsh.query_hash_us", Median(hash_us), nq,
              "SRP banding chunks + first verification round");
  report->Set("candgen.probe_us", Median(probe_us), nq);
  report->Set("candgen.bucket_entries_per_query",
              static_cast<double>(entries) / dq, nq);
  report->Set("candgen.dedup_ratio",
              static_cast<double>(unique) / static_cast<double>(entries), nq,
              "distinct candidates / bucket entries");

  MeasureKlshRestart(args, queries, report);
}

}  // namespace perfbench
