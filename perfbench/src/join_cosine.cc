// join_cosine: the paper's all-pairs self-join, run the way
//   bayeslsh allpairs --input FILE --tfidf --threshold 0.7 --threads 2
// runs it: read the text corpus, tf-idf + L2, then AllPairs candidates and
// BayesLSH verification. One op is one full join.

#include <algorithm>

#include "candgen/allpairs.h"
#include "common/thread_pool.h"
#include "core/bayes_lsh.h"
#include "core/pipeline.h"
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
constexpr uint32_t kThreads = 2;
// Set-up + steady-slice rounds per run: five set-ups of about a second.
constexpr uint32_t kRounds = 5;

std::string Corpus(const Args& a) { return a.dir + "/corpus.txt"; }
std::string Oracle(const Args& a) { return a.dir + "/oracle_pairs.txt"; }

PipelineConfig JoinConfig(uint32_t threads) {
  PipelineConfig cfg;
  cfg.measure = Measure::kCosine;
  cfg.generator = GeneratorKind::kAllPairs;
  cfg.verifier = VerifierKind::kBayesLsh;
  cfg.threshold = kThreshold;
  cfg.seed = kLibrarySeed;
  cfg.num_threads = threads;
  return cfg;
}

Dataset Transform(const Dataset& raw) {
  return L2NormalizeRows(TfIdfTransform(raw));
}

}  // namespace

void PrepareJoinCosine(const Args& args) {
  const Dataset raw = MakeRawPaperDataset(PaperDataset::kRcv1, args.scale,
                                          InputSeed(args.seed, args.workload));
  WriteDatasetFile(raw, Corpus(args));
  // The oracle transforms what the run will read back from the file.
  const Dataset data = Transform(ReadDatasetFile(Corpus(args)));
  WritePairs(InvertedIndexJoin(data, kThreshold, Measure::kCosine),
             Oracle(args));
}

void RunJoinCosine(const Args& args, Report* report) {
  // ---- set-up (read + transform + the first, cold join) and steady
  // phase (one client runs joins back to back), in kRounds rounds. Every
  // join is compared with the first set-up's join as it returns.
  std::vector<double> setup_s, read_s, transform_s;
  Dataset data;
  PipelineResult reference;
  auto set_up = [&]() {
    data = Dataset();
    const double t0 = NowSeconds();
    Dataset raw;
    {
      Span s("vec.read");
      raw = ReadDatasetFile(Corpus(args));
    }
    const double t1 = NowSeconds();
    {
      Span s("vec.transform");
      data = Transform(raw);
    }
    const double t2 = NowSeconds();
    PipelineResult r;
    {
      Span s("core.pipeline");
      r = RunPipeline(data, JoinConfig(kThreads));
    }
    setup_s.push_back(NowSeconds() - t0);
    read_s.push_back(t1 - t0);
    transform_s.push_back(t2 - t1);
    report->Attempt();
    if (setup_s.size() == 1) {
      reference = std::move(r);
    } else if (r.pairs != reference.pairs) {
      report->Fail("set-up join " + std::to_string(setup_s.size() - 1) +
                   " differs from the first");
    }
  };
  uint64_t request = 0;
  auto op = [&](uint64_t i) {
    Span req("request", ++request);
    PipelineResult r;
    {
      Span s("core.pipeline");
      r = RunPipeline(data, JoinConfig(kThreads));
    }
    report->Attempt();
    if (r.pairs != reference.pairs) {
      report->Fail("join " + std::to_string(i) + " differs from set-up join");
    }
  };
  const Phase phase = RunSteadyPhase(args, kRounds, set_up, 1, op, report);
  report->Set("peak_rss_mb", PeakRssMb());

  // ---- checks, outside timing.
  // Quality of the (deterministic) join against the exact oracle.
  const std::vector<ScoredPair> exact = ReadPairs(Oracle(args));
  Answers got(data.num_vectors()), want(data.num_vectors());
  for (const ScoredPair& p : reference.pairs) got[p.a].push_back({p.b, p.sim});
  for (const ScoredPair& p : exact) want[p.a].push_back({p.b, p.sim});
  const Quality q = Evaluate(got, want, [&](uint32_t a, uint32_t b) {
    return SparseDot(data.Row(a), data.Row(b));
  });

  report->Set("setup_s", Median(setup_s), setup_s.size(),
              "read + tf-idf + L2 + cold join");
  report->Set("ops_per_s", phase.ops_per_s(), phase.ops, "joins per second");
  report->Set("query_p50_ms", Median(phase.latencies_s) * 1e3, phase.ops,
              "one query = one full self-join");
  report->Set("recall", q.recall, q.exact_matches);
  report->Set("within_delta_frac", q.within_delta_frac, q.returned);
  report->Omit("client.query_p99_ms",
               "fewer than 1000 joins per run; p50 only");
  report->Omit("client.write_p50_ms", "no writes in this workload");
  report->Omit("client.write_p99_ms", "no writes in this workload");
  if (!args.trace) return;

  // ---- per-layer metrics (traced run).
  report->Set("vec.read_s", Median(read_s), read_s.size());
  report->Set("vec.transform_s", Median(transform_s), transform_s.size());
  report->Set("lsh.join_verify_hashes",
              static_cast<double>(reference.verify_hashes_computed), 0,
              "2-thread join; may vary with thread count");

  // The join again, as its two public layers: AllPairs candidates (same
  // two-thread pool as the pipeline), then serial BayesLSH verification.
  ThreadPool pool(kThreads);
  std::vector<double> allpairs_s;
  CandidateList cands;
  for (int i = 0; i < 3; ++i) {
    Span s("candgen.allpairs");
    const double t0 = NowSeconds();
    cands = AllPairsCandidates(data, kThreshold, nullptr, &pool);
    allpairs_s.push_back(NowSeconds() - t0);
  }
  report->Set("candgen.allpairs_s", Median(allpairs_s), allpairs_s.size());
  report->Set("candgen.join_candidates", static_cast<double>(cands.size()));

  GaussianSourceCache gauss_cache(data.num_dims(), 0);
  const auto gauss = gauss_cache.Get(VerificationSeed(kLibrarySeed));
  BitSignatureStore store(&data, SrpHasher(gauss.get()));
  const CosinePosterior model(kThreshold);
  BayesLshParams params;  // Cosine defaults: 32 hashes/round, 4096 max.
  VerifyStats vs;
  std::vector<ScoredPair> pairs;
  double verify_s = 0.0;
  {
    Span s("bayes_lsh.verify");
    const double t0 = NowSeconds();
    pairs = BayesLshVerify(model, &store, cands.pairs, params, &vs);
    verify_s = NowSeconds() - t0;
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const ScoredPair& a, const ScoredPair& b) {
              return a.a != b.a ? a.a < b.a : a.b < b.b;
            });
  report->Attempt();
  if (pairs != reference.pairs) {
    report->Fail("AllPairsCandidates + BayesLshVerify differs from "
                 "RunPipeline");
  }
  const double in = static_cast<double>(vs.pairs_in);
  report->Set("bayes_lsh.verify_s", verify_s, 1, "serial BayesLshVerify");
  report->Set("bayes_lsh.pruned_frac", static_cast<double>(vs.pruned) / in);
  report->Set("bayes_lsh.hashes_per_candidate",
              static_cast<double>(vs.hashes_compared) / in);
  report->Set("bayes_lsh.round1_survivor_frac",
              vs.surviving_after_round.size() > 1
                  ? static_cast<double>(vs.surviving_after_round[1]) /
                        static_cast<double>(vs.surviving_after_round[0])
                  : 1.0);
  report->Set("bayes_lsh.forced_accepts",
              static_cast<double>(vs.forced_accepts));
  const double lookups = static_cast<double>(vs.cache.concentration_hits +
                                             vs.cache.concentration_misses);
  report->Set("inference_cache.hit_rate",
              lookups > 0 ? static_cast<double>(vs.cache.concentration_hits) /
                                lookups
                          : 0.0,
              static_cast<uint64_t>(lookups), "serial verification");

  // Thread-pool speedup: the same join on one thread.
  std::vector<double> one_thread_s;
  for (int i = 0; i < 2; ++i) {
    Span s("core.pipeline.1thread");
    const double t0 = NowSeconds();
    const PipelineResult r = RunPipeline(data, JoinConfig(1));
    one_thread_s.push_back(NowSeconds() - t0);
    report->Attempt();
    if (r.pairs != reference.pairs) {
      report->Fail("1-thread join differs from the 2-thread join");
    }
  }
  report->Set("thread_pool.join_speedup",
              Median(one_thread_s) / Median(phase.latencies_s),
              one_thread_s.size(), "1-thread join time / 2-thread join time");
}

}  // namespace perfbench
