// The parallel engine's contract: RunPipeline (and the query/top-k paths
// built on it) produce pair-for-pair identical results for num_threads
// in {1, 2, 8}, across every generator × verifier × measure combination,
// and the hashing tally equals the single-threaded count exactly. The
// level-synchronous verifiers are also checked directly against the
// depth-first engines on every store they serve.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "candgen/allpairs.h"
#include "candgen/multiprobe.h"
#include "candgen/prefix_filter_join.h"
#include "common/thread_pool.h"
#include "core/parallel_verify.h"
#include "core/pipeline.h"
#include "core/query_search.h"
#include "core/topk_search.h"
#include "data/graph_generator.h"
#include "data/text_generator.h"
#include "lsh/gaussian_source.h"
#include "lsh/signature_store.h"
#include "lsh/srp_hasher.h"
#include "vec/transforms.h"

namespace bayeslsh {
namespace {

Dataset TextWeighted(uint64_t seed, uint32_t docs = 600) {
  TextCorpusConfig cfg;
  cfg.num_docs = docs;
  cfg.vocab_size = 3000;
  cfg.avg_doc_len = 50;
  cfg.num_clusters = docs / 12;
  cfg.cluster_size = 4;
  cfg.seed = seed;
  return L2NormalizeRows(TfIdfTransform(GenerateTextCorpus(cfg)));
}

Dataset GraphBinary(uint64_t seed, uint32_t nodes = 600) {
  GraphConfig cfg;
  cfg.num_nodes = nodes;
  cfg.avg_degree = 16;
  cfg.num_communities = nodes / 12;
  cfg.community_size = 4;
  cfg.seed = seed;
  return GenerateGraphAdjacency(cfg);
}

void ExpectIdentical(const PipelineResult& base, const PipelineResult& got,
                     uint32_t threads) {
  ASSERT_EQ(base.pairs.size(), got.pairs.size()) << threads << " threads";
  for (size_t i = 0; i < base.pairs.size(); ++i) {
    EXPECT_EQ(base.pairs[i].a, got.pairs[i].a) << threads << " threads";
    EXPECT_EQ(base.pairs[i].b, got.pairs[i].b) << threads << " threads";
    EXPECT_EQ(base.pairs[i].sim, got.pairs[i].sim)
        << threads << " threads, pair " << i;
  }
  EXPECT_EQ(base.candidates, got.candidates) << threads << " threads";
  EXPECT_EQ(base.raw_candidates, got.raw_candidates) << threads << " threads";
}

struct Combo {
  Measure measure;
  GeneratorKind generator;
  VerifierKind verifier;
  double threshold;
};

class PipelineThreadDeterminismTest : public ::testing::TestWithParam<Combo> {
};

TEST_P(PipelineThreadDeterminismTest, IdenticalAcrossThreadCounts) {
  const Combo c = GetParam();
  const Dataset data = c.measure == Measure::kCosine ? TextWeighted(21, 700)
                                                     : GraphBinary(21, 700);
  PipelineConfig cfg;
  cfg.measure = c.measure;
  cfg.generator = c.generator;
  cfg.verifier = c.verifier;
  cfg.threshold = c.threshold;
  cfg.seed = 42;

  cfg.num_threads = 1;
  const PipelineResult base = RunPipeline(data, cfg);
  for (uint32_t threads : {2u, 8u}) {
    cfg.num_threads = threads;
    const PipelineResult got = RunPipeline(data, cfg);
    ExpectIdentical(base, got, threads);
    // Generation hashing is row-complete in both modes: identical tallies.
    EXPECT_EQ(base.gen_hashes_computed, got.gen_hashes_computed);
    // Verification grows each row to exactly the chunk the depth-first
    // engine's lazy growth reaches: identical tallies.
    EXPECT_EQ(base.verify_hashes_computed, got.verify_hashes_computed)
        << threads << " threads";
    // The Fig. 4 survival curve is a per-pair property: identical.
    EXPECT_EQ(base.vstats.surviving_after_round,
              got.vstats.surviving_after_round);
    EXPECT_EQ(base.vstats.accepted, got.vstats.accepted);
    EXPECT_EQ(base.vstats.pruned, got.vstats.pruned);
    EXPECT_EQ(base.vstats.forced_accepts, got.vstats.forced_accepts);
    EXPECT_EQ(base.vstats.exact_computed, got.vstats.exact_computed);
    EXPECT_EQ(base.vstats.hashes_compared, got.vstats.hashes_compared);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, PipelineThreadDeterminismTest,
    ::testing::Values(
        // Cosine (weighted text).
        Combo{Measure::kCosine, GeneratorKind::kAllPairs,
              VerifierKind::kExact, 0.6},
        Combo{Measure::kCosine, GeneratorKind::kAllPairs, VerifierKind::kMle,
              0.6},
        Combo{Measure::kCosine, GeneratorKind::kAllPairs,
              VerifierKind::kBayesLsh, 0.6},
        Combo{Measure::kCosine, GeneratorKind::kAllPairs,
              VerifierKind::kBayesLshLite, 0.6},
        Combo{Measure::kCosine, GeneratorKind::kLsh, VerifierKind::kExact,
              0.7},
        Combo{Measure::kCosine, GeneratorKind::kLsh, VerifierKind::kMle, 0.7},
        Combo{Measure::kCosine, GeneratorKind::kLsh, VerifierKind::kBayesLsh,
              0.7},
        Combo{Measure::kCosine, GeneratorKind::kLsh,
              VerifierKind::kBayesLshLite, 0.7},
        // Jaccard (binary graph).
        Combo{Measure::kJaccard, GeneratorKind::kAllPairs,
              VerifierKind::kExact, 0.4},
        Combo{Measure::kJaccard, GeneratorKind::kAllPairs, VerifierKind::kMle,
              0.4},
        Combo{Measure::kJaccard, GeneratorKind::kAllPairs,
              VerifierKind::kBayesLsh, 0.4},
        Combo{Measure::kJaccard, GeneratorKind::kAllPairs,
              VerifierKind::kBayesLshLite, 0.4},
        Combo{Measure::kJaccard, GeneratorKind::kLsh, VerifierKind::kExact,
              0.5},
        Combo{Measure::kJaccard, GeneratorKind::kLsh, VerifierKind::kMle,
              0.5},
        Combo{Measure::kJaccard, GeneratorKind::kLsh, VerifierKind::kBayesLsh,
              0.5},
        Combo{Measure::kJaccard, GeneratorKind::kLsh,
              VerifierKind::kBayesLshLite, 0.5},
        // Binary cosine (binary graph, weighted view internally).
        Combo{Measure::kBinaryCosine, GeneratorKind::kAllPairs,
              VerifierKind::kExact, 0.6},
        Combo{Measure::kBinaryCosine, GeneratorKind::kAllPairs,
              VerifierKind::kMle, 0.6},
        Combo{Measure::kBinaryCosine, GeneratorKind::kAllPairs,
              VerifierKind::kBayesLsh, 0.6},
        Combo{Measure::kBinaryCosine, GeneratorKind::kAllPairs,
              VerifierKind::kBayesLshLite, 0.6},
        Combo{Measure::kBinaryCosine, GeneratorKind::kLsh,
              VerifierKind::kExact, 0.7},
        Combo{Measure::kBinaryCosine, GeneratorKind::kLsh, VerifierKind::kMle,
              0.7},
        Combo{Measure::kBinaryCosine, GeneratorKind::kLsh,
              VerifierKind::kBayesLsh, 0.7},
        Combo{Measure::kBinaryCosine, GeneratorKind::kLsh,
              VerifierKind::kBayesLshLite, 0.7}));

TEST(PipelineThreadShardingTest, LargeCandidateListExercisesShardedVerify) {
  // A low threshold guarantees enough candidates that the verification
  // actually shards at 8 threads (>= kMinPairsPerShard per worker) rather
  // than falling back to the sequential engine.
  const Dataset data = TextWeighted(22, 900);
  PipelineConfig cfg;
  cfg.measure = Measure::kCosine;
  cfg.generator = GeneratorKind::kAllPairs;
  cfg.verifier = VerifierKind::kBayesLsh;
  cfg.threshold = 0.4;
  cfg.seed = 7;

  cfg.num_threads = 1;
  const PipelineResult base = RunPipeline(data, cfg);
  ASSERT_GE(base.candidates, 64u * 8u)
      << "dataset too sparse to exercise the sharded path";
  cfg.num_threads = 8;
  const PipelineResult got = RunPipeline(data, cfg);
  ExpectIdentical(base, got, 8);
  EXPECT_EQ(got.threads_used, 8u);
  EXPECT_EQ(base.threads_used, 1u);
}

// --- the level-synchronous verifiers against the depth-first engines ---

struct VerifyOutcome {
  std::vector<ScoredPair> pairs;
  VerifyStats stats;
  uint64_t hashed = 0;
};

void ExpectSameOutcome(const VerifyOutcome& base, const VerifyOutcome& got,
                       uint32_t threads) {
  ASSERT_EQ(base.pairs.size(), got.pairs.size()) << threads << " threads";
  for (size_t i = 0; i < base.pairs.size(); ++i) {
    EXPECT_EQ(base.pairs[i].a, got.pairs[i].a) << threads << " threads";
    EXPECT_EQ(base.pairs[i].b, got.pairs[i].b) << threads << " threads";
    EXPECT_EQ(base.pairs[i].sim, got.pairs[i].sim)
        << threads << " threads, pair " << i;
  }
  EXPECT_EQ(base.stats.pairs_in, got.stats.pairs_in);
  EXPECT_EQ(base.stats.accepted, got.stats.accepted);
  EXPECT_EQ(base.stats.pruned, got.stats.pruned);
  EXPECT_EQ(base.stats.forced_accepts, got.stats.forced_accepts);
  EXPECT_EQ(base.stats.exact_computed, got.stats.exact_computed);
  EXPECT_EQ(base.stats.hashes_compared, got.stats.hashes_compared);
  EXPECT_EQ(base.stats.surviving_after_round,
            got.stats.surviving_after_round);
  EXPECT_EQ(base.hashed, got.hashed) << threads << " threads";
}

// Candidates sorted by exact similarity, highest first: every pair that
// survives past the first rounds sits in the first worker's share, the
// shape that starved the other workers under contiguous sharding.
std::vector<std::pair<uint32_t, uint32_t>> SkewedCandidates(
    const Dataset& data, const CandidateList& list, Measure measure) {
  std::vector<double> sim(list.pairs.size());
  for (size_t i = 0; i < list.pairs.size(); ++i) {
    sim[i] = ExactSimilarity(data, list.pairs[i].first,
                             list.pairs[i].second, measure);
  }
  std::vector<size_t> order(list.pairs.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t x, size_t y) { return sim[x] > sim[y]; });
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  pairs.reserve(order.size());
  for (const size_t i : order) pairs.push_back(list.pairs[i]);
  return pairs;
}

// Runs BayesLSH and BayesLSH-Lite depth-first and level-synchronously at
// 2 and 8 threads, for the default budget and for a tight one that is not
// a whole number of chunks (forced accepts, capped last level), and
// expects identical outcomes. make_store() returns a fresh store.
template <typename Model, typename MakeStore>
void ExpectLevelSyncMatchesDepthFirst(
    const Model& model, const MakeStore& make_store, const Dataset& data,
    Measure measure, double threshold,
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs) {
  ASSERT_GE(pairs.size(), kMinPairsPerShard * 8)
      << "too few candidates to run the parallel driver at 8 threads";
  const auto exact = [&](uint32_t a, uint32_t b) {
    return ExactSimilarity(data, a, b, measure);
  };
  BayesLshParams tight;
  tight.max_hashes = 96;
  uint64_t forced = 0;
  for (const BayesLshParams& params : {BayesLshParams{}, tight}) {
    const uint32_t lite_budget = std::min<uint32_t>(params.max_hashes, 128);
    VerifyOutcome bayes, lite;
    {
      auto store = make_store();
      bayes.pairs =
          BayesLshVerify(model, store.get(), pairs, params, &bayes.stats);
      bayes.hashed = store->computed();
    }
    {
      auto store = make_store();
      lite.pairs = BayesLshLiteVerify(model, store.get(), pairs, lite_budget,
                                      exact, threshold, params, &lite.stats);
      lite.hashed = store->computed();
    }
    forced += bayes.stats.forced_accepts;
    EXPECT_GT(bayes.stats.accepted, 0u);
    EXPECT_GT(lite.stats.exact_computed, 0u);
    for (uint32_t threads : {2u, 8u}) {
      ThreadPool pool(threads);
      VerifyOutcome got;
      auto store = make_store();
      got.pairs = BayesLshVerifyParallel(model, store.get(), pairs, params,
                                         &pool, &got.stats);
      got.hashed = store->computed();
      ExpectSameOutcome(bayes, got, threads);

      VerifyOutcome got_lite;
      auto lite_store = make_store();
      got_lite.pairs = BayesLshLiteVerifyParallel(
          model, lite_store.get(), pairs, lite_budget, exact, threshold,
          params, &pool, &got_lite.stats);
      got_lite.hashed = lite_store->computed();
      ExpectSameOutcome(lite, got_lite, threads);
    }
  }
  EXPECT_GT(forced, 0u) << "the tight budget never forced an accept";
}

TEST(LevelSyncThreadDeterminismTest, CosineBitStore) {
  const Dataset data = TextWeighted(27, 700);
  const auto pairs = SkewedCandidates(
      data, AllPairsCandidates(data, 0.4), Measure::kCosine);
  const auto gauss = std::make_shared<ImplicitGaussianSource>(uint64_t{5});
  ExpectLevelSyncMatchesDepthFirst(
      CosinePosterior(0.6),
      [&] {
        return std::make_unique<BitSignatureStore>(&data,
                                                   SrpHasher(gauss.get()));
      },
      data, Measure::kCosine, 0.6, pairs);
}

TEST(LevelSyncThreadDeterminismTest, JaccardIntStoreRoundSpansTwoChunks) {
  const Dataset data = GraphBinary(28, 700);
  const auto pairs = SkewedCandidates(
      data, PrefixFilterCandidates(data, 0.2, Measure::kJaccard),
      Measure::kJaccard);
  ASSERT_LT(IntSignatureStore::kChunkHashes, BayesLshParams{}.hashes_per_round)
      << "a round should span more than one minwise chunk";
  ExpectLevelSyncMatchesDepthFirst(
      JaccardPosterior(0.4),
      [&] {
        return std::make_unique<IntSignatureStore>(&data, MinwiseHasher(9));
      },
      data, Measure::kJaccard, 0.4, pairs);
}

TEST(LevelSyncThreadDeterminismTest, JaccardBbitStore) {
  const Dataset data = GraphBinary(29, 700);
  const auto pairs = SkewedCandidates(
      data, PrefixFilterCandidates(data, 0.2, Measure::kJaccard),
      Measure::kJaccard);
  constexpr uint32_t kBits = 2;
  ExpectLevelSyncMatchesDepthFirst(
      BbitMinwisePosterior(0.4, kBits),
      [&] {
        return std::make_unique<BbitSignatureStore>(&data, MinwiseHasher(11),
                                                    kBits);
      },
      data, Measure::kJaccard, 0.4, pairs);
}

TEST(TopKThreadDeterminismTest, IdenticalAcrossThreadCounts) {
  const Dataset data = TextWeighted(23, 500);
  TopKConfig cfg;
  cfg.measure = Measure::kCosine;
  cfg.generator = GeneratorKind::kAllPairs;
  cfg.k = 25;
  cfg.start_threshold = 0.9;
  cfg.floor_threshold = 0.3;
  cfg.seed = 11;

  cfg.num_threads = 1;
  const auto base = TopKAllPairs(data, cfg);
  for (uint32_t threads : {2u, 8u}) {
    cfg.num_threads = threads;
    const auto got = TopKAllPairs(data, cfg);
    ASSERT_EQ(base.size(), got.size()) << threads << " threads";
    for (size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(base[i].a, got[i].a);
      EXPECT_EQ(base[i].b, got[i].b);
      EXPECT_EQ(base[i].sim, got[i].sim);
    }
  }
}

TEST(QuerySearchThreadDeterminismTest, IdenticalAcrossThreadCounts) {
  const Dataset data = TextWeighted(24, 600);
  QuerySearchConfig cfg;
  cfg.measure = Measure::kCosine;
  cfg.threshold = 0.5;
  cfg.seed = 13;

  cfg.num_threads = 1;
  const QuerySearcher serial(&data, cfg);
  cfg.num_threads = 4;
  const QuerySearcher parallel(&data, cfg);

  for (uint32_t row = 0; row < 40; ++row) {
    QueryStats s1, s4;
    const auto r1 = serial.Query(data.Row(row), &s1);
    const auto r4 = parallel.Query(data.Row(row), &s4);
    ASSERT_EQ(r1.size(), r4.size()) << "query row " << row;
    for (size_t i = 0; i < r1.size(); ++i) {
      EXPECT_EQ(r1[i].id, r4[i].id) << "query row " << row;
      EXPECT_EQ(r1[i].sim, r4[i].sim) << "query row " << row;
    }
    EXPECT_EQ(s1.candidates, s4.candidates) << "query row " << row;
  }
}

TEST(MultiProbeThreadDeterminismTest, IdenticalAcrossThreadCounts) {
  // Multi-probe generation shards band-by-band; the candidate list (and
  // the raw pre-dedup tally) must be bit-identical between the inline run
  // and an 8-thread pool.
  const Dataset data = TextWeighted(26, 500);
  const auto gauss = std::make_shared<ImplicitGaussianSource>(uint64_t{31});
  MultiProbeParams mp;
  mp.probe_radius = 1;
  mp.num_bands = 16;

  BitSignatureStore serial_store(&data, SrpHasher(gauss.get()));
  const CandidateList base =
      MultiProbeCosineCandidates(&serial_store, 0.6, mp);
  ASSERT_GT(base.pairs.size(), 0u) << "workload generated no candidates";

  for (uint32_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    BitSignatureStore store(&data, SrpHasher(gauss.get()));
    const CandidateList got =
        MultiProbeCosineCandidates(&store, 0.6, mp, &pool);
    ASSERT_EQ(base.pairs.size(), got.pairs.size()) << threads << " threads";
    for (size_t i = 0; i < base.pairs.size(); ++i) {
      EXPECT_EQ(base.pairs[i], got.pairs[i]) << threads << " threads";
    }
    EXPECT_EQ(base.raw_emitted, got.raw_emitted) << threads << " threads";
  }
}

TEST(QuerySearchThreadDeterminismTest, JaccardExactVerification) {
  const Dataset data = GraphBinary(25, 600);
  QuerySearchConfig cfg;
  cfg.measure = Measure::kJaccard;
  cfg.threshold = 0.4;
  cfg.exact_verification = true;
  cfg.seed = 17;

  cfg.num_threads = 1;
  const QuerySearcher serial(&data, cfg);
  cfg.num_threads = 4;
  const QuerySearcher parallel(&data, cfg);

  for (uint32_t row = 0; row < 40; ++row) {
    const auto r1 = serial.Query(data.Row(row));
    const auto r4 = parallel.Query(data.Row(row));
    ASSERT_EQ(r1.size(), r4.size()) << "query row " << row;
    for (size_t i = 0; i < r1.size(); ++i) {
      EXPECT_EQ(r1[i].id, r4[i].id);
      EXPECT_EQ(r1[i].sim, r4[i].sim);
    }
  }
}

}  // namespace
}  // namespace bayeslsh
