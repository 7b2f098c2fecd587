// Hash each query once: the QuerySketch contract across the serving stack
// (core/query_sketch.h), for every measure (plus b-bit Jaccard) at 1 and
// 8 threads.
//
//   - Deterministic hashing counters: Query and QueryTopK hash exactly one
//     sketch's banding chunks per query — ⌈l·k/64⌉ for the bit families,
//     ⌈l·k/chunk_ints⌉ for the int families — on a QuerySearcher, on a
//     DynamicIndex with an empty or a non-empty delta, and on a
//     ShardedIndex at K = 1, 2 and 4. QueryBatch hashes at most one
//     sketch per query per shard. Within one DynamicIndex the base and
//     delta share the sketch, so its verification chunks are grown once.
//   - Identity: Query(sketch) answers exactly as Query(q), at every
//     layer.
//   - Fail closed: a sketch from another hash family (another seed,
//     other KLSH anchors, or an empty sketch) is rejected with
//     std::invalid_argument instead of probing with the wrong bits.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "candgen/lsh_banding.h"
#include "core/dynamic_index.h"
#include "core/index_io.h"
#include "core/query_search.h"
#include "core/sharded_index.h"
#include "data/graph_generator.h"
#include "data/text_generator.h"
#include "euclidean/pstable_hasher.h"
#include "kernel/klsh.h"
#include "lsh/icws_hasher.h"
#include "lsh/minwise_hasher.h"
#include "vec/transforms.h"

namespace bayeslsh {
namespace {

struct SketchCase {
  const char* name;
  Measure measure;
  uint32_t bbit;
  double threshold;  // The radius for kEuclidean.
};

constexpr SketchCase kCases[] = {
    {"cosine", Measure::kCosine, 0, 0.7},
    {"binary_cosine", Measure::kBinaryCosine, 0, 0.6},
    {"jaccard", Measure::kJaccard, 0, 0.5},
    {"jaccard_bbit4", Measure::kJaccard, 4, 0.5},
    {"wjaccard", Measure::kWeightedJaccard, 0, 0.5},
    {"klsh", Measure::kKernelCosine, 0, 0.7},
    {"euclidean", Measure::kEuclidean, 0, 4.0},
};

constexpr uint32_t kBaseRows = 160;
constexpr uint32_t kDeltaRows = 24;
constexpr uint32_t kQueries = 16;

bool BitFamily(Measure m) {
  return m == Measure::kCosine || m == Measure::kBinaryCosine ||
         m == Measure::kKernelCosine;
}

Dataset MakeCorpus(const SketchCase& c, uint64_t seed, uint32_t rows) {
  if (c.measure == Measure::kJaccard || c.measure == Measure::kBinaryCosine) {
    GraphConfig cfg;
    cfg.num_nodes = rows;
    cfg.avg_degree = 16;
    cfg.num_communities = rows / 10;
    cfg.community_size = 4;
    cfg.seed = seed;
    return GenerateGraphAdjacency(cfg);
  }
  TextCorpusConfig cfg;
  cfg.num_docs = rows;
  cfg.vocab_size = 2500;
  cfg.avg_doc_len = 45;
  cfg.num_clusters = rows / 10;
  cfg.cluster_size = 4;
  cfg.seed = seed;
  const Dataset tfidf = TfIdfTransform(GenerateTextCorpus(cfg));
  return c.measure == Measure::kCosine ? L2NormalizeRows(tfidf) : tfidf;
}

IndexBuildConfig BuildConfigFor(const SketchCase& c, uint32_t threads) {
  IndexBuildConfig b;
  b.measure = c.measure;
  b.threshold = c.threshold;
  b.bbit = c.bbit;
  b.seed = 42;
  b.num_threads = threads;
  if (c.measure == Measure::kKernelCosine) {
    b.kernel.tag = KernelTag::kRbf;
    b.kernel.gamma = 0.05;
    b.klsh.num_anchors = 48;
  }
  return b;
}

QuerySearchConfig SearchConfigFor(const SketchCase& c, uint32_t threads) {
  const IndexBuildConfig b = BuildConfigFor(c, threads);
  QuerySearchConfig s;
  s.measure = b.measure;
  s.threshold = b.threshold;
  s.bbit = b.bbit;
  s.seed = b.seed;
  s.num_threads = threads;
  s.kernel = b.kernel;
  s.klsh = b.klsh;
  return s;
}

// One sketch's banding chunks: ⌈l·k/64⌉ for the bit families,
// ⌈l·k/chunk_ints⌉ for the int families, with (l, k) the banding shape
// every index built from the case's config shares.
uint64_t SketchGenChunks(const SketchCase& c) {
  const IndexBuildConfig b = BuildConfigFor(c, 1);
  const BandingShape shape =
      ResolveBandingShape(b.measure, b.threshold, b.banding);
  const uint32_t hashes = shape.num_bands * shape.hashes_per_band;
  uint32_t chunk = kMinhashChunkInts;
  if (BitFamily(c.measure)) chunk = 64;
  if (c.measure == Measure::kWeightedJaccard) chunk = kIcwsChunkInts;
  if (c.measure == Measure::kEuclidean) chunk = kPstableChunkHashes;
  return (hashes + chunk - 1) / chunk;
}

std::vector<std::pair<DimId, float>> Entries(const SparseVectorView& v) {
  std::vector<std::pair<DimId, float>> e;
  for (uint32_t i = 0; i < v.size(); ++i) {
    e.emplace_back(v.indices[i], v.values[i]);
  }
  return e;
}

// The query pool: indexed rows (they match at least themselves) and rows
// the index has never seen.
std::vector<SparseVectorView> QueryViews(const Dataset& corpus,
                                         const Dataset& fresh) {
  std::vector<SparseVectorView> views;
  for (uint32_t i = 0; i < kQueries / 2; ++i) {
    views.push_back(corpus.Row(i * 7 % corpus.num_vectors()));
    views.push_back(fresh.Row(i));
  }
  return views;
}

class QuerySketchServing
    : public ::testing::TestWithParam<std::tuple<SketchCase, uint32_t>> {};

TEST_P(QuerySketchServing, SearcherHashesOneSketchPerQuery) {
  const auto& [c, threads] = GetParam();
  const Dataset corpus = MakeCorpus(c, 11, kBaseRows);
  const Dataset fresh = MakeCorpus(c, 12, kQueries);
  const QuerySearcher searcher(&corpus, SearchConfigFor(c, threads));
  const uint64_t gen = SketchGenChunks(c);
  const std::vector<SparseVectorView> queries = QueryViews(corpus, fresh);

  for (uint32_t qi = 0; qi < queries.size(); ++qi) {
    QueryStats by_query, by_sketch, top;
    const auto want = searcher.Query(queries[qi], &by_query);
    EXPECT_EQ(by_query.query_gen_chunks, gen) << c.name << " q" << qi;
    if (by_query.candidates > 0) {
      EXPECT_GT(by_query.query_verify_chunks, 0u);
    }

    QuerySketch sketch = searcher.Sketch(queries[qi]);
    EXPECT_EQ(sketch.gen_chunks(), gen);
    EXPECT_EQ(sketch.verify_chunks(), 0u);
    EXPECT_EQ(searcher.Query(sketch, &by_sketch), want) << c.name;
    EXPECT_EQ(by_sketch.query_gen_chunks, 0u);  // Hashed by the caller.
    EXPECT_EQ(by_sketch.query_verify_chunks, sketch.verify_chunks());
    EXPECT_EQ(by_sketch.candidates, by_query.candidates);
    EXPECT_EQ(by_sketch.hashes_compared, by_query.hashes_compared);

    // A second serve of the same sketch reuses its verification chunks.
    QueryStats again;
    EXPECT_EQ(searcher.Query(sketch, &again), want);
    EXPECT_EQ(again.query_verify_chunks, 0u);

    const auto top3 = searcher.QueryTopK(queries[qi], 3, &top);
    EXPECT_EQ(top.query_gen_chunks, gen);
    QuerySketch sketch2 = searcher.Sketch(queries[qi]);
    EXPECT_EQ(searcher.QueryTopK(sketch2, 3), top3);
  }

  QueryStats batch_stats;
  const auto batch = searcher.QueryBatch(queries, &batch_stats);
  EXPECT_EQ(batch_stats.query_gen_chunks, gen * queries.size());
  std::vector<QuerySketch> sketches = searcher.SketchBatch(queries);
  ASSERT_EQ(sketches.size(), queries.size());
  QueryStats sketch_batch_stats;
  EXPECT_EQ(searcher.QueryBatch(sketches, &sketch_batch_stats), batch);
  EXPECT_EQ(sketch_batch_stats.query_gen_chunks, 0u);
  EXPECT_EQ(sketch_batch_stats.query_verify_chunks,
            batch_stats.query_verify_chunks);
  for (uint32_t qi = 0; qi < queries.size(); ++qi) {
    EXPECT_EQ(batch[qi], searcher.Query(queries[qi])) << c.name;
  }
}

TEST_P(QuerySketchServing, DynamicIndexSharesOneSketchAcrossSegments) {
  const auto& [c, threads] = GetParam();
  const Dataset corpus = MakeCorpus(c, 11, kBaseRows + kDeltaRows);
  const Dataset fresh = MakeCorpus(c, 12, kQueries);
  const std::vector<SparseVectorView> queries = QueryViews(corpus, fresh);
  for (const bool with_delta : {false, true}) {
    SCOPED_TRACE(std::string(c.name) + (with_delta ? " delta" : " no delta"));
    DatasetBuilder base_rows(corpus.num_dims());
    for (uint32_t r = 0; r < kBaseRows; ++r) {
      base_rows.AddRow(Entries(corpus.Row(r)));
    }
    DynamicIndexConfig dcfg;
    dcfg.num_threads = threads;
    DynamicIndex dyn(PersistentIndex::Build(std::move(base_rows).Build(),
                                            BuildConfigFor(c, threads)),
                     dcfg);
    if (with_delta) {
      for (uint32_t r = kBaseRows; r < kBaseRows + kDeltaRows; ++r) {
        dyn.Add(corpus.Row(r));
      }
    }
    ASSERT_EQ(dyn.num_delta_rows(), with_delta ? kDeltaRows : 0u);
    const uint64_t gen = SketchGenChunks(c);

    for (uint32_t qi = 0; qi < queries.size(); ++qi) {
      QueryStats by_query, by_sketch, top;
      const auto want = dyn.Query(queries[qi], &by_query);
      EXPECT_EQ(by_query.query_gen_chunks, gen) << "q" << qi;

      QuerySketch sketch = dyn.Sketch(queries[qi]);
      EXPECT_EQ(dyn.Query(sketch, &by_sketch), want) << "q" << qi;
      EXPECT_EQ(by_sketch.query_gen_chunks, 0u);
      // Both segments read one sketch: every verification chunk it holds
      // was hashed once, by this call.
      EXPECT_EQ(by_sketch.query_verify_chunks, sketch.verify_chunks());
      EXPECT_EQ(by_query.query_verify_chunks, by_sketch.query_verify_chunks);

      dyn.QueryTopK(queries[qi], 2, &top);
      EXPECT_EQ(top.query_gen_chunks, gen);
    }

    QueryStats batch_stats;
    const auto batch = dyn.QueryBatch(queries, &batch_stats);
    EXPECT_EQ(batch_stats.query_gen_chunks, gen * queries.size());
    for (uint32_t qi = 0; qi < queries.size(); ++qi) {
      EXPECT_EQ(batch[qi], dyn.Query(queries[qi])) << "q" << qi;
    }
  }
}

TEST_P(QuerySketchServing, ShardedIndexHashesOnceOnTheRouter) {
  const auto& [c, threads] = GetParam();
  const Dataset corpus = MakeCorpus(c, 11, kBaseRows + kDeltaRows);
  const Dataset fresh = MakeCorpus(c, 12, kQueries);
  const std::vector<SparseVectorView> queries = QueryViews(corpus, fresh);
  for (const uint32_t shards : {1u, 2u, 4u}) {
    for (const bool with_delta : {false, true}) {
      SCOPED_TRACE(std::string(c.name) + " K=" + std::to_string(shards) +
                   (with_delta ? " delta" : " no delta"));
      DatasetBuilder base_rows(corpus.num_dims());
      for (uint32_t r = 0; r < kBaseRows; ++r) {
        base_rows.AddRow(Entries(corpus.Row(r)));
      }
      ShardedIndexConfig scfg;
      scfg.num_shards = shards;
      scfg.num_threads = threads;
      ShardedIndex sharded(std::move(base_rows).Build(),
                           BuildConfigFor(c, threads), scfg);
      if (with_delta) {
        for (uint32_t r = kBaseRows; r < kBaseRows + kDeltaRows; ++r) {
          sharded.Add(corpus.Row(r));
        }
      }
      const uint64_t gen = SketchGenChunks(c);
      for (uint32_t qi = 0; qi < queries.size(); ++qi) {
        QueryStats by_query, by_sketch, top;
        const auto want = sharded.Query(queries[qi], &by_query);
        EXPECT_EQ(by_query.shards_answered, shards);
        EXPECT_EQ(by_query.query_gen_chunks, gen) << "q" << qi;

        const QuerySketch sketch = sharded.Sketch(queries[qi]);
        EXPECT_EQ(sharded.Query(sketch, &by_sketch), want) << "q" << qi;
        EXPECT_EQ(by_sketch.query_gen_chunks, 0u);
        // The router's sketch is read-only: shards grow their own copies.
        EXPECT_EQ(sketch.verify_chunks(), 0u);
        EXPECT_EQ(by_sketch.query_verify_chunks,
                  by_query.query_verify_chunks);

        sharded.QueryTopK(queries[qi], 2, &top);
        EXPECT_EQ(top.query_gen_chunks, gen);
      }

      QueryStats batch_stats;
      const auto batch = sharded.QueryBatch(queries, &batch_stats);
      EXPECT_LE(batch_stats.query_gen_chunks,
                uint64_t{shards} * queries.size() * gen);
      EXPECT_GE(batch_stats.query_gen_chunks, queries.size() * gen);
      std::vector<QuerySketch> sketches;
      for (const SparseVectorView& q : queries) {
        sketches.push_back(sharded.Sketch(q));
      }
      QueryStats sketch_batch_stats;
      EXPECT_EQ(sharded.QueryBatch(sketches, &sketch_batch_stats), batch);
      EXPECT_EQ(sketch_batch_stats.query_gen_chunks, 0u);
      for (uint32_t qi = 0; qi < queries.size(); ++qi) {
        EXPECT_EQ(batch[qi], sharded.Query(queries[qi])) << "q" << qi;
      }
    }
  }
}

TEST_P(QuerySketchServing, GenChunksMatchTheBandingShape) {
  const auto& [c, threads] = GetParam();
  const Dataset corpus = MakeCorpus(c, 11, kBaseRows);
  const QuerySearcher searcher(&corpus, SearchConfigFor(c, threads));
  const QuerySketch sketch = searcher.Sketch(corpus.Row(0));
  EXPECT_EQ(sketch.gen_chunks(), SketchGenChunks(c));
  // An empty query hashes nothing and matches nothing, but still belongs
  // to the family.
  QuerySketch empty = searcher.Sketch(SparseVectorView{});
  EXPECT_EQ(empty.gen_chunks(), 0u);
  EXPECT_EQ(empty.fingerprint(), sketch.fingerprint());
  QueryStats stats;
  EXPECT_TRUE(searcher.Query(empty, &stats).empty());
  EXPECT_EQ(stats.query_verify_chunks, 0u);
}

TEST_P(QuerySketchServing, ForeignSeedSketchIsRejected) {
  const auto& [c, threads] = GetParam();
  const Dataset corpus = MakeCorpus(c, 11, kBaseRows);
  QuerySearchConfig other_cfg = SearchConfigFor(c, threads);
  other_cfg.seed = 43;
  const QuerySearcher ours(&corpus, SearchConfigFor(c, threads));
  const QuerySearcher other(&corpus, other_cfg);
  QuerySketch foreign = other.Sketch(corpus.Row(0));
  EXPECT_THROW(ours.Query(foreign), std::invalid_argument);
  EXPECT_THROW(ours.QueryTopK(foreign, 1), std::invalid_argument);
  std::vector<QuerySketch> batch = {ours.Sketch(corpus.Row(1)), foreign};
  EXPECT_THROW(ours.QueryBatch(batch), std::invalid_argument);
  QuerySketch unset;
  EXPECT_THROW(ours.Query(unset), std::invalid_argument);

  DynamicIndexConfig dcfg;
  dcfg.num_threads = threads;
  const DynamicIndex dyn(
      PersistentIndex::Build(Dataset(corpus), BuildConfigFor(c, threads)),
      dcfg);
  EXPECT_THROW(dyn.Query(foreign), std::invalid_argument);

  ShardedIndexConfig scfg;
  scfg.num_shards = 2;
  scfg.num_threads = threads;
  const ShardedIndex sharded(Dataset(corpus), BuildConfigFor(c, threads),
                             scfg);
  EXPECT_THROW(sharded.Query(foreign), std::invalid_argument);
  EXPECT_THROW(sharded.QueryTopK(foreign, 1), std::invalid_argument);
  // Rejected at the router: no shard saw it, so no breaker moved.
  for (uint32_t s = 0; s < 2; ++s) {
    EXPECT_EQ(sharded.shard_state(s).consecutive_failures, 0u);
  }
}

std::string CaseName(
    const ::testing::TestParamInfo<std::tuple<SketchCase, uint32_t>>& info) {
  return std::string(std::get<0>(info.param).name) + "_t" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(AllMeasures, QuerySketchServing,
                         ::testing::Combine(::testing::ValuesIn(kCases),
                                            ::testing::Values(1u, 8u)),
                         CaseName);

TEST(QuerySketchKlsh, ForeignAnchorSketchIsRejected) {
  TextCorpusConfig tc;
  tc.num_docs = kBaseRows;
  tc.vocab_size = 2500;
  tc.avg_doc_len = 45;
  tc.num_clusters = kBaseRows / 10;
  tc.cluster_size = 4;
  tc.seed = 11;
  const Dataset corpus = TfIdfTransform(GenerateTextCorpus(tc));
  const SketchCase klsh = kCases[5];
  ASSERT_EQ(klsh.measure, Measure::kKernelCosine);
  QuerySearchConfig a = SearchConfigFor(klsh, 1);
  QuerySearchConfig b = a;
  a.klsh_anchors =
      std::make_shared<const Dataset>(SampleKlshAnchors(corpus, 48, 1));
  b.klsh_anchors =
      std::make_shared<const Dataset>(SampleKlshAnchors(corpus, 48, 2));
  const QuerySearcher with_a(&corpus, a);
  const QuerySearcher with_b(&corpus, b);
  const QuerySearcher with_a_again(&corpus, a);
  QuerySketch sketch = with_b.Sketch(corpus.Row(3));
  EXPECT_THROW(with_a.Query(sketch), std::invalid_argument);
  // Same seed, kernel and anchor rows: the same family.
  QuerySketch ours = with_a_again.Sketch(corpus.Row(3));
  EXPECT_EQ(with_a.Query(ours), with_a.Query(corpus.Row(3)));

  // Another kernel width over the same anchors is another family too.
  QuerySearchConfig c = a;
  c.kernel.gamma = 0.1;
  const QuerySearcher with_c(&corpus, c);
  QuerySketch other_kernel = with_c.Sketch(corpus.Row(3));
  EXPECT_THROW(with_a.Query(other_kernel), std::invalid_argument);
}

}  // namespace
}  // namespace bayeslsh
