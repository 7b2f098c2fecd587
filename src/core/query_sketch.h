// Query sketch: everything the serving stack hashes from one query, hashed
// once.
//
// A BayesLSH query is hashed by two families derived from the master seed
// (core/pipeline.h, GenerationSeed / VerificationSeed): the generation
// family, whose l·k banding hashes pick the LSH buckets to probe, and the
// verification family, whose hashes the posterior rounds compare against
// candidate signatures — a few dozen for most candidates, up to the
// per-candidate budget for the rest. A QuerySketch holds both for one
// query:
//
//   - the generation hashes, computed eagerly when the sketch is made:
//     ⌈l·k/64⌉ packed words for the bit families (SRP, KLSH), ⌈l·k /
//     chunk_ints⌉ chunks for the int families (minwise, ICWS, p-stable);
//   - the verification hashes, grown lazily chunk by chunk as rounds ask
//     for them, and kept for every later reader of the same sketch;
//   - for KLSH, the query's anchor kernel row: both families hash from it
//     (they share the anchors; only their seeds differ), so its p kernel
//     evaluations are paid once.
//
// The sketch is the one place a query is hashed. Every serving layer
// accepts a prebuilt sketch, so a query is hashed once however many
// segments and shards answer it: ShardedIndex hashes on the router thread
// and hands each shard a copy, and a DynamicIndex passes its sketch to
// its base and then its delta searcher (docs/ARCHITECTURE.md, "Freeze &
// serve").
//
// Copies share the immutable part (the query, its generation hashes and
// anchor kernel row) and copy the verification hashes grown so far.
// Growing verification hashes mutates the sketch: one sketch object is
// grown by one thread at a time, while any number of threads may read
// (and copy) a sketch nobody grows.
//
// A sketch carries the fingerprint of the family that hashed it; a
// searcher rejects a sketch from any other family with
// std::invalid_argument instead of probing its buckets with the wrong
// bits (see SketchFamily::fingerprint).

#ifndef BAYESLSH_CORE_QUERY_SKETCH_H_
#define BAYESLSH_CORE_QUERY_SKETCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "kernel/kernels.h"
#include "kernel/klsh.h"
#include "lsh/gaussian_source.h"
#include "lsh/store_base.h"
#include "vec/sparse_vector.h"

namespace bayeslsh {

// The two hash families of one serving configuration. A QuerySearcher
// builds one at construction and every sketch it makes shares it;
// immutable afterwards.
struct SketchFamily {
  uint32_t num_bands = 0;        // l
  uint32_t hashes_per_band = 0;  // k
  // Jaccard b-bit verification width (0 = full-width hashes): the
  // verification ints are full-width minwise hashes whose low bbit bits
  // are packed into words, the layout the b-bit store compares.
  uint32_t bbit = 0;

  // Mix64 over everything the hash values depend on: measure, seed,
  // banding shape, b-bit width, the p-stable bucket width, and for KLSH
  // the kernel spec, the family shape and the anchor rows. Two families
  // with equal fingerprints hash every query identically.
  uint64_t fingerprint = 0;

  // What the hashers below point into, owned here so a sketch stays
  // usable after the searcher that made it is gone (a compaction may
  // replace a segment's searcher while its sketches are in flight): the
  // SRP Gaussian streams and the KLSH kernel.
  std::shared_ptr<const GaussianSource> gen_gauss;
  std::shared_ptr<const GaussianSource> verify_gauss;
  std::shared_ptr<const Kernel> kernel;

  // Generation (banding) family: exactly one engaged.
  std::shared_ptr<const WordChunkHasher> gen_bits;
  std::shared_ptr<const IntChunkHasher> gen_ints;
  // Verification family: exactly one engaged.
  std::shared_ptr<const WordChunkHasher> verify_bits;
  std::shared_ptr<const IntChunkHasher> verify_ints;
  // KLSH only: the two families' hashers over one anchor set. A sketch
  // computes the query's anchor kernel row once and hashes both families
  // from it.
  std::shared_ptr<const KlshHasher> gen_klsh;
  std::shared_ptr<const KlshHasher> verify_klsh;
};

class QuerySketch {
 public:
  // An empty sketch: it belongs to no family, so every searcher rejects
  // it. Assign a built sketch to use it.
  QuerySketch() = default;

  // Copies q and hashes its generation chunks (and, for KLSH, its anchor
  // kernel row). An empty q hashes nothing: searchers answer it with no
  // matches.
  QuerySketch(std::shared_ptr<const SketchFamily> family,
              const SparseVectorView& q);

  // The query, owned by the sketch (valid while any copy of it lives).
  SparseVectorView query() const;

  // The fingerprint of the hashing family; 0 for an empty sketch.
  uint64_t fingerprint() const;

  // Generation hashes: packed words (bit families) or chunk_ints-sized
  // int chunks (int families); the other kind is empty.
  const std::vector<uint64_t>& gen_words() const;
  const std::vector<uint32_t>& gen_ints() const;

  // Chunks hashed from the query so far, per family: the generation
  // chunks are fixed at construction; the verification chunks grow.
  uint32_t gen_chunks() const;
  uint32_t verify_chunks() const;

  // The first n verification hashes, growing them as needed. Bit
  // families pack one bit per hash; b-bit Jaccard packs bbit bits per
  // hash in the b-bit store's group layout (lsh/bbit_minwise.h). The
  // pointer is valid until the next call that grows this sketch.
  const uint64_t* VerifyWords(uint32_t n_hashes);
  // Int families (full-width minwise, ICWS, p-stable).
  const uint32_t* VerifyInts(uint32_t n_hashes);

 private:
  struct Fixed;
  std::shared_ptr<const Fixed> fixed_;
  std::vector<uint64_t> verify_words_;
  std::vector<uint32_t> verify_ints_;
};

}  // namespace bayeslsh

#endif  // BAYESLSH_CORE_QUERY_SKETCH_H_
