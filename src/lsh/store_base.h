// The explicit contract behind every lazy signature store, plus the
// chunk-hasher indirection that lets one store implementation serve many
// hash families.
//
// The serving stack (core/index_io.h, core/query_search.h,
// core/dynamic_index.h, core/sharded_index.h) was grown against the three
// original stores (SRP bits, minwise ints, b-bit packed), which share an
// implicit lifecycle: lazily grown rows → two-phase parallel growth →
// Freeze() → lock-free serving, with Save/Load/LoadViews/CopyRowsFrom and
// AppendRow riding along. SignatureStoreBase makes that contract explicit so
// the serving layers drive *any* store generically, and WordChunkHasher /
// IntChunkHasher make BitSignatureStore / IntSignatureStore reusable for
// every measure whose signatures are 64-bit words (SRP, KLSH) or fixed-width
// integer runs (minwise, ICWS, p-stable) — LevelDB's pluggable-comparator
// shape: one store interface, N measure backends.
//
// Hashers receive the row id so implementations that cache expensive
// per-row work (KLSH anchor kernel rows) can key it; hashing an external
// vector (a query) passes kNoRow. Hash values must be pure functions of
// (hasher state, vector, chunk) — every determinism and warm-start identity
// guarantee in the serving stack rests on that.

#ifndef BAYESLSH_LSH_STORE_BASE_H_
#define BAYESLSH_LSH_STORE_BASE_H_

#include <cstdint>
#include <iosfwd>
#include <mutex>

#include "lsh/minwise_hasher.h"
#include "lsh/srp_hasher.h"
#include "vec/sparse_vector.h"

namespace bayeslsh {

// Signature-kind tags used by the serialized store sections (docs/FORMATS.md
// §"Signature section"). The tag is the first byte of a section, so a loader
// pointed at the wrong store kind fails immediately instead of
// reinterpreting bits.
enum class SignatureKind : uint8_t {
  kSrpBits = 0,      // BitSignatureStore: packed SRP bits, u64 words.
  kMinwiseInts = 1,  // IntSignatureStore: full-width minwise hashes, u32.
  kBbitPacked = 2,   // BbitSignatureStore: b-bit packed minwise, u64 words.
  kIcwsInts = 3,     // IntSignatureStore: ICWS weighted-Jaccard hashes, u32.
  kPstableInts = 4,  // IntSignatureStore: p-stable buckets, i32 bit-cast u32.
  kKlshBits = 5,     // BitSignatureStore: packed KLSH bits, u64 words.
};

// Row id passed to a chunk hasher when the vector is not a collection row
// (a query), so per-row caches are bypassed.
inline constexpr uint32_t kNoStoreRow = 0xffffffffu;

// Hash family producing one packed 64-bit word (64 sign bits) per chunk.
class WordChunkHasher {
 public:
  virtual ~WordChunkHasher() = default;

  // Hash bits [64*chunk, 64*chunk + 64) of v, hash 64*chunk + j at bit j.
  // `row` is the collection row id backing v, or kNoStoreRow.
  virtual uint64_t HashChunk(const SparseVectorView& v, uint32_t row,
                             uint32_t chunk) const = 0;

  virtual SignatureKind kind() const = 0;
};

// Hash family producing chunk_ints() consecutive u32 values per chunk.
class IntChunkHasher {
 public:
  virtual ~IntChunkHasher() = default;

  // Hashes [chunk_ints()*chunk, chunk_ints()*(chunk+1)) of v into out.
  virtual void HashChunk(const SparseVectorView& v, uint32_t row,
                         uint32_t chunk, uint32_t* out) const = 0;

  // Growth quantum in hash values (16 for minwise/ICWS, 64 for p-stable).
  virtual uint32_t chunk_ints() const = 0;

  virtual SignatureKind kind() const = 0;
};

// The lifecycle contract every signature store implements; what the serving
// layers rely on, spelled out (see the header comment). Measure-specific
// row access (Words/Hashes/MatchAgainstQuery) stays on the concrete types —
// callers that compare signatures know which family they hold.
class SignatureStoreBase {
 public:
  virtual ~SignatureStoreBase() = default;

  virtual SignatureKind kind() const = 0;
  virtual uint32_t num_rows() const = 0;

  // Growth quantum in hash positions (bits for the word stores).
  virtual uint32_t chunk_hashes() const = 0;

  // Hash positions currently held for a row.
  virtual uint32_t HashesHeld(uint32_t row) const = 0;

  // Counted growth of one row / every row to >= n hash positions.
  virtual void EnsureRow(uint32_t row, uint32_t n) = 0;
  virtual void EnsureAll(uint32_t n) = 0;

  // Two-phase parallel growth: uncounted per-row growth (safe concurrently
  // for distinct rows) returning the work done, merged later via
  // AddComputed (zero merges dropped, tally relaxed-atomic).
  virtual uint64_t EnsureRowUncounted(uint32_t row, uint32_t n) = 0;
  virtual void AddComputed(uint64_t n) = 0;

  // The hashing-work tally, in hash positions.
  virtual uint64_t computed() const = 0;

  // cold/lazy → frozen state machine; see lsh/signature_store.h.
  virtual void Freeze() = 0;
  virtual bool frozen() const = 0;
  virtual std::unique_lock<std::mutex> GrowthLock() = 0;

  // LSM delta growth: one empty lazily grown row appended.
  virtual void AppendRow() = 0;

  // Section serialization (docs/FORMATS.md §"Signature section").
  virtual void Save(std::ostream& out, bool align_blob) const = 0;
  virtual void Load(std::istream& in, bool padded) = 0;
  virtual void LoadViews(std::istream& in, const char* mapped_base,
                         size_t mapped_size) = 0;
};

// --- adapters for the original hash families ---

class SrpChunkHasher final : public WordChunkHasher {
 public:
  explicit SrpChunkHasher(SrpHasher srp) : srp_(srp) {}

  uint64_t HashChunk(const SparseVectorView& v, uint32_t /*row*/,
                     uint32_t chunk) const override {
    return srp_.HashChunk(v, chunk);
  }
  SignatureKind kind() const override { return SignatureKind::kSrpBits; }

  const SrpHasher& srp() const { return srp_; }

 private:
  SrpHasher srp_;
};

class MinwiseChunkHasher final : public IntChunkHasher {
 public:
  explicit MinwiseChunkHasher(MinwiseHasher minwise) : minwise_(minwise) {}

  void HashChunk(const SparseVectorView& v, uint32_t /*row*/, uint32_t chunk,
                 uint32_t* out) const override {
    minwise_.HashChunk(v, chunk, out);
  }
  uint32_t chunk_ints() const override { return kMinhashChunkInts; }
  SignatureKind kind() const override { return SignatureKind::kMinwiseInts; }

  const MinwiseHasher& minwise() const { return minwise_; }

 private:
  MinwiseHasher minwise_;
};

}  // namespace bayeslsh

#endif  // BAYESLSH_LSH_STORE_BASE_H_
