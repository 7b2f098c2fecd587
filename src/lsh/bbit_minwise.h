// b-bit minwise hashing for Jaccard similarity (Li & König, WWW'10 —
// reference [15] of the paper).
//
// Instead of storing each minhash as a 32-bit integer, only its lowest b
// bits are kept. Two b-bit values collide when the underlying minhashes
// collide (probability J, the Jaccard similarity) or when they differ but
// their low b bits happen to agree (probability 2^-b for a counter-based
// hash over a large universe). The per-hash collision probability is thus
//
//     Pr[collision] = c + (1 - c) J,   c = 2^-b,
//
// an affine "noise floor" on top of the plain minwise model. (Li & König's
// exact C also carries O(|x|/D) set-size corrections, which vanish for the
// sparse, high-dimensional data this library targets; DESIGN.md records the
// substitution.) BayesLSH accommodates the changed likelihood with a new
// posterior model (core/bbit_posterior.h) — nothing in the engine changes,
// which is exactly the paper's portability claim.
//
// The payoff is storage and comparison speed: a b = 2 signature packs 32
// hashes into one word, so a round of k = 32 hash comparisons is a single
// XOR + fold + popcount instead of 32 integer compares. The price is
// information per hash, quantified by the posterior's wider spread; the
// ablation bench (bench/ablation_bbit_minwise.cc) measures the trade.

#ifndef BAYESLSH_LSH_BBIT_MINWISE_H_
#define BAYESLSH_LSH_BBIT_MINWISE_H_

#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <utility>
#include <vector>

#include "common/simd_ops.h"
#include "lsh/minwise_hasher.h"
#include "lsh/store_base.h"
#include "vec/dataset.h"

namespace bayeslsh {

// True iff b is a supported signature width: a power of two in [1, 32].
// (64 is excluded: a 64-bit "b-bit" hash is just the full hash and would
// need none of this machinery.)
inline constexpr bool IsValidBbitWidth(uint32_t b) {
  return b >= 1 && b <= 32 && std::has_single_bit(b);
}

// Mask with the lowest bit of every b-bit group set, e.g. 0x1111... for
// b = 4. Requires IsValidBbitWidth(b).
inline constexpr uint64_t BbitGroupLsbMask(uint32_t b) {
  uint64_t mask = 0;
  for (uint32_t g = 0; g < 64 / b; ++g) mask |= 1ULL << (g * b);
  return mask;
}

// Packs the low b bits of full-width minwise hashes into the packed layout
// described above: hashes[i - from] becomes group i for i in [from, n),
// ORed into `words` (which must be sized for n values and zero where the
// new groups land). `from` must be a multiple of kMinhashChunkInts. Used
// both by the store's own growth and to pack externally hashed query
// signatures so MatchingBbitGroups can compare a query against stored
// rows.
void PackBbitValues(const uint32_t* hashes, uint32_t from, uint32_t n,
                    uint32_t bits_per_hash, uint64_t* words);

// Number of b-bit groups in [from, to) that agree between the packed
// sequences `a` and `b`. Group j of a sequence occupies bits
// [b*(j % vpw), b*(j % vpw + 1)) of word j / vpw with vpw = 64 / b values
// per word. Requires from <= to and both arrays to cover group to - 1.
//
// Word-parallel: the diff word's bits are OR-folded into each group's
// lowest bit (shifts of b/2, b/4, ..., 1 stay within a group's reach), so
// one popcount counts the disagreeing groups of a whole word. Partial
// head/tail words are masked here; the run of full words in the middle
// goes through simd::MatchingBbitGroupsWords (AVX2 when available, the
// scalar fold loop otherwise).
inline uint32_t MatchingBbitGroups(const uint64_t* a, const uint64_t* b,
                                   uint32_t from, uint32_t to,
                                   uint32_t bits_per_hash) {
  assert(from <= to && IsValidBbitWidth(bits_per_hash));
  if (from == to) return 0;
  const uint32_t vpw = 64 / bits_per_hash;
  const uint64_t lsb_mask = BbitGroupLsbMask(bits_per_hash);
  const uint32_t first_word = from / vpw;
  const uint32_t last_word = (to - 1) / vpw;
  const uint32_t head_off = from % vpw;
  const uint32_t tail_off = to % vpw;  // 0 means the last word is full.
  // Matching groups [glo, ghi) of word w.
  const auto partial = [&](uint32_t w, uint32_t glo, uint32_t ghi) {
    uint64_t diff = a[w] ^ b[w];
    for (uint32_t s = bits_per_hash >> 1; s >= 1; s >>= 1) diff |= diff >> s;
    uint64_t mask = lsb_mask;
    if (glo > 0) mask &= ~0ULL << (glo * bits_per_hash);
    if (ghi < vpw) mask &= (1ULL << (ghi * bits_per_hash)) - 1;
    return (ghi - glo) - static_cast<uint32_t>(std::popcount(diff & mask));
  };
  if (first_word == last_word && (head_off != 0 || tail_off != 0)) {
    return partial(first_word, head_off, tail_off == 0 ? vpw : tail_off);
  }
  uint32_t matches = 0;
  uint32_t w = first_word;
  if (head_off != 0) {
    matches += partial(w, head_off, vpw);
    ++w;
  }
  const uint32_t full_end = tail_off == 0 ? last_word + 1 : last_word;
  matches += simd::MatchingBbitGroupsWords(a + w, b + w, full_end - w,
                                           bits_per_hash, lsb_mask);
  if (tail_off != 0) matches += partial(last_word, 0, tail_off);
  return matches;
}

// Lazy, chunk-grown store of b-bit minwise signatures; the b-bit analogue
// of IntSignatureStore, satisfying the same MatchCount contract consumed by
// the BayesLSH engines. Signatures grow in chunks of 64 hash values
// (= 4 minwise chunks = b words), so a pair pruned after 64 hashes costs
// each endpoint exactly one growth step.
class BbitSignatureStore final : public SignatureStoreBase {
 public:
  // Growth quantum in hash values.
  static constexpr uint32_t kChunkHashes = 64;

  // Both referents must outlive the store. Requires
  // IsValidBbitWidth(bits_per_hash).
  BbitSignatureStore(const Dataset* data, MinwiseHasher hasher,
                     uint32_t bits_per_hash);

  uint32_t num_rows() const override {
    return static_cast<uint32_t>(words_.size());
  }
  uint32_t bits_per_hash() const { return bits_per_hash_; }

  // Grows row's signature to at least n hashes (rounded up to chunks).
  void EnsureHashes(uint32_t row, uint32_t n_hashes);

  // EnsureHashes without touching the shared hashes_computed() tally;
  // returns the underlying minwise hashes newly computed. Safe to call
  // concurrently for distinct rows (the two-phase growth protocol of
  // lsh/signature_store.h); merge the returned work with
  // AddHashesComputed() after the join (zero merges are dropped and the
  // tally is a relaxed atomic, as for the full-width stores).
  uint64_t EnsureHashesUncounted(uint32_t row, uint32_t n_hashes);
  void AddHashesComputed(uint64_t n) {
    if (n != 0) hashes_computed_.fetch_add(n, std::memory_order_relaxed);
  }

  // Frozen-state serving; see the BitSignatureStore counterparts in
  // lsh/signature_store.h. The query signature is in the same packed
  // group layout as the stored rows (PackBbitValues output).
  void Freeze() override { frozen_.store(true, std::memory_order_release); }
  bool frozen() const override {
    return frozen_.load(std::memory_order_acquire);
  }
  uint32_t MatchAgainstQuery(uint32_t row, const uint64_t* query_words,
                             uint32_t from, uint32_t to);
  std::unique_lock<std::mutex> GrowthLock() override {
    if (frozen()) return {};
    return std::unique_lock<std::mutex>(growth_mu_);
  }

  // See BitSignatureStore::AppendRow (lsh/signature_store.h).
  void AppendRow() override {
    assert(!frozen());
    std::lock_guard<std::mutex> lock(growth_mu_);
    words_.emplace_back();
    if (!views_.empty()) views_.emplace_back(nullptr, 0);
  }

  // Grows every row to at least n hashes.
  void EnsureAllHashes(uint32_t n_hashes);

  // Packed words of a row (group layout as for MatchingBbitGroups).
  const uint64_t* Words(uint32_t row) const {
    if (!views_.empty() &&
        views_[row].second > static_cast<uint32_t>(words_[row].size())) {
      return views_[row].first;
    }
    return words_[row].data();
  }

  // Hashes currently materialized for a row.
  uint32_t NumHashes(uint32_t row) const {
    return HeldWords(row) * values_per_word_;
  }

  // The b-bit value of hash j for a row (test/debug access).
  uint32_t HashValue(uint32_t row, uint32_t j) const;

  // Number of hash positions in [from, to) where rows a and b agree,
  // growing both signatures as needed. On a frozen store this takes the
  // lock-free read-only fast path (both rows must already cover `to`).
  uint32_t MatchCount(uint32_t a, uint32_t b, uint32_t from, uint32_t to);

  // Read-only MatchCount: requires both rows already grown to `to` hashes.
  // Safe to call concurrently while no thread is growing the store.
  uint32_t MatchCountReadOnly(uint32_t a, uint32_t b, uint32_t from,
                              uint32_t to) const {
    assert(NumHashes(a) >= to && NumHashes(b) >= to);
    return MatchingBbitGroups(Words(a), Words(b), from, to, bits_per_hash_);
  }

  // See BitSignatureStore::AdoptWords (lsh/signature_store.h): replaces
  // row's packed signature with a longer already-computed copy without
  // touching the hashes_computed() tally — the source store accounted the
  // work when it grew them. The words must come from a store with the
  // same (hasher seed, bits_per_hash) over identical row content.
  void AdoptWords(uint32_t row, std::vector<uint64_t>&& words) {
    if (words.size() > HeldWords(row)) {
      assert(!frozen());
      words_[row] = std::move(words);
    }
  }

  // Total underlying minwise hashes computed so far (instrumentation,
  // safe to read from any thread; the b-bit truncation does not reduce
  // hashing work, only storage).
  uint64_t hashes_computed() const {
    return hashes_computed_.load(std::memory_order_relaxed);
  }

  // Bytes of signature storage currently held across all rows.
  uint64_t signature_bytes() const;

  // Serialization + warm start; see the BitSignatureStore counterparts in
  // lsh/signature_store.h. The section kind is SignatureKind::kBbitPacked
  // and records bits_per_hash, so a loader with a different width fails.
  void Save(std::ostream& out, bool align_blob = false) const override;
  void Load(std::istream& in, bool padded = false) override;
  void LoadViews(std::istream& in, const char* mapped_base,
                 size_t mapped_size) override;
  void CopyRowsFrom(const BbitSignatureStore& other);

  const Dataset* data() const { return data_; }

  // SignatureStoreBase contract (lsh/store_base.h): the generic names
  // forward to the b-bit-specific ones above.
  SignatureKind kind() const override { return SignatureKind::kBbitPacked; }
  uint32_t chunk_hashes() const override { return kChunkHashes; }
  uint32_t HashesHeld(uint32_t row) const override { return NumHashes(row); }
  void EnsureRow(uint32_t row, uint32_t n) override { EnsureHashes(row, n); }
  void EnsureAll(uint32_t n) override { EnsureAllHashes(n); }
  uint64_t EnsureRowUncounted(uint32_t row, uint32_t n) override {
    return EnsureHashesUncounted(row, n);
  }
  void AddComputed(uint64_t n) override { AddHashesComputed(n); }
  uint64_t computed() const override { return hashes_computed(); }

 private:
  // See BitSignatureStore::HeldWords (lsh/signature_store.h).
  uint32_t HeldWords(uint32_t row) const {
    const auto own = static_cast<uint32_t>(words_[row].size());
    if (views_.empty()) return own;
    return views_[row].second > own ? views_[row].second : own;
  }

  const Dataset* data_;
  MinwiseHasher hasher_;
  uint32_t bits_per_hash_;
  uint32_t values_per_word_;
  std::vector<std::vector<uint64_t>> words_;
  // Zero-copy row views (LoadViews); see BitSignatureStore::views_.
  std::vector<std::pair<const uint64_t*, uint32_t>> views_;
  std::atomic<uint64_t> hashes_computed_{0};
  std::atomic<bool> frozen_{false};
  std::mutex growth_mu_;  // Serving-path growth (see MatchAgainstQuery).
};

}  // namespace bayeslsh

#endif  // BAYESLSH_LSH_BBIT_MINWISE_H_
