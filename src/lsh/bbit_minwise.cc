#include "lsh/bbit_minwise.h"

#include <utility>

#include "lsh/signature_serialization.h"

namespace bayeslsh {

static_assert(BbitSignatureStore::kChunkHashes % kMinhashChunkInts == 0,
              "b-bit growth quantum must be whole minwise chunks");

void PackBbitValues(const uint32_t* hashes, uint32_t from, uint32_t n,
                    uint32_t bits_per_hash, uint64_t* words) {
  assert(IsValidBbitWidth(bits_per_hash));
  assert(from % kMinhashChunkInts == 0);
  const uint32_t values_per_word = 64 / bits_per_hash;
  const uint64_t value_mask = (bits_per_hash == 32)
                                  ? 0xffffffffULL
                                  : (1ULL << bits_per_hash) - 1;
  for (uint32_t j = from; j < n; ++j) {
    const uint64_t value = hashes[j - from] & value_mask;
    words[j / values_per_word] |=
        value << ((j % values_per_word) * bits_per_hash);
  }
}

BbitSignatureStore::BbitSignatureStore(const Dataset* data,
                                       MinwiseHasher hasher,
                                       uint32_t bits_per_hash)
    : data_(data),
      hasher_(std::move(hasher)),
      bits_per_hash_(bits_per_hash),
      values_per_word_(64 / bits_per_hash),
      words_(data->num_vectors()) {
  assert(IsValidBbitWidth(bits_per_hash));
}

uint64_t BbitSignatureStore::EnsureHashesUncounted(uint32_t row,
                                                   uint32_t n_hashes) {
  if (n_hashes <= NumHashes(row)) return 0;
  assert(!frozen());  // A frozen store must already cover every request.
  auto& w = words_[row];
  // Materialize the mapped prefix before growing past it (see
  // BitSignatureStore::EnsureBitsUncounted).
  if (!views_.empty() && views_[row].second > w.size()) {
    w.assign(views_[row].first, views_[row].first + views_[row].second);
  }
  const uint32_t have =
      static_cast<uint32_t>(w.size()) * values_per_word_;
  const uint32_t want =
      (n_hashes + kChunkHashes - 1) / kChunkHashes * kChunkHashes;
  w.resize(want / values_per_word_, 0);

  const SparseVectorView v = data_->Row(row);
  uint32_t scratch[kMinhashChunkInts];
  for (uint32_t j = have; j < want; j += kMinhashChunkInts) {
    hasher_.HashChunk(v, j / kMinhashChunkInts, scratch);
    PackBbitValues(scratch, j, j + kMinhashChunkInts, bits_per_hash_,
                   w.data());
  }
  return want - have;
}

void BbitSignatureStore::EnsureHashes(uint32_t row, uint32_t n_hashes) {
  AddHashesComputed(EnsureHashesUncounted(row, n_hashes));
}

void BbitSignatureStore::EnsureAllHashes(uint32_t n_hashes) {
  for (uint32_t row = 0; row < num_rows(); ++row) {
    EnsureHashes(row, n_hashes);
  }
}

uint32_t BbitSignatureStore::HashValue(uint32_t row, uint32_t j) const {
  assert(j < NumHashes(row));
  const uint64_t word = Words(row)[j / values_per_word_];
  const uint32_t group = j % values_per_word_;
  const uint64_t value_mask = (bits_per_hash_ == 32)
                                  ? 0xffffffffULL
                                  : (1ULL << bits_per_hash_) - 1;
  return static_cast<uint32_t>((word >> (group * bits_per_hash_)) &
                               value_mask);
}

uint32_t BbitSignatureStore::MatchCount(uint32_t a, uint32_t b, uint32_t from,
                                        uint32_t to) {
  if (frozen()) return MatchCountReadOnly(a, b, from, to);
  EnsureHashes(a, to);
  EnsureHashes(b, to);
  return MatchingBbitGroups(Words(a), Words(b), from, to, bits_per_hash_);
}

uint32_t BbitSignatureStore::MatchAgainstQuery(uint32_t row,
                                               const uint64_t* query_words,
                                               uint32_t from, uint32_t to) {
  assert(from <= to);
  if (frozen()) {
    assert(NumHashes(row) >= to);
    return MatchingBbitGroups(Words(row), query_words, from, to,
                              bits_per_hash_);
  }
  std::lock_guard<std::mutex> lock(growth_mu_);
  AddHashesComputed(EnsureHashesUncounted(row, to));
  return MatchingBbitGroups(Words(row), query_words, from, to,
                            bits_per_hash_);
}

uint64_t BbitSignatureStore::signature_bytes() const {
  uint64_t words = 0;
  for (uint32_t r = 0; r < num_rows(); ++r) words += HeldWords(r);
  return words * sizeof(uint64_t);
}

void BbitSignatureStore::Save(std::ostream& out, bool align_blob) const {
  std::vector<internal::RowSpan<uint64_t>> rows;
  rows.reserve(num_rows());
  for (uint32_t r = 0; r < num_rows(); ++r) {
    rows.emplace_back(Words(r), HeldWords(r));
  }
  internal::SaveSignatureRows(out, SignatureKind::kBbitPacked,
                              static_cast<uint8_t>(bits_per_hash_), rows,
                              hashes_computed(), align_blob);
}

void BbitSignatureStore::Load(std::istream& in, bool padded) {
  assert(!frozen());
  // One growth chunk is kChunkHashes values = bits_per_hash_ words.
  uint64_t computed = 0;
  internal::LoadSignatureRows(in, SignatureKind::kBbitPacked,
                              static_cast<uint8_t>(bits_per_hash_),
                              num_rows(), /*length_multiple=*/bits_per_hash_,
                              "b-bit packed", &words_, &computed, padded);
  views_.clear();
  hashes_computed_.store(computed, std::memory_order_relaxed);
}

void BbitSignatureStore::LoadViews(std::istream& in, const char* mapped_base,
                                   size_t mapped_size) {
  assert(!frozen());
  uint64_t computed = 0;
  std::vector<internal::RowSpan<uint64_t>> views;
  internal::LoadSignatureRowViews(in, mapped_base, mapped_size,
                                  SignatureKind::kBbitPacked,
                                  static_cast<uint8_t>(bits_per_hash_),
                                  num_rows(),
                                  /*length_multiple=*/bits_per_hash_,
                                  "b-bit packed", &views, &computed);
  views_ = std::move(views);
  for (auto& w : words_) w.clear();
  hashes_computed_.store(computed, std::memory_order_relaxed);
}

void BbitSignatureStore::CopyRowsFrom(const BbitSignatureStore& other) {
  assert(other.num_rows() == num_rows() &&
         other.bits_per_hash() == bits_per_hash() && !frozen());
  for (uint32_t r = 0; r < num_rows(); ++r) {
    const uint32_t other_len = other.HeldWords(r);
    if (other_len <= HeldWords(r)) continue;
    if (!other.views_.empty() && other.views_[r].second == other_len) {
      // Borrow the mmap view: the source index outlives this store per
      // the warm-start contract.
      if (views_.empty()) views_.assign(num_rows(), {nullptr, 0});
      views_[r] = other.views_[r];
    } else {
      words_[r] = other.words_[r];
    }
  }
}

}  // namespace bayeslsh
