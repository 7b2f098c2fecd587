#include "core/query_sketch.h"

#include <cassert>
#include <utility>

#include "common/bit_ops.h"
#include "lsh/bbit_minwise.h"

namespace bayeslsh {

struct QuerySketch::Fixed {
  std::shared_ptr<const SketchFamily> family;
  std::vector<DimId> indices;
  std::vector<float> values;
  std::vector<double> anchor_row;  // KLSH only.
  std::vector<uint64_t> gen_words;
  std::vector<uint32_t> gen_ints;

  SparseVectorView View() const { return {indices, values}; }

  bool klsh() const { return family->gen_klsh != nullptr; }

  uint64_t VerifyBitsChunk(uint32_t chunk) const {
    return klsh() ? family->verify_klsh->HashChunk(anchor_row, chunk)
                  : family->verify_bits->HashChunk(View(), kNoStoreRow,
                                                   chunk);
  }
};

QuerySketch::QuerySketch(std::shared_ptr<const SketchFamily> family,
                         const SparseVectorView& q) {
  assert(family != nullptr);
  auto fixed = std::make_shared<Fixed>();
  fixed->family = std::move(family);
  fixed->indices.assign(q.indices.begin(), q.indices.end());
  fixed->values.assign(q.values.begin(), q.values.end());
  const SketchFamily& f = *fixed->family;
  if (!q.empty()) {
    const uint32_t gen_hashes = f.num_bands * f.hashes_per_band;
    if (f.gen_bits != nullptr) {
      if (fixed->klsh()) fixed->anchor_row = f.gen_klsh->AnchorKernelRow(q);
      fixed->gen_words.resize(WordsForBits(gen_hashes));
      for (uint32_t c = 0; c < fixed->gen_words.size(); ++c) {
        fixed->gen_words[c] =
            fixed->klsh() ? f.gen_klsh->HashChunk(fixed->anchor_row, c)
                          : f.gen_bits->HashChunk(q, kNoStoreRow, c);
      }
    } else {
      const uint32_t chunk_ints = f.gen_ints->chunk_ints();
      const uint32_t chunks = (gen_hashes + chunk_ints - 1) / chunk_ints;
      fixed->gen_ints.resize(chunks * chunk_ints);
      for (uint32_t c = 0; c < chunks; ++c) {
        f.gen_ints->HashChunk(q, kNoStoreRow, c,
                              fixed->gen_ints.data() + c * chunk_ints);
      }
    }
  }
  fixed_ = std::move(fixed);
}

SparseVectorView QuerySketch::query() const {
  return fixed_ != nullptr ? fixed_->View() : SparseVectorView{};
}

uint64_t QuerySketch::fingerprint() const {
  return fixed_ != nullptr ? fixed_->family->fingerprint : 0;
}

const std::vector<uint64_t>& QuerySketch::gen_words() const {
  assert(fixed_ != nullptr);
  return fixed_->gen_words;
}

const std::vector<uint32_t>& QuerySketch::gen_ints() const {
  assert(fixed_ != nullptr);
  return fixed_->gen_ints;
}

uint32_t QuerySketch::gen_chunks() const {
  if (fixed_ == nullptr) return 0;
  const SketchFamily& f = *fixed_->family;
  return f.gen_bits != nullptr
             ? static_cast<uint32_t>(fixed_->gen_words.size())
             : static_cast<uint32_t>(fixed_->gen_ints.size()) /
                   f.gen_ints->chunk_ints();
}

uint32_t QuerySketch::verify_chunks() const {
  if (fixed_ == nullptr) return 0;
  const SketchFamily& f = *fixed_->family;
  return f.verify_bits != nullptr
             ? static_cast<uint32_t>(verify_words_.size())
             : static_cast<uint32_t>(verify_ints_.size()) /
                   f.verify_ints->chunk_ints();
}

const uint64_t* QuerySketch::VerifyWords(uint32_t n_hashes) {
  assert(fixed_ != nullptr);
  const SketchFamily& f = *fixed_->family;
  if (f.bbit == 0) {
    assert(f.verify_bits != nullptr);
    while (verify_words_.size() < WordsForBits(n_hashes)) {
      verify_words_.push_back(fixed_->VerifyBitsChunk(
          static_cast<uint32_t>(verify_words_.size())));
    }
    return verify_words_.data();
  }
  // b-bit: grow the full-width hashes a chunk at a time, then pack the
  // new ones' low bits behind the groups already packed.
  const auto have = static_cast<uint32_t>(verify_ints_.size());
  if (n_hashes > have) {
    VerifyInts(n_hashes);
    const auto want = static_cast<uint32_t>(verify_ints_.size());
    const uint32_t values_per_word = 64 / f.bbit;
    verify_words_.resize((want + values_per_word - 1) / values_per_word, 0);
    PackBbitValues(verify_ints_.data() + have, have, want, f.bbit,
                   verify_words_.data());
  }
  return verify_words_.data();
}

const uint32_t* QuerySketch::VerifyInts(uint32_t n_hashes) {
  assert(fixed_ != nullptr && fixed_->family->verify_ints != nullptr);
  const IntChunkHasher& h = *fixed_->family->verify_ints;
  const uint32_t chunk_ints = h.chunk_ints();
  const SparseVectorView q = fixed_->View();
  while (verify_ints_.size() < n_hashes) {
    const auto chunk =
        static_cast<uint32_t>(verify_ints_.size()) / chunk_ints;
    verify_ints_.resize(verify_ints_.size() + chunk_ints);
    h.HashChunk(q, kNoStoreRow, chunk,
                verify_ints_.data() + chunk * chunk_ints);
  }
  return verify_ints_.data();
}

}  // namespace bayeslsh
