#ifndef DBWIPES_COMMON_BITMAP_H_
#define DBWIPES_COMMON_BITMAP_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dbwipes {

/// \brief Fixed-size bitset over 64-bit words.
///
/// The predicate-ranking fast path represents "which suspect tuples
/// does this predicate match" as one Bitmap per predicate: intersection
/// popcounts give precision/recall counts in O(n/64), and full
/// equality comparison makes tuple-set deduplication exact (a 64-bit
/// hash alone can collapse distinct repairs).
class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(size_t num_bits)
      : num_bits_(num_bits), words_((num_bits + 63) / 64, 0) {}

  size_t num_bits() const { return num_bits_; }
  size_t num_words() const { return words_.size(); }

  void Set(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & uint64_t{1};
  }

  /// Whole-word access for batch writers (the match kernels build one
  /// word at a time so parallel chunks own disjoint words). Callers
  /// must keep padding bits past num_bits() zero — Hash() and
  /// operator== compare whole words.
  uint64_t word(size_t wi) const { return words_[wi]; }
  void set_word(size_t wi, uint64_t w) { words_[wi] = w; }

  /// this &= other; the bitmaps must be the same size.
  void AndWith(const Bitmap& other) {
    for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  }

  /// this |= other; the bitmaps must be the same size.
  void OrWith(const Bitmap& other) {
    for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  }

  /// Flips every bit in [0, num_bits()); padding bits stay zero.
  void Complement() {
    if (words_.empty()) return;
    for (uint64_t& w : words_) w = ~w;
    const size_t tail = num_bits_ & 63;
    if (tail != 0) words_.back() &= (uint64_t{1} << tail) - 1;
  }

  /// Sets every bit in [0, num_bits()).
  void SetAll() {
    if (words_.empty()) return;
    for (uint64_t& w : words_) w = ~uint64_t{0};
    const size_t tail = num_bits_ & 63;
    if (tail != 0) words_.back() = (uint64_t{1} << tail) - 1;
  }

  /// Number of set bits.
  size_t CountOnes() const {
    size_t n = 0;
    for (uint64_t w : words_) n += static_cast<size_t>(std::popcount(w));
    return n;
  }

  /// |this AND other|; the bitmaps must be the same size.
  size_t CountAnd(const Bitmap& other) const {
    size_t n = 0;
    for (size_t i = 0; i < words_.size(); ++i) {
      n += static_cast<size_t>(std::popcount(words_[i] & other.words_[i]));
    }
    return n;
  }

  /// 64-bit content hash (splitmix-style word mixing). Equal bitmaps
  /// hash equal; the converse needs operator==.
  uint64_t Hash() const {
    uint64_t h = 0x9E3779B97F4A7C15ULL ^ num_bits_;
    for (uint64_t w : words_) {
      uint64_t x = w + 0x9E3779B97F4A7C15ULL;
      x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
      x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
      h ^= x ^ (x >> 31);
      h *= 0x2545F4914F6CDD1DULL;
    }
    return h;
  }

  bool operator==(const Bitmap& other) const {
    return num_bits_ == other.num_bits_ && words_ == other.words_;
  }

  /// Calls fn(i) for every set bit, in ascending order.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      uint64_t w = words_[wi];
      while (w != 0) {
        const int bit = std::countr_zero(w);
        fn(wi * 64 + static_cast<size_t>(bit));
        w &= w - 1;
      }
    }
  }

 private:
  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace dbwipes

#endif  // DBWIPES_COMMON_BITMAP_H_
