// Seeded input generation and the ternary-truth oracle.
//
// Every word and key the benchmark feeds the simulator comes from here,
// derived from the run's --seed alone: the library only ever sees the
// generated words. The generator is a splitmix64 stream (not a
// std:: distribution) so the same seed gives the same words on every
// standard library.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/Ternary.h"

namespace perfbench {

using nemtcam::core::Ternary;
using nemtcam::core::TernaryWord;

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  // Independent stream for (seed, tag, index): the workloads draw each
  // row kind's words from its own stream so kinds do not shift each other.
  Rng(std::uint64_t seed, std::string_view tag, std::uint64_t index);

  std::uint64_t next();
  // Uniform in [0, n).
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

// A stored word of `width` trits: exactly n_x X at random positions, the
// rest fair 0/1. A fixed count (rather than a per-trit coin) keeps every
// word at the workload's X density; see NOTES.md for why the density
// is not drawn.
TernaryWord random_word(Rng& rng, int width, int n_x);

// Row search keys, cycled in this order by the row workloads.
enum class KeyClass {
  Exact,     // matches: stored bits copied, stored X filled at random
  OneBit,    // exactly one conflicting bit (the paper's worst-case search)
  MultiBit,  // four conflicting bits
  XKey,      // an exact key with a quarter of its bits masked to X
};
inline constexpr int kKeyClasses = 4;
const char* key_class_name(KeyClass c);

TernaryWord make_key(Rng& rng, const TernaryWord& stored, KeyClass cls);

// Stored image for the array workload: random words with ~10% X, plus
// duplicated rows and rows sharing a long prefix with another row, so
// keys can hit exactly one row or several.
std::vector<TernaryWord> array_image(std::uint64_t seed, int rows, int width);

// Array keys, cycled in this order: no row matches, exactly one row
// matches, at least two rows match.
enum class ArrayKeyClass { None, One, Several };
inline constexpr int kArrayKeyClasses = 3;
const char* array_key_class_name(ArrayKeyClass c);

TernaryWord make_array_key(Rng& rng, const std::vector<TernaryWord>& image,
                           ArrayKeyClass cls);

// Ternary truth: which stored rows match `key`.
std::vector<bool> match_vector(const std::vector<TernaryWord>& image,
                               const TernaryWord& key);

}  // namespace perfbench
