#include "Inputs.h"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

namespace {

std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Ternary random_bit(Rng& rng) {
  return (rng.next() & 1U) != 0 ? Ternary::One : Ternary::Zero;
}

Ternary flip(Ternary t) {
  return t == Ternary::One ? Ternary::Zero : Ternary::One;
}

// Key that matches `stored`: non-X bits copied, X bits filled at random.
TernaryWord matching_key(Rng& rng, const TernaryWord& stored) {
  TernaryWord key(stored.size());
  for (std::size_t i = 0; i < stored.size(); ++i)
    key[i] = stored[i] == Ternary::X ? random_bit(rng) : stored[i];
  return key;
}

// Flips `n` distinct positions where both stored and key are non-X.
void add_conflicts(Rng& rng, const TernaryWord& stored, TernaryWord& key,
                   std::size_t n) {
  std::vector<std::size_t> cand;
  for (std::size_t i = 0; i < stored.size(); ++i)
    if (stored[i] != Ternary::X && key[i] != Ternary::X) cand.push_back(i);
  n = std::min(n, cand.size());
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t j = k + rng.below(cand.size() - k);
    std::swap(cand[k], cand[j]);
    key[cand[k]] = flip(stored[cand[k]]);
  }
}

}  // namespace

Rng::Rng(std::uint64_t seed, std::string_view tag, std::uint64_t index)
    : state_(mix(seed + 0x9e3779b97f4a7c15ULL)) {
  for (const char c : tag) state_ = mix(state_ ^ static_cast<unsigned char>(c));
  state_ = mix(state_ ^ (index + 1));
}

std::uint64_t Rng::next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  return mix(state_);
}

std::uint64_t Rng::below(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("Rng::below(0)");
  return next() % n;  // bias < 2^-50 for the small n used here
}

TernaryWord random_word(Rng& rng, int width, int n_x) {
  if (n_x < 0 || n_x >= width) throw std::invalid_argument("bad X count");
  TernaryWord w(static_cast<std::size_t>(width));
  std::vector<std::size_t> pos(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    w[i] = random_bit(rng);
    pos[i] = i;
  }
  for (std::size_t k = 0; k < static_cast<std::size_t>(n_x); ++k) {
    const std::size_t j = k + rng.below(pos.size() - k);
    std::swap(pos[k], pos[j]);
    w[pos[k]] = Ternary::X;
  }
  return w;
}

const char* key_class_name(KeyClass c) {
  switch (c) {
    case KeyClass::Exact: return "exact";
    case KeyClass::OneBit: return "one_bit";
    case KeyClass::MultiBit: return "multi_bit";
    case KeyClass::XKey: return "x_key";
  }
  return "?";
}

TernaryWord make_key(Rng& rng, const TernaryWord& stored, KeyClass cls) {
  TernaryWord key = matching_key(rng, stored);
  switch (cls) {
    case KeyClass::Exact:
      break;
    case KeyClass::OneBit:
      add_conflicts(rng, stored, key, 1);
      break;
    case KeyClass::MultiBit:
      add_conflicts(rng, stored, key, 4);
      break;
    case KeyClass::XKey: {
      // A quarter of the key masked at random positions; still a match.
      std::vector<std::size_t> pos(key.size());
      for (std::size_t i = 0; i < pos.size(); ++i) pos[i] = i;
      for (std::size_t k = 0; k < key.size() / 4; ++k) {
        const std::size_t j = k + rng.below(pos.size() - k);
        std::swap(pos[k], pos[j]);
        key[pos[k]] = Ternary::X;
      }
      break;
    }
  }
  return key;
}

std::vector<TernaryWord> array_image(std::uint64_t seed, int rows, int width) {
  Rng rng(seed, "array_image", 0);
  std::vector<TernaryWord> image;
  image.reserve(static_cast<std::size_t>(rows));
  for (int r = 0; r < rows; ++r) image.push_back(random_word(rng, width, width / 10));
  // Every 8th row (from row 4) repeats an earlier row; every 8th row
  // (from row 6) keeps an earlier row's first 3/4 and redraws the rest.
  const auto w = static_cast<std::size_t>(width);
  for (int r = 4; r < rows; r += 8)
    image[static_cast<std::size_t>(r)] = image[rng.below(static_cast<std::uint64_t>(r))];
  for (int r = 6; r < rows; r += 8) {
    const TernaryWord& src = image[rng.below(static_cast<std::uint64_t>(r))];
    TernaryWord& dst = image[static_cast<std::size_t>(r)];
    for (std::size_t i = 0; i < 3 * w / 4; ++i) dst[i] = src[i];
  }
  return image;
}

const char* array_key_class_name(ArrayKeyClass c) {
  switch (c) {
    case ArrayKeyClass::None: return "none";
    case ArrayKeyClass::One: return "one";
    case ArrayKeyClass::Several: return "several";
  }
  return "?";
}

TernaryWord make_array_key(Rng& rng, const std::vector<TernaryWord>& image,
                           ArrayKeyClass cls) {
  if (image.empty()) throw std::invalid_argument("empty array image");
  const std::size_t width = image.front().size();
  // Draw candidates until the class holds; each class has many candidates
  // in any image array_image() makes, so this ends within a few draws.
  for (int attempt = 0; attempt < 10000; ++attempt) {
    TernaryWord key;
    if (cls == ArrayKeyClass::None) {
      key = TernaryWord(width);
      for (std::size_t i = 0; i < width; ++i) key[i] = random_bit(rng);
    } else {
      key = matching_key(rng, image[rng.below(image.size())]);
    }
    const std::vector<bool> mv = match_vector(image, key);
    const auto hits = std::count(mv.begin(), mv.end(), true);
    if ((cls == ArrayKeyClass::None && hits == 0) ||
        (cls == ArrayKeyClass::One && hits == 1) ||
        (cls == ArrayKeyClass::Several && hits >= 2))
      return key;
  }
  throw std::runtime_error("no array key of the requested class");
}

std::vector<bool> match_vector(const std::vector<TernaryWord>& image,
                               const TernaryWord& key) {
  std::vector<bool> mv;
  mv.reserve(image.size());
  for (const TernaryWord& row : image) mv.push_back(row.matches(key));
  return mv;
}

}  // namespace perfbench
