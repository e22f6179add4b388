// Transaction goldens: one 64-wide search per row kind and key class, one
// 64-wide write per row kind, and one 8×8 3T2N array search on each array
// solver, pinned to the step, rejection and Newton counts and the
// delay/energy the simulator produced when they were recorded. The
// counts must match exactly and the delay/energy to 1e-12 relative, so a
// change meant to be bit-exact (the EKV memo, the source sample cache)
// cannot move the simulated trajectory without failing here.
//
// The 2T2R resistance-variation goldens were recorded from the flat
// per-search netlist builder that variation used before it moved onto the
// elaborated template. The template reproduces them bit for bit, so they
// are pinned at 1e-12 too (the move itself only required the match
// decision exact and delay/energy within 0.1%).
//
// To re-record after a change that is meant to move simulated numbers, run
//   ./build/tests/test_golden
// and paste the "actual" rows each failure prints into the tables.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>

#include "tcam/ArrayTemplate.h"
#include "tcam/RowSpecs.h"
#include "tcam/Rram2T2RRow.h"
#include "tcam/TcamRow.h"

namespace {

using namespace nemtcam;
using namespace nemtcam::tcam;
using core::Ternary;
using core::TernaryWord;

constexpr int kWidth = 64;
constexpr int kRows = 64;
// Fixed stored word: 64 trits, 6 of them X (10%, as perfbench's words).
const char* const kStored =
    "11X0101111000X1010000110X0001101010000X1111000111X1010X110011000";
constexpr std::size_t kFlippedBit = 17;  // a non-X trit of kStored

struct Golden {
  TcamKind kind;
  bool one_bit;  // key: exact match (false) or one-bit mismatch (true)
  bool matched;
  std::size_t steps;
  std::size_t rejected;
  std::size_t newton;
  double latency;  // s
  double energy;   // J
};

// Recorded before the EKV memo and the source sample cache landed.
// clang-format off
constexpr Golden kGolden[] = {
    {TcamKind::Sram16T, false, true, 147, 21, 319, 0, 8.6957417473920282e-13},
    {TcamKind::Sram16T, true, false, 155, 22, 360, 1.1213341038784658e-09, 8.8174993460334377e-13},
    {TcamKind::Nem3T2N, false, true, 155, 23, 344, 0, 3.2576055966896389e-13},
    {TcamKind::Nem3T2N, true, false, 171, 23, 386, 1.8656495171427201e-10, 3.2743061019447502e-13},
    {TcamKind::Rram2T2R, false, true, 155, 24, 356, 6.7965307316204653e-10, 2.6353160855520414e-13},
    {TcamKind::Rram2T2R, true, false, 160, 24, 374, 3.0534651053941787e-10, 2.6376711970484087e-13},
    {TcamKind::Fefet2F, false, true, 125, 24, 256, 0, 1.8962393085877149e-13},
    {TcamKind::Fefet2F, true, false, 138, 26, 297, 7.6268385009265827e-10, 2.2517839939001283e-13},
    {TcamKind::Dtcam5T, false, true, 137, 23, 299, 0, 3.0125217063763494e-13},
    {TcamKind::Dtcam5T, true, false, 142, 24, 328, 8.2950620755638763e-10, 3.0257960872352179e-13},
    {TcamKind::Fefet4T2F, false, true, 155, 21, 322, 0, 2.381472675904927e-13},
    {TcamKind::Fefet4T2F, true, false, 167, 22, 357, 8.7151406058882026e-10, 2.8414265842772235e-13},
    {TcamKind::Mram4T2M, false, true, 367, 28, 773, 6.9471616888990372e-09, 6.3834936283669836e-11},
    {TcamKind::Mram4T2M, true, false, 357, 23, 717, 4.9767242954799388e-09, 6.4291124476365348e-11},
};
// clang-format on

TernaryWord exact_key() {
  TernaryWord key(std::string{kStored});
  for (std::size_t i = 0; i < key.size(); ++i)
    if (key[i] == Ternary::X) key[i] = (i % 2 == 0) ? Ternary::One : Ternary::Zero;
  return key;
}

TernaryWord one_bit_key() {
  TernaryWord key = exact_key();
  key[kFlippedBit] =
      key[kFlippedBit] == Ternary::One ? Ternary::Zero : Ternary::One;
  return key;
}

const char* enumerator(TcamKind kind) {
  switch (kind) {
    case TcamKind::Sram16T: return "Sram16T";
    case TcamKind::Nem3T2N: return "Nem3T2N";
    case TcamKind::Rram2T2R: return "Rram2T2R";
    case TcamKind::Fefet2F: return "Fefet2F";
    case TcamKind::Dtcam5T: return "Dtcam5T";
    case TcamKind::Fefet4T2F: return "Fefet4T2F";
    case TcamKind::Mram4T2M: return "Mram4T2M";
  }
  return "?";
}

bool close_rel(double actual, double expected) {
  return std::abs(actual - expected) <= 1e-12 * std::abs(expected);
}

std::string row_text(TcamKind kind, bool one_bit, const SearchMetrics& m) {
  char buf[256];
  std::snprintf(buf, sizeof buf, "{TcamKind::%s, %s, %s, %zu, %zu, %zu, %.17g, %.17g},",
                enumerator(kind), one_bit ? "true" : "false",
                m.matched ? "true" : "false", m.steps, m.steps_rejected,
                m.newton_iters, m.latency, m.energy);
  return buf;
}

class SearchGolden : public ::testing::TestWithParam<TcamKind> {};

TEST_P(SearchGolden, SixtyFourWideSearchReproducesRecordedRun) {
  ASSERT_EQ(std::string{kStored}.size(), static_cast<std::size_t>(kWidth));
  auto row = make_row(GetParam(), kWidth, kRows);
  row->store(TernaryWord(std::string{kStored}));
  for (const bool one_bit : {false, true}) {
    const SearchMetrics m = row->search(one_bit ? one_bit_key() : exact_key());
    ASSERT_TRUE(m.ok) << m.note;
    const std::string actual = row_text(GetParam(), one_bit, m);
    const Golden* g = nullptr;
    for (const Golden& row_golden : kGolden)
      if (row_golden.kind == GetParam() && row_golden.one_bit == one_bit)
        g = &row_golden;
    if (g == nullptr) {
      ADD_FAILURE() << "no golden; actual " << actual;
      continue;
    }
    EXPECT_EQ(m.matched, g->matched) << "actual " << actual;
    EXPECT_EQ(m.matched, !one_bit);
    EXPECT_EQ(m.steps, g->steps) << "actual " << actual;
    EXPECT_EQ(m.steps_rejected, g->rejected) << "actual " << actual;
    EXPECT_EQ(m.newton_iters, g->newton) << "actual " << actual;
    EXPECT_TRUE(close_rel(m.latency, g->latency)) << "actual " << actual;
    EXPECT_TRUE(close_rel(m.energy, g->energy)) << "actual " << actual;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SearchGolden,
                         ::testing::Values(TcamKind::Sram16T, TcamKind::Nem3T2N,
                                           TcamKind::Rram2T2R, TcamKind::Fefet2F,
                                           TcamKind::Dtcam5T, TcamKind::Fefet4T2F,
                                           TcamKind::Mram4T2M),
                         [](const auto& param_info) {
                           return std::string{enumerator(param_info.param)};
                         });

// Word the write golden replaces kStored with: 42 of 64 trits change.
const char* const kWritten =
    "00X10X01X001X001000011100X1101110111XX0X111X01X011X111110X0X0011";

TEST(WriteGolden, SixtyFourWideNemWriteReproducesRecordedRun) {
  ASSERT_EQ(std::string{kWritten}.size(), static_cast<std::size_t>(kWidth));
  auto row = make_row(TcamKind::Nem3T2N, kWidth, kRows);
  row->store(TernaryWord(std::string{kStored}));
  const WriteMetrics m = row->write(TernaryWord(std::string{kWritten}));
  char actual[192];
  std::snprintf(actual, sizeof actual, "%zu, %zu, %zu, %.17g, %.17g", m.steps,
                m.steps_rejected, m.newton_iters, m.latency, m.energy);
  ASSERT_TRUE(m.ok) << m.note;
  EXPECT_EQ(m.steps, 146u) << "actual " << actual;
  EXPECT_EQ(m.steps_rejected, 9u) << "actual " << actual;
  EXPECT_EQ(m.newton_iters, 323u) << "actual " << actual;
  EXPECT_TRUE(close_rel(m.latency, 2.0312757546707733e-09)) << "actual " << actual;
  EXPECT_TRUE(close_rel(m.energy, 2.5539231362716223e-13)) << "actual " << actual;
  EXPECT_EQ(row->stored(), TernaryWord(std::string{kWritten}));
}

struct KindWrite {
  TcamKind kind;
  std::size_t steps;
  std::size_t rejected;
  std::size_t newton;
  double latency;  // s
  double energy;   // J
};

// The other six kinds' writes of kWritten over kStored.
// clang-format off
constexpr KindWrite kKindWriteGolden[] = {
    {TcamKind::Sram16T, 117, 7, 250, 2.0271852300366137e-10, 7.6663518291181837e-13},
    {TcamKind::Rram2T2R, 688, 41, 1270, 1.0575363073701677e-08, 4.4961657688837905e-11},
    {TcamKind::Fefet2F, 257, 5, 313, 9.5235153440279164e-09, 3.6330534216166779e-12},
    {TcamKind::Dtcam5T, 94, 6, 204, 7.9306559997186862e-11, 2.3301849451826665e-13},
    {TcamKind::Fefet4T2F, 288, 10, 461, 9.5887086134232558e-09, 6.9076748646774376e-12},
    {TcamKind::Mram4T2M, 417, 28, 851, 9.3143951948934618e-09, 1.7808502804241428e-10},
};
// clang-format on

class KindWriteGolden : public ::testing::TestWithParam<TcamKind> {};

TEST_P(KindWriteGolden, SixtyFourWideWriteReproducesRecordedRun) {
  auto row = make_row(GetParam(), kWidth, kRows);
  row->store(TernaryWord(std::string{kStored}));
  const WriteMetrics m = row->write(TernaryWord(std::string{kWritten}));
  char actual[256];
  std::snprintf(actual, sizeof actual, "{TcamKind::%s, %zu, %zu, %zu, %.17g, %.17g},",
                enumerator(GetParam()), m.steps, m.steps_rejected,
                m.newton_iters, m.latency, m.energy);
  ASSERT_TRUE(m.ok) << m.note;
  const KindWrite* g = nullptr;
  for (const KindWrite& w : kKindWriteGolden)
    if (w.kind == GetParam()) g = &w;
  ASSERT_NE(g, nullptr) << "no golden; actual " << actual;
  EXPECT_EQ(m.steps, g->steps) << "actual " << actual;
  EXPECT_EQ(m.steps_rejected, g->rejected) << "actual " << actual;
  EXPECT_EQ(m.newton_iters, g->newton) << "actual " << actual;
  EXPECT_TRUE(close_rel(m.latency, g->latency)) << "actual " << actual;
  EXPECT_TRUE(close_rel(m.energy, g->energy)) << "actual " << actual;
  EXPECT_EQ(row->stored(), TernaryWord(std::string{kWritten}));
}

INSTANTIATE_TEST_SUITE_P(OtherKinds, KindWriteGolden,
                         ::testing::Values(TcamKind::Sram16T, TcamKind::Rram2T2R,
                                           TcamKind::Fefet2F, TcamKind::Dtcam5T,
                                           TcamKind::Fefet4T2F, TcamKind::Mram4T2M),
                         [](const auto& param_info) {
                           return std::string{enumerator(param_info.param)};
                         });

// 8×8 3T2N array: row r stores the first 8 trits of kStored rotated by
// 3·r, and the key is row 0's word with X resolved, so some rows match.
constexpr int kArrayDim = 8;

TernaryWord array_row_word(int r) {
  std::string w;
  for (int c = 0; c < kArrayDim; ++c)
    w += kStored[static_cast<std::size_t>((3 * r + c) % kWidth)];
  return TernaryWord(w);
}

struct ArrayGoldenRun {
  bool use_bbd;
  unsigned matched_mask;  // bit r set: row r matched
  std::size_t steps;
  std::size_t rejected;
  std::size_t newton;
  double energy;              // J
  double latency[kArrayDim];  // s, per row
};

// clang-format off
constexpr ArrayGoldenRun kArrayGolden[] = {
    {true, 0x01, 212, 24, 470, 9.6089291842313696e-14, {0, 3.1731610238619882e-11, 3.5876557496996303e-11, 3.2501283347876482e-11, 3.6261528360053564e-11, 3.830399310246202e-11, 3.0573625409234938e-11, 3.6398209802239196e-11}},
    {false, 0x01, 216, 23, 476, 9.6091570742830056e-14, {0, 3.1732668484292191e-11, 3.5876918591281033e-11, 3.2502507659542145e-11, 3.6262242291571422e-11, 3.830452996088757e-11, 3.0574513479256341e-11, 3.6399068383207966e-11}},
};
// clang-format on

TEST(ArrayGolden, EightByEightNemSearchReproducesRecordedRunOnBothSolvers) {
  TernaryWord key = array_row_word(0);
  for (std::size_t i = 0; i < key.size(); ++i)
    if (key[i] == Ternary::X) key[i] = (i % 2 == 0) ? Ternary::One : Ternary::Zero;
  for (const ArrayGoldenRun& g : kArrayGolden) {
    SCOPED_TRACE(g.use_bbd ? "bbd" : "monolithic");
    ArrayOptions opt;
    opt.use_bbd = g.use_bbd;
    ArrayTemplate arr(nem3t2n_search_spec(Calibration::standard()), kArrayDim,
                      kArrayDim, opt);
    for (int r = 0; r < kArrayDim; ++r) arr.store(r, array_row_word(r));
    const ArraySearchMetrics m = arr.search(key);
    ASSERT_TRUE(m.ok) << m.note;
    ASSERT_EQ(m.rows.size(), static_cast<std::size_t>(kArrayDim));
    EXPECT_EQ(m.used_bbd, g.use_bbd);
    unsigned mask = 0;
    std::string actual = g.use_bbd ? "{true" : "{false";
    for (int r = 0; r < kArrayDim; ++r)
      if (m.rows[static_cast<std::size_t>(r)].matched) mask |= 1u << r;
    char buf[192];
    std::snprintf(buf, sizeof buf, ", 0x%02x, %zu, %zu, %zu, %.17g, {", mask,
                  m.steps, m.steps_rejected, m.newton_iters, m.energy);
    actual += buf;
    for (int r = 0; r < kArrayDim; ++r) {
      std::snprintf(buf, sizeof buf, "%s%.17g", r ? ", " : "",
                    m.rows[static_cast<std::size_t>(r)].latency);
      actual += buf;
    }
    actual += "}},";
    EXPECT_EQ(mask, g.matched_mask) << "actual " << actual;
    EXPECT_EQ(m.steps, g.steps) << "actual " << actual;
    EXPECT_EQ(m.steps_rejected, g.rejected) << "actual " << actual;
    EXPECT_EQ(m.newton_iters, g.newton) << "actual " << actual;
    EXPECT_TRUE(close_rel(m.energy, g.energy)) << "actual " << actual;
    for (int r = 0; r < kArrayDim; ++r)
      EXPECT_TRUE(close_rel(m.rows[static_cast<std::size_t>(r)].latency,
                            g.latency[r]))
          << "row " << r << ", actual " << actual;
  }
}

struct VariationGolden {
  std::uint64_t seed;
  bool one_bit;
  bool matched;
  double latency;  // s
  double energy;   // J
};

// Recorded from the flat builder, sigma = 0.3 (natural-log spread).
// clang-format off
constexpr VariationGolden kVariationGolden[] = {
    {1, false, true, 6.6417000088309233e-10, 2.6373032374147839e-13},
    {1, true, false, 3.0781721527266135e-10, 2.6397787864782458e-13},
    {2, false, true, 6.4318529321455863e-10, 2.6395037887084824e-13},
    {2, true, false, 3.2225254616145357e-10, 2.6415582781158137e-13},
};
// clang-format on

TEST(RramVariationGolden, SixtyFourWideSearchesStayWithinRecordedRun) {
  for (const std::uint64_t seed : {1u, 2u}) {
    Rram2T2RRow row(kWidth, kRows, Calibration::standard());
    row.set_resistance_sigma(0.3);
    row.set_variation_seed(seed);
    row.store(TernaryWord(std::string{kStored}));
    for (const bool one_bit : {false, true}) {
      const SearchMetrics m =
          row.search(one_bit ? one_bit_key() : exact_key());
      ASSERT_TRUE(m.ok) << m.note;
      char actual[192];
      std::snprintf(actual, sizeof actual, "{%llu, %s, %s, %.17g, %.17g},",
                    static_cast<unsigned long long>(seed),
                    one_bit ? "true" : "false", m.matched ? "true" : "false",
                    m.latency, m.energy);
      const VariationGolden* g = nullptr;
      for (const VariationGolden& v : kVariationGolden)
        if (v.seed == seed && v.one_bit == one_bit) g = &v;
      if (g == nullptr) {
        ADD_FAILURE() << "no golden; actual " << actual;
        continue;
      }
      EXPECT_EQ(m.matched, g->matched) << "actual " << actual;
      EXPECT_TRUE(close_rel(m.latency, g->latency)) << "actual " << actual;
      EXPECT_TRUE(close_rel(m.energy, g->energy)) << "actual " << actual;
    }
  }
}

}  // namespace
