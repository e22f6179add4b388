// Full-array simulation: the BBD Schur solver against the monolithic
// SparseLu on identical circuits, determinism across thread counts, the
// elaborate-once/replay-many contract at array scale, and row-scoped
// fault injection. All tests here carry the ctest label `array`.
#include <gtest/gtest.h>

#include <vector>

#include "devices/NemRelay.h"
#include "devices/Passive.h"
#include "devices/Sources.h"
#include "fault/FaultInjector.h"
#include "hier/Elaborate.h"
#include "linalg/BbdSolver.h"
#include "linalg/SparseLu.h"
#include "spice/Partition.h"
#include "tcam/ArrayTemplate.h"
#include "tcam/RowSpecs.h"
#include "util/ThreadPool.h"

namespace {

using namespace nemtcam;
using core::Ternary;
using core::TernaryWord;
using tcam::ArrayOptions;
using tcam::ArraySearchMetrics;
using tcam::ArrayTemplate;
using tcam::Calibration;

// ---------------------------------------------------------------- linalg

struct Csr {
  std::size_t n = 0;
  std::vector<std::size_t> row_ptr, cols;
  std::vector<double> vals;
  linalg::CsrView view() const {
    return {n, row_ptr.data(), cols.data(), vals.data()};
  }
};

Csr from_dense(const std::vector<std::vector<double>>& a) {
  Csr m;
  m.n = a.size();
  m.row_ptr.push_back(0);
  for (const auto& row : a) {
    for (std::size_t j = 0; j < row.size(); ++j) {
      if (row[j] != 0.0) {
        m.cols.push_back(j);
        m.vals.push_back(row[j]);
      }
    }
    m.row_ptr.push_back(m.cols.size());
  }
  return m;
}

// 3 blocks of 2 unknowns + a 2-wide border, diagonally dominant, with
// B/C couplings from every block into the border.
std::vector<std::vector<double>> bbd_dense(double scale) {
  std::vector<std::vector<double>> a(8, std::vector<double>(8, 0.0));
  for (int k = 0; k < 3; ++k) {
    const int i = 2 * k;
    a[i][i] = 4.0 + k;
    a[i + 1][i + 1] = 5.0 + k;
    a[i][i + 1] = -1.0;
    a[i + 1][i] = -0.5;
    a[i][6] = 0.7 + k;          // B
    a[i + 1][7] = -0.3;         // B
    a[6][i + 1] = 0.2 + 0.1 * k;  // C
    a[7][i] = -0.6;             // C
  }
  a[6][6] = 9.0;
  a[7][7] = 8.0;
  a[6][7] = 1.5;
  a[7][6] = -0.25;
  for (auto& row : a)
    for (double& v : row) v *= scale;
  return a;
}

std::shared_ptr<const linalg::BbdPartition> three_block_partition() {
  auto p = std::make_shared<linalg::BbdPartition>();
  p->block_of = {0, 0, 1, 1, 2, 2, -1, -1};
  p->n_blocks = 3;
  return p;
}

TEST(BbdSolver, MatchesSparseLuAndRefactorizes) {
  const std::vector<double> b0 = {1.0, -2.0, 3.0, 0.5, -1.5, 2.5, 4.0, -0.5};

  for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    util::ThreadPool pool(threads);
    linalg::BbdSolver bbd;
    bbd.set_partition(three_block_partition(), &pool);

    const Csr a1 = from_dense(bbd_dense(1.0));
    ASSERT_TRUE(bbd.factorize(a1.view()));
    EXPECT_EQ(bbd.block_count(), 3u);
    EXPECT_EQ(bbd.border_size(), 2u);

    std::vector<double> x = b0;
    bbd.solve_inplace(x);
    linalg::SparseLu lu(a1.view());
    std::vector<double> x_ref = b0;
    lu.solve_inplace(x_ref);
    for (std::size_t i = 0; i < x.size(); ++i)
      EXPECT_NEAR(x[i], x_ref[i], 1e-12) << "unknown " << i;

    // Same pattern, new values: the numeric-only replay must agree with a
    // fresh monolithic factorization.
    const Csr a2 = from_dense(bbd_dense(1.37));
    ASSERT_TRUE(bbd.refactorize(a2.view()));
    EXPECT_GE(bbd.stats().block_refactorizations, 3u);
    std::vector<double> y = b0;
    bbd.solve_inplace(y);
    linalg::SparseLu lu2(a2.view());
    std::vector<double> y_ref = b0;
    lu2.solve_inplace(y_ref);
    for (std::size_t i = 0; i < y.size(); ++i)
      EXPECT_NEAR(y[i], y_ref[i], 1e-12) << "unknown " << i;
  }
}

TEST(BbdSolver, RejectsCrossBlockCoupling) {
  auto dense = bbd_dense(1.0);
  dense[0][2] = 0.5;  // couples block 0 to block 1
  const Csr a = from_dense(dense);
  linalg::BbdSolver bbd;
  bbd.set_partition(three_block_partition(), nullptr);
  EXPECT_FALSE(bbd.factorize(a.view()));
  EXPECT_FALSE(bbd.factored());
}

TEST(BbdSolver, SharesPatternAcrossIdenticalBlocks) {
  linalg::BbdSolver bbd;
  bbd.set_partition(three_block_partition(), nullptr);
  const Csr a = from_dense(bbd_dense(1.0));
  ASSERT_TRUE(bbd.factorize(a.view()));
  // The three blocks stamp the same local pattern: one full symbolic
  // analysis, two shares.
  EXPECT_EQ(bbd.stats().pattern_shares, 2u);
}

TEST(Partition, DerivesBlocksFromDeviceOwners) {
  spice::Circuit ckt;
  const auto a = ckt.node("a");
  const auto b = ckt.node("b");
  const auto s = ckt.node("s");
  ckt.add<devices::Resistor>("R0", a, s, 10.0);   // owner 0
  ckt.add<devices::Resistor>("R1", b, s, 20.0);   // owner 1
  ckt.add<devices::Resistor>("Rs", s, ckt.ground(), 5.0);  // shared
  ckt.add<devices::VSource>("V0", a, ckt.ground(), 1.0);   // owner 0 branch

  const linalg::BbdPartition p =
      spice::make_bbd_partition(ckt, {0, 1, -1, 0}, 2);
  ASSERT_EQ(p.block_of.size(), 4u);  // 3 node + 1 branch unknowns
  EXPECT_EQ(p.n_blocks, 2);
  EXPECT_EQ(p.block_of[a - 1], 0);   // only owner-0 devices touch a
  EXPECT_EQ(p.block_of[b - 1], 1);
  EXPECT_EQ(p.block_of[s - 1], -1);  // multiple owners → border
  EXPECT_EQ(p.block_of[3], 0);       // V0's branch follows its owner
}

// ----------------------------------------------------------------- array

TernaryWord word_for_row(int r, int width) {
  TernaryWord w(static_cast<std::size_t>(width), Ternary::One);
  for (int c = 0; c < width; ++c) {
    if ((r + c) % 3 == 1) w[static_cast<std::size_t>(c)] = Ternary::Zero;
    if ((r + c) % 5 == 4) w[static_cast<std::size_t>(c)] = Ternary::X;
  }
  return w;
}

ArraySearchMetrics run_array(const tcam::SearchTemplateSpec& spec, int rows,
                             int width, const ArrayOptions& opt,
                             const TernaryWord& key) {
  ArrayTemplate arr(spec, rows, width, opt);
  for (int r = 0; r < rows; ++r) arr.store(r, word_for_row(r, width));
  return arr.search(key);
}

TEST(ArrayBbd, MatchesMonolithicAcrossRowKinds) {
  const Calibration& cal = Calibration::standard();
  const int R = 8, W = 8;
  const TernaryWord key = word_for_row(0, W);  // row 0 matches exactly

  const struct {
    const char* name;
    tcam::SearchTemplateSpec spec;
  } kinds[] = {
      {"nem3t2n", tcam::nem3t2n_search_spec(cal)},
      {"fefet2f", tcam::fefet2f_search_spec(cal)},
      {"dtcam5t", tcam::dtcam5t_search_spec(cal)},
  };

  for (const auto& kind : kinds) {
    SCOPED_TRACE(kind.name);
    ArrayOptions bbd;
    ArrayOptions mono;
    mono.use_bbd = false;

    const ArraySearchMetrics mb = run_array(kind.spec, R, W, bbd, key);
    const ArraySearchMetrics mm = run_array(kind.spec, R, W, mono, key);

    ASSERT_TRUE(mb.ok) << mb.note;
    ASSERT_TRUE(mm.ok) << mm.note;
    EXPECT_TRUE(mb.used_bbd);
    EXPECT_EQ(mb.bbd_fallbacks, 0u);
    EXPECT_FALSE(mm.used_bbd);
    // One block per column under the default partition axis.
    EXPECT_EQ(mb.bbd_blocks, static_cast<std::size_t>(W));

    EXPECT_GT(mb.match_count, 0);
    EXPECT_LT(mb.match_count, R);
    ASSERT_EQ(mb.rows.size(), mm.rows.size());
    for (int r = 0; r < R; ++r) {
      SCOPED_TRACE("row " + std::to_string(r));
      EXPECT_EQ(mb.rows[r].matched, mm.rows[r].matched);
      EXPECT_NEAR(mb.rows[r].ml_final, mm.rows[r].ml_final, 2e-3 * cal.vdd);
      EXPECT_NEAR(mb.rows[r].latency, mm.rows[r].latency, 1e-12);
    }
    EXPECT_NEAR(mb.energy, mm.energy, 1e-3 * std::abs(mm.energy));
  }
}

TEST(ArrayBbd, PartitionAxesAgree) {
  const Calibration& cal = Calibration::standard();
  const int R = 8, W = 8;
  const TernaryWord key = word_for_row(1, W);

  ArrayOptions col;  // ByColumn is the default
  ArrayOptions row;
  row.partition = tcam::ArrayPartition::ByRow;

  const auto spec = tcam::nem3t2n_search_spec(cal);
  const ArraySearchMetrics mc = run_array(spec, R, W, col, key);
  const ArraySearchMetrics mr = run_array(spec, R, W, row, key);
  ASSERT_TRUE(mc.ok) << mc.note;
  ASSERT_TRUE(mr.ok) << mr.note;
  EXPECT_TRUE(mc.used_bbd);
  EXPECT_TRUE(mr.used_bbd);
  EXPECT_EQ(mc.bbd_fallbacks, 0u);
  EXPECT_EQ(mr.bbd_fallbacks, 0u);

  // ByColumn: one block per column; the border is the N matchlines, the
  // vdd/pchgb rail nodes and the two ideal rail branches — segments stay
  // block-interior.
  EXPECT_EQ(mc.bbd_blocks, static_cast<std::size_t>(W));
  EXPECT_EQ(mc.bbd_border, static_cast<std::size_t>(R + 4));
  // ByRow: row blocks plus a 1×1 block per line driver; every segment
  // node of every ladder lands in the border.
  EXPECT_EQ(mr.bbd_blocks, static_cast<std::size_t>(R + 2 * W));
  EXPECT_EQ(mr.bbd_border, static_cast<std::size_t>(2 * W * 2 + 4));

  // Same circuit, same physics: only the elimination order differs.
  ASSERT_EQ(mc.rows.size(), mr.rows.size());
  for (int r = 0; r < R; ++r) {
    SCOPED_TRACE("row " + std::to_string(r));
    EXPECT_EQ(mc.rows[r].matched, mr.rows[r].matched);
    EXPECT_NEAR(mc.rows[r].latency, mr.rows[r].latency, 1e-12);
  }
  EXPECT_NEAR(mc.energy, mr.energy, 1e-3 * std::abs(mr.energy));
}

TEST(ArrayBbd, DeterministicAcrossThreadCounts) {
  const Calibration& cal = Calibration::standard();
  const int R = 8, W = 8;
  const TernaryWord key = word_for_row(2, W);

  std::vector<ArraySearchMetrics> runs;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    util::ThreadPool pool(threads);
    ArrayOptions opt;
    opt.pool = &pool;
    runs.push_back(run_array(tcam::nem3t2n_search_spec(cal), R, W, opt, key));
    ASSERT_TRUE(runs.back().ok) << runs.back().note;
    ASSERT_TRUE(runs.back().used_bbd);
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    SCOPED_TRACE("thread variant " + std::to_string(i));
    EXPECT_EQ(runs[i].steps, runs[0].steps);
    EXPECT_EQ(runs[i].newton_iters, runs[0].newton_iters);
    EXPECT_EQ(runs[i].energy, runs[0].energy);  // bitwise
    for (int r = 0; r < R; ++r) {
      EXPECT_EQ(runs[i].rows[r].matched, runs[0].rows[r].matched);
      EXPECT_EQ(runs[i].rows[r].ml_final, runs[0].rows[r].ml_final);
      EXPECT_EQ(runs[i].rows[r].latency, runs[0].rows[r].latency);
    }
  }
}

// The circuit's device loop, its gather and the accepted-step hooks run
// on the array's pool whichever solver is selected; every term lands at
// its recorded position, so no pool size may move a bit of the result.
TEST(ArrayPool, SearchIsBitIdenticalAcrossPoolSizesOnBothSolvers) {
  const Calibration& cal = Calibration::standard();
  const int R = 8, W = 8;
  const TernaryWord key = word_for_row(2, W);

  for (const bool use_bbd : {true, false}) {
    SCOPED_TRACE(use_bbd ? "bbd" : "monolithic");
    std::vector<ArraySearchMetrics> runs;
    for (const std::size_t threads : {1, 2, 4}) {
      util::ThreadPool pool(threads);
      ArrayOptions opt;
      opt.pool = &pool;
      opt.use_bbd = use_bbd;
      ArrayTemplate arr(tcam::nem3t2n_search_spec(cal), R, W, opt);
      for (int r = 0; r < R; ++r) arr.store(r, word_for_row(r, W));
      runs.push_back(arr.search(key));
      ASSERT_TRUE(runs.back().ok) << runs.back().note;
      EXPECT_EQ(runs.back().used_bbd, use_bbd);
      spice::Circuit& ckt = arr.fixture()->circuit();
      // Enough devices for several device ranges (64 devices each).
      EXPECT_GE(ckt.devices().size(), 4u * 64u);
      const auto& st = ckt.solver_cache().stats();
      EXPECT_GT(st.parallel_passes, 0u);
      EXPECT_GE(st.parallel_passes, st.bound_passes);
    }
    for (std::size_t i = 1; i < runs.size(); ++i) {
      SCOPED_TRACE("pool variant " + std::to_string(i));
      EXPECT_EQ(runs[i].steps, runs[0].steps);
      EXPECT_EQ(runs[i].steps_rejected, runs[0].steps_rejected);
      EXPECT_EQ(runs[i].newton_iters, runs[0].newton_iters);
      EXPECT_EQ(runs[i].energy, runs[0].energy);  // bitwise
      EXPECT_EQ(runs[i].match_count, runs[0].match_count);
      for (int r = 0; r < R; ++r) {
        EXPECT_EQ(runs[i].rows[r].matched, runs[0].rows[r].matched);
        EXPECT_EQ(runs[i].rows[r].ml_final, runs[0].rows[r].ml_final);
        EXPECT_EQ(runs[i].rows[r].latency, runs[0].rows[r].latency);
      }
    }
  }
}

// AssemblyCache::Stats::parallel_passes shows whether the device loop
// actually ran split: positive on an array (which always has a pool),
// zero on every row kind (rows never get one).
TEST(ArrayPool, ParallelPassesCountedOnArraysOnly) {
  const Calibration& cal = Calibration::standard();
  const int R = 4, W = 16;
  ArrayTemplate arr(tcam::nem3t2n_search_spec(cal), R, W);
  for (int r = 0; r < R; ++r) arr.store(r, word_for_row(r, W));
  const ArraySearchMetrics m = arr.search(word_for_row(1, W));
  ASSERT_TRUE(m.ok) << m.note;
  EXPECT_GT(arr.fixture()->circuit().solver_cache().stats().parallel_passes,
            0u);

  const struct {
    const char* name;
    tcam::SearchTemplateSpec spec;
  } kinds[] = {{"Sram16T", tcam::sram16t_search_spec(cal)},
               {"Nem3T2N", tcam::nem3t2n_search_spec(cal)},
               {"Rram2T2R", tcam::rram2t2r_search_spec(cal)},
               {"Fefet2F", tcam::fefet2f_search_spec(cal)},
               {"Dtcam5T", tcam::dtcam5t_search_spec(cal)},
               {"Fefet4T2F", tcam::fefet4t2f_search_spec(cal)},
               {"Mram4T2M", tcam::mram4t2m_search_spec(cal)}};
  for (const auto& kind : kinds) {
    SCOPED_TRACE(kind.name);
    tcam::SearchTemplate row(kind.spec, W, 16);
    const TernaryWord stored = word_for_row(0, W);
    TernaryWord key = stored;
    key[3] = key[3] == Ternary::One ? Ternary::Zero : Ternary::One;
    row.search(key, stored, kind.spec.t_strobe);
    const auto& st = row.circuit()->solver_cache().stats();
    EXPECT_GT(st.assemblies, 0u);
    EXPECT_EQ(st.parallel_passes, 0u);
  }
}

TEST(ArrayReplay, KeyChangeRebindsWithoutReconstruction) {
  const Calibration& cal = Calibration::standard();
  const int R = 4, W = 8;
  ArrayTemplate arr(tcam::nem3t2n_search_spec(cal), R, W);
  for (int r = 0; r < R; ++r) arr.store(r, word_for_row(r, W));

  const ArraySearchMetrics m1 = arr.search(word_for_row(0, W));
  ASSERT_TRUE(m1.ok) << m1.note;
  EXPECT_EQ(arr.builds(), 1u);

  const hier::Stats after_first = hier::stats();
  const ArraySearchMetrics m2 = arr.search(word_for_row(1, W));
  ASSERT_TRUE(m2.ok) << m2.note;
  // Different key, same stored image: waveform rebind only — no circuit
  // rebuild, no new elaborations, no new stamp pattern.
  EXPECT_EQ(arr.builds(), 1u);
  EXPECT_EQ(hier::stats().instances_elaborated,
            after_first.instances_elaborated);
  EXPECT_EQ(m2.stamp_pattern_builds, m1.stamp_pattern_builds);
  // Row 1 stores word_for_row(1): searching it must match row 1.
  EXPECT_TRUE(m2.rows[1].matched);
  EXPECT_FALSE(m2.rows[0].matched);

  // Re-storing the same words keeps the template; a new word rebuilds.
  arr.store(2, word_for_row(2, W));
  (void)arr.search(word_for_row(1, W));
  EXPECT_EQ(arr.builds(), 1u);
  arr.store(2, TernaryWord(static_cast<std::size_t>(W), Ternary::X));
  const ArraySearchMetrics m3 = arr.search(word_for_row(1, W));
  ASSERT_TRUE(m3.ok) << m3.note;
  EXPECT_EQ(arr.builds(), 2u);
  // All-X row 2 matches any key.
  EXPECT_TRUE(m3.rows[2].matched);
}

// ----------------------------------------------------------------- fault

TEST(ArrayFault, TwoLevelScopeTargetsSingleRow) {
  // Unit level: the injector must parse "Xrow<r>.Xcell<c>.<base>" and
  // honour the row coordinate (the flat and one-level forms stay
  // row-agnostic — they come from single-row circuits).
  spice::Circuit ckt;
  const auto g = ckt.ground();
  auto& r0 = ckt.add<devices::NemRelay>("Xrow0.Xcell2.N1", g, ckt.node("a"),
                                        ckt.node("b"), g);
  auto& r1 = ckt.add<devices::NemRelay>("Xrow1.Xcell2.N1", g, ckt.node("c"),
                                        ckt.node("d"), g);
  auto& r1n2 = ckt.add<devices::NemRelay>("Xrow1.Xcell2.N2", g, ckt.node("e"),
                                          ckt.node("f"), g);
  auto& r1c3 = ckt.add<devices::NemRelay>("Xrow1.Xcell3.N1", g, ckt.node("h"),
                                          ckt.node("i"), g);

  fault::FaultInjector injector;
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::RelayStuckClosed;
  spec.row = 1;
  spec.col = 2;
  spec.on_n1 = true;
  EXPECT_EQ(injector.apply(ckt, spec), 1);
  EXPECT_TRUE(r1.stuck());
  EXPECT_FALSE(r0.stuck());
  EXPECT_FALSE(r1n2.stuck());
  EXPECT_FALSE(r1c3.stuck());

  // Row-less names keep matching whatever row the spec carries.
  auto& flat = ckt.add<devices::NemRelay>("N1_2", g, ckt.node("j"),
                                          ckt.node("k"), g);
  spec.row = 7;
  EXPECT_EQ(injector.apply(ckt, spec), 1);
  EXPECT_TRUE(flat.stuck());
}

TEST(ArrayFault, InjectedRowFaultFlipsOnlyThatRow) {
  const Calibration& cal = Calibration::standard();
  const int R = 4, W = 4;
  ArrayTemplate arr(tcam::nem3t2n_search_spec(cal), R, W);
  const TernaryWord ones(static_cast<std::size_t>(W), Ternary::One);
  for (int r = 0; r < R; ++r) arr.store(r, ones);
  // Row 2 disagrees with the all-ones key in one bit: its stored-0 relay
  // (N2, drain on SL) closes and discharges the row on a search.
  TernaryWord mismatching = ones;
  mismatching[1] = Ternary::Zero;
  arr.store(2, mismatching);

  const ArraySearchMetrics clean = arr.search(ones);
  ASSERT_TRUE(clean.ok) << clean.note;
  for (int r = 0; r < R; ++r)
    EXPECT_EQ(clean.rows[r].matched, r != 2) << "row " << r;

  // Break that relay's beam in the open position: the discharge path is
  // gone and row 2 now reports a false match. Every other row keeps its
  // own cells — the two-level scope must confine the fault to row 2.
  fault::FaultInjector injector;
  fault::FaultSpec spec;
  spec.kind = fault::FaultKind::RelayStuckOpen;
  spec.row = 2;
  spec.col = 1;
  spec.on_n1 = false;
  ASSERT_NE(arr.fixture(), nullptr);
  EXPECT_EQ(injector.apply(arr.fixture()->circuit(), spec), 1);

  // The replay re-binds stored state; the broken beam must survive the
  // re-seed (NemRelay::set_state is a no-op on stuck devices).
  const ArraySearchMetrics faulty = arr.search(ones);
  ASSERT_TRUE(faulty.ok) << faulty.note;
  EXPECT_EQ(arr.builds(), 1u);  // fault mutation is not a topology change
  for (int r = 0; r < R; ++r) EXPECT_TRUE(faulty.rows[r].matched) << r;
}

}  // namespace
