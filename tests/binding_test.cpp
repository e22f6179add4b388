// Bound stamping (spice::StampBinding), the split replay of a pooled
// circuit, the per-hook device lists of the transient loop, and the
// trimmed SparseLu back-substitution: each is a pure speed change, so each
// is checked bit for bit against the path it replaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "devices/Controlled.h"
#include "devices/Diode.h"
#include "devices/Fefet.h"
#include "devices/Inductor.h"
#include "devices/Mosfet.h"
#include "devices/Mtj.h"
#include "devices/NemRelay.h"
#include "devices/Passive.h"
#include "devices/Rram.h"
#include "devices/Sources.h"
#include "devices/Switch.h"
#include "linalg/SparseLu.h"
#include "spice/AssemblyCache.h"
#include "spice/Circuit.h"
#include "spice/Stamper.h"
#include "spice/Transient.h"
#include "tcam/RowSpecs.h"
#include "tcam/SearchTemplate.h"
#include "util/Random.h"
#include "util/ThreadPool.h"

namespace {

using namespace nemtcam;
using core::TernaryWord;
using spice::AssemblyCache;
using spice::Integrator;
using spice::StampContext;
using spice::Stamper;

// One stamp pass of every device in `ckt` into `cache`, Newton-style: a
// pass that deviates from the recorded pattern is redone once in build
// mode. Returns the number of passes run (1 or 2).
int assemble(spice::Circuit& ckt, AssemblyCache& cache,
             const StampContext& ctx, std::vector<double>& rhs) {
  const std::size_t n = static_cast<std::size_t>(ckt.unknown_count());
  for (int pass = 0; pass < 2; ++pass) {
    cache.begin(n);
    rhs.assign(n, 0.0);
    Stamper st(cache, rhs, ckt.node_unknowns());
    for (const auto& dev : ckt.devices()) dev->stamp(st, ctx);
    if (cache.finish()) return pass + 1;
  }
  ADD_FAILURE() << "assembly pattern unstable";
  return 2;
}

bool same_bits(const double* a, const double* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

// The assembled system of one pass: CSR pattern, values and RHS.
struct Assembled {
  std::vector<std::size_t> row_ptr, cols;
  std::vector<double> vals, rhs;
};

Assembled snapshot(const AssemblyCache& cache, const std::vector<double>& rhs) {
  const linalg::CsrView v = cache.view();
  Assembled a;
  a.row_ptr.assign(v.row_ptr, v.row_ptr + v.n + 1);
  a.cols.assign(v.cols, v.cols + v.nnz());
  a.vals.assign(v.vals, v.vals + v.nnz());
  a.rhs = rhs;
  return a;
}

void expect_identical(const Assembled& a, const Assembled& b) {
  EXPECT_EQ(a.row_ptr, b.row_ptr);
  EXPECT_EQ(a.cols, b.cols);
  ASSERT_EQ(a.vals.size(), b.vals.size());
  ASSERT_EQ(a.rhs.size(), b.rhs.size());
  EXPECT_TRUE(same_bits(a.vals.data(), b.vals.data(), a.vals.size()));
  EXPECT_TRUE(same_bits(a.rhs.data(), b.rhs.data(), a.rhs.size()));
}

// A 16-wide row of `spec`'s kind, searched once and then advanced 150 ps
// into a fresh transient, so every companion history is live. Holds the
// last two accepted solutions.
struct MidTransient {
  std::unique_ptr<tcam::SearchTemplate> tmpl;
  spice::Circuit* ckt = nullptr;
  std::vector<double> v, v_prev;
  double t = 0.0, dt = 0.0;

  explicit MidTransient(tcam::SearchTemplateSpec spec) {
    constexpr int kWidth = 16;
    const TernaryWord stored(std::string{"10X1010011X10100"});
    TernaryWord key = stored;
    key[3] = core::Ternary::Zero;  // one-bit mismatch
    key[2] = core::Ternary::One;
    key[10] = core::Ternary::Zero;
    const double strobe = spec.t_strobe;
    tmpl = std::make_unique<tcam::SearchTemplate>(std::move(spec), kWidth, 16);
    tmpl->search(key, stored, strobe);
    ckt = tmpl->circuit();
    spice::TransientOptions o = spice::step_defaults(150e-12, 2e-12);
    const spice::TransientResult r = spice::run_transient(*ckt, o);
    EXPECT_TRUE(r.finished) << r.failure;
    const std::size_t k = r.samples.size();
    EXPECT_GE(k, 2u);
    v = r.samples[k - 1];
    v_prev = r.samples[k - 2];
    t = r.times[k - 1];
    dt = r.times[k - 1] - r.times[k - 2];
  }

  StampContext ctx(Integrator integ) const {
    return {t + dt, dt, /*is_dc=*/false, ckt->node_unknowns(), &v, &v_prev,
            integ};
  }
};

std::vector<std::pair<const char*, tcam::SearchTemplateSpec>> all_kinds() {
  const tcam::Calibration& cal = tcam::Calibration::standard();
  return {{"Sram16T", tcam::sram16t_search_spec(cal)},
          {"Nem3T2N", tcam::nem3t2n_search_spec(cal)},
          {"Rram2T2R", tcam::rram2t2r_search_spec(cal)},
          {"Fefet2F", tcam::fefet2f_search_spec(cal)},
          {"Dtcam5T", tcam::dtcam5t_search_spec(cal)},
          {"Fefet4T2F", tcam::fefet4t2f_search_spec(cal)},
          {"Mram4T2M", tcam::mram4t2m_search_spec(cal)}};
}

TEST(StampBinding, BoundPassEqualsRecordedPassForEveryRowKind) {
  for (auto& [name, spec] : all_kinds()) {
    SCOPED_TRACE(name);
    const MidTransient mt(std::move(spec));
    for (const Integrator integ :
         {Integrator::BackwardEuler, Integrator::Trapezoidal}) {
      SCOPED_TRACE(integ == Integrator::Trapezoidal ? "trap" : "be");
      const StampContext ctx = mt.ctx(integ);
      std::vector<double> rhs;

      // Reference: a fresh cache's key-checked replay (pass 2).
      AssemblyCache fresh;
      assemble(*mt.ckt, fresh, ctx, rhs);
      assemble(*mt.ckt, fresh, ctx, rhs);
      ASSERT_EQ(fresh.stats().bound_passes, 0u);
      const Assembled recorded = snapshot(fresh, rhs);

      // Build, bind, then one bound pass.
      AssemblyCache cache;
      assemble(*mt.ckt, cache, ctx, rhs);
      assemble(*mt.ckt, cache, ctx, rhs);
      EXPECT_EQ(cache.stats().bound_passes, 0u);
      EXPECT_EQ(assemble(*mt.ckt, cache, ctx, rhs), 1);
      EXPECT_EQ(cache.stats().bound_passes, 1u);
      EXPECT_EQ(cache.stats().pattern_builds, 1u);
      expect_identical(snapshot(cache, rhs), recorded);
    }
  }
}

// Circuits of one fixed-shape device kind each, so a bound pass proves
// that kind bound: relays (one with gate leakage), resistors, and voltage
// sources (one with series resistance).
std::unique_ptr<spice::Circuit> single_kind_circuit(const std::string& kind) {
  auto ckt = std::make_unique<spice::Circuit>();
  const auto a = ckt->node("a");
  const auto b = ckt->node("b");
  const auto c = ckt->node("c");
  const auto d = ckt->node("d");
  if (kind == "NemRelay") {
    ckt->add<devices::NemRelay>("N1", a, b, c, d);
    devices::NemRelayParams leaky;
    leaky.gate_leak_g = 1e-9;
    ckt->add<devices::NemRelay>("N2", c, a, spice::kGround, b, leaky);
  } else if (kind == "Resistor") {
    ckt->add<devices::Resistor>("R1", a, b, 1e3);
    ckt->add<devices::Resistor>("R2", b, spice::kGround, 2.2e3);
    ckt->add<devices::Resistor>("R3", c, d, 4.7e4);
  } else {
    ckt->add<devices::VSource>("V1", a, spice::kGround, 1.0);
    ckt->add<devices::VSource>("V2", b, c, 0.4, 50.0);
    ckt->add<devices::VSource>(
        "V3", d, a,
        std::make_unique<spice::PwlWave>(
            std::vector<std::pair<double, double>>{{0.0, 0.0}, {2e-9, 0.8}}));
  }
  return ckt;
}

TEST(StampBinding, BoundPassEqualsRecordedPassForRelaysResistorsAndSources) {
  for (const std::string kind : {"NemRelay", "Resistor", "VSource"}) {
    SCOPED_TRACE(kind);
    const auto ckt = single_kind_circuit(kind);
    const std::size_t n = static_cast<std::size_t>(ckt->unknown_count());
    util::Rng rng(11);
    std::vector<double> v(n), v_prev(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = rng.uniform(-1.0, 1.5);
      v_prev[i] = rng.uniform(-1.0, 1.5);
    }
    for (const Integrator integ :
         {Integrator::BackwardEuler, Integrator::Trapezoidal}) {
      SCOPED_TRACE(integ == Integrator::Trapezoidal ? "trap" : "be");
      const StampContext ctx(1e-9, 1e-12, false, ckt->node_unknowns(), &v,
                             &v_prev, integ);
      std::vector<double> rhs;

      AssemblyCache fresh;
      assemble(*ckt, fresh, ctx, rhs);
      assemble(*ckt, fresh, ctx, rhs);
      ASSERT_EQ(fresh.stats().bound_passes, 0u);
      const Assembled recorded = snapshot(fresh, rhs);

      AssemblyCache cache;
      assemble(*ckt, cache, ctx, rhs);
      assemble(*ckt, cache, ctx, rhs);
      EXPECT_EQ(assemble(*ckt, cache, ctx, rhs), 1);
      EXPECT_EQ(cache.stats().bound_passes, 1u);
      EXPECT_EQ(cache.stats().pattern_builds, 1u);
      expect_identical(snapshot(cache, rhs), recorded);
    }
  }
}

// A second cache over the same devices (the perfbench probe, the ERC
// rules and structural_singularity_report all stamp into their own) must
// never honour bindings made against the first, nor may a destroyed and
// re-created cache or a rebuilt pattern.
TEST(StampBinding, BindingsNeverCarryAcrossCachesOrRebuilds) {
  const MidTransient mt(tcam::nem3t2n_search_spec(tcam::Calibration::standard()));
  const StampContext ctx = mt.ctx(Integrator::Trapezoidal);
  std::vector<double> rhs;

  AssemblyCache a;
  for (int i = 0; i < 3; ++i) assemble(*mt.ckt, a, ctx, rhs);
  ASSERT_EQ(a.stats().bound_passes, 1u);
  const Assembled ref = snapshot(a, rhs);

  AssemblyCache b;
  assemble(*mt.ckt, b, ctx, rhs);  // build
  assemble(*mt.ckt, b, ctx, rhs);  // key-checked: a's bindings are not b's
  EXPECT_EQ(b.stats().bound_passes, 0u);
  assemble(*mt.ckt, b, ctx, rhs);
  EXPECT_EQ(b.stats().bound_passes, 1u);
  expect_identical(snapshot(b, rhs), ref);

  // Back in `a`: the devices are bound to `b` now, so one key-checked
  // pass rebinds them before `a` runs bound again.
  assemble(*mt.ckt, a, ctx, rhs);
  EXPECT_EQ(a.stats().bound_passes, 1u);
  assemble(*mt.ckt, a, ctx, rhs);
  EXPECT_EQ(a.stats().bound_passes, 2u);
  expect_identical(snapshot(a, rhs), ref);

  // A cache re-created in the same storage starts from new tokens.
  std::optional<AssemblyCache> c;
  for (int round = 0; round < 2; ++round) {
    c.emplace();
    assemble(*mt.ckt, *c, ctx, rhs);
    assemble(*mt.ckt, *c, ctx, rhs);
    EXPECT_EQ(c->stats().bound_passes, 0u);
    assemble(*mt.ckt, *c, ctx, rhs);
    EXPECT_EQ(c->stats().bound_passes, 1u);
  }

  // A rebuilt pattern in the same cache does not honour the old bindings.
  a.invalidate();
  assemble(*mt.ckt, a, ctx, rhs);
  assemble(*mt.ckt, a, ctx, rhs);
  EXPECT_EQ(a.stats().bound_passes, 2u);
  assemble(*mt.ckt, a, ctx, rhs);
  EXPECT_EQ(a.stats().bound_passes, 3u);
  expect_identical(snapshot(a, rhs), ref);
}

// Stamps a conductance a–b, or only a–ground when narrowed: the narrow
// shape's single term matches the wide shape's first recorded key, so
// only the range check of the bound device after it sees the change.
class ShapeShifter final : public spice::Device {
 public:
  ShapeShifter(spice::NodeId a, spice::NodeId b)
      : Device("shifter"), a_(a), b_(b) {}
  void stamp(Stamper& s, const StampContext&) override {
    s.conductance(a_, narrow_ ? spice::kGround : b_, 1e-3);
  }
  bool narrow_ = false;

 private:
  spice::NodeId a_, b_;
};

TEST(StampBinding, ShapeChangeBeforeABoundDeviceIsReRecorded) {
  spice::Circuit ckt;
  const auto n1 = ckt.node("n1");
  const auto n2 = ckt.node("n2");
  const auto n3 = ckt.node("n3");
  auto& shifter = ckt.add<ShapeShifter>(n1, n2);
  ckt.add<devices::Capacitor>("C1", n2, n3, 1e-15);
  ckt.add<devices::Mosfet>("M1", n3, n1, spice::kGround,
                           devices::MosfetParams::nmos_lp());
  ckt.add<devices::Resistor>("R1", n3, spice::kGround, 1e4);
  const std::vector<double> v = {0.8, 0.3, 0.5};
  const std::vector<double> v_prev = {0.7, 0.25, 0.6};
  const StampContext ctx(1e-9, 1e-12, false, ckt.node_unknowns(), &v, &v_prev,
                         Integrator::Trapezoidal);
  std::vector<double> rhs;

  AssemblyCache cache;
  for (int i = 0; i < 3; ++i) assemble(ckt, cache, ctx, rhs);
  ASSERT_EQ(cache.stats().pattern_builds, 1u);
  ASSERT_EQ(cache.stats().bound_passes, 1u);

  shifter.narrow_ = true;
  EXPECT_EQ(assemble(ckt, cache, ctx, rhs), 2);  // voided, then re-recorded
  EXPECT_EQ(cache.stats().pattern_builds, 2u);
  EXPECT_EQ(cache.stats().bound_passes, 1u);
  assemble(ckt, cache, ctx, rhs);  // rebinds to the new pattern
  EXPECT_EQ(assemble(ckt, cache, ctx, rhs), 1);
  EXPECT_EQ(cache.stats().pattern_builds, 2u);
  EXPECT_EQ(cache.stats().bound_passes, 2u);

  AssemblyCache fresh;
  assemble(ckt, fresh, ctx, rhs);
  std::vector<double> fresh_rhs;
  assemble(ckt, fresh, ctx, fresh_rhs);
  assemble(ckt, cache, ctx, rhs);
  expect_identical(snapshot(cache, rhs), snapshot(fresh, fresh_rhs));
}

// A conductance a–b that narrows to a–ground after a few accepted steps:
// a shape change in the middle of a run.
class CountdownShifter final : public spice::Device {
 public:
  CountdownShifter(spice::NodeId a, spice::NodeId b, int commits)
      : Device("countdown"), a_(a), b_(b), left_(commits) {}
  unsigned hooks() const override { return 0; }
  void stamp(Stamper& s, const StampContext&) override {
    s.conductance(a_, left_ > 0 ? b_ : spice::kGround, 1e-4);
  }
  void commit(const StampContext&) override {
    if (left_ > 0) --left_;
  }

 private:
  spice::NodeId a_, b_;
  int left_;
};

// An RC ladder of 300 devices with the shifter in its middle, run with the
// device loop split across `pool` (nullptr: inline).
spice::TransientResult run_shifting_ladder(util::ThreadPool* pool,
                                           AssemblyCache::Stats& stats) {
  spice::Circuit ckt;
  spice::NodeId prev = ckt.node("in");
  ckt.add<devices::VSource>(
      "Vin", prev, spice::kGround,
      std::make_unique<spice::PwlWave>(std::vector<std::pair<double, double>>{
          {0.0, 0.0}, {10e-12, 0.0}, {30e-12, 1.0}}));
  for (int k = 0; k < 150; ++k) {
    const std::string idx = std::to_string(k);
    const spice::NodeId next = ckt.node("n" + idx);
    ckt.add<devices::Resistor>("R" + idx, prev, next, 200.0);
    ckt.add<devices::Capacitor>("C" + idx, next, spice::kGround, 1e-15);
    if (k == 75) ckt.add<CountdownShifter>(prev, next, 6);
    prev = next;
  }
  ckt.set_solver_pool(pool);
  const spice::TransientResult r =
      spice::run_transient(ckt, spice::step_defaults(200e-12, 5e-12));
  stats = ckt.solver_cache().stats();
  return r;
}

// A device changing its stamp shape mid-run voids the split replay it
// deviates in (whichever device range it sits in) and is re-recorded
// exactly as on the inline loop.
TEST(ParallelAssembly, ShapeChangeUnderSplitPassIsReRecorded) {
  AssemblyCache::Stats inline_stats;
  const spice::TransientResult ref = run_shifting_ladder(nullptr, inline_stats);
  ASSERT_TRUE(ref.finished) << ref.failure;
  EXPECT_EQ(inline_stats.pattern_builds, 2u);
  EXPECT_EQ(inline_stats.parallel_passes, 0u);

  for (const std::size_t threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    util::ThreadPool pool(threads);
    AssemblyCache::Stats stats;
    const spice::TransientResult r = run_shifting_ladder(&pool, stats);
    ASSERT_TRUE(r.finished) << r.failure;
    EXPECT_EQ(stats.pattern_builds, 2u);  // the original and the re-record
    EXPECT_EQ(stats.assemblies, inline_stats.assemblies);
    EXPECT_GT(stats.parallel_passes, 0u);
    EXPECT_GT(stats.bound_passes, 0u);
    // Every successful replay ran split.
    EXPECT_EQ(stats.parallel_passes,
              stats.assemblies - stats.pattern_builds - 1);
    EXPECT_EQ(r.steps_taken, ref.steps_taken);
    EXPECT_EQ(r.newton_iterations, ref.newton_iterations);
    ASSERT_EQ(r.samples.size(), ref.samples.size());
    for (std::size_t i = 0; i < r.samples.size(); ++i)
      ASSERT_TRUE(same_bits(r.samples[i].data(), ref.samples[i].data(),
                            r.samples[i].size()))
          << "sample " << i;
    EXPECT_EQ(r.total_source_energy(), ref.total_source_energy());
  }
}

// The transient loop calls event_function, max_dt_hint, power and
// delivered_power only on devices whose hooks() declare them. A device
// that leaves a hook undeclared must return the neutral default there.
TEST(DeviceHooks, UndeclaredHooksReturnTheNeutralDefault) {
  spice::Circuit ckt;
  const auto a = ckt.node("a");
  const auto b = ckt.node("b");
  const auto c = ckt.node("c");
  const auto d = ckt.node("d");
  ckt.add<devices::Resistor>("R", a, b, 1e3);
  ckt.add<devices::Capacitor>("C", a, b, 1e-15);
  ckt.add<devices::Mosfet>("M", a, b, c, devices::MosfetParams::nmos_lp());
  ckt.add<devices::Fefet>("F", a, b, c);
  ckt.add<devices::Diode>("D", a, b);
  ckt.add<devices::Inductor>("L", a, b, 1e-9);
  ckt.add<devices::Mtj>("J", a, b);
  ckt.add<devices::NemRelay>("N", a, b, c, d);
  ckt.add<devices::Rram>("X", a, b);
  auto& vs = ckt.add<devices::VSource>("V", a, spice::kGround, 1.0);
  ckt.add<devices::ISource>("I", a, b, 1e-6);
  ckt.add<devices::Switch>("S", a, b);
  ckt.add<devices::Vcvs>("E", a, b, c, d, 2.0);
  ckt.add<devices::Vccs>("G", a, b, c, d, 1e-3);
  ckt.add<devices::Cccs>("FC", a, b, vs, 2.0);
  ckt.add<devices::Ccvs>("H", a, b, vs, 1e3);

  const std::size_t n = static_cast<std::size_t>(ckt.unknown_count());
  util::Rng rng(7);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<double> v(n), v_prev(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = rng.uniform(-2.0, 4.0);
      v_prev[i] = rng.uniform(-2.0, 4.0);
    }
    const StampContext ctx(1e-9, 1e-12, false, ckt.node_unknowns(), &v,
                           &v_prev, Integrator::Trapezoidal);
    for (const auto& dev : ckt.devices()) {
      SCOPED_TRACE(dev->name());
      const unsigned h = dev->hooks();
      const double inf = std::numeric_limits<double>::infinity();
      if (!(h & spice::kHookEventFunction)) {
        EXPECT_EQ(dev->event_function(ctx), inf);
      }
      if (!(h & spice::kHookMaxDtHint)) {
        EXPECT_EQ(dev->max_dt_hint(), inf);
      }
      if (!(h & spice::kHookPower)) {
        EXPECT_EQ(dev->power(ctx), 0.0);
      }
      if (!(h & spice::kHookDeliveredPower)) {
        EXPECT_EQ(dev->delivered_power(ctx), 0.0);
      }
    }
  }
}

// The pre-trim back-substitution: every off-diagonal entry of the pivot
// row, unsolved unknowns read as +0.
void full_loop_solve(const linalg::SparseLu& lu, std::vector<double>& bx) {
  const linalg::SparseLu::ScheduleView s = lu.schedule();
  double* y = bx.data();
  for (std::size_t st = 0; st < s.n; ++st) {
    const double yp = y[s.pivot_of_stage[st]];
    if (yp == 0.0) continue;
    for (std::size_t oi = s.stage_op_begin[st]; oi < s.stage_op_begin[st + 1]; ++oi)
      y[s.op_target[oi]] -= s.op_factor[oi] * yp;
  }
  std::vector<double> x(s.n, 0.0);
  for (std::size_t st = s.n; st-- > 0;) {
    const std::size_t p = s.pivot_of_stage[st];
    const std::size_t k = s.col_of_stage[st];
    double acc = y[p];
    for (std::size_t j = s.u_ptr[p]; j < s.u_ptr[p + 1]; ++j)
      if (s.u_cols[j] != k) acc -= s.u_vals[j] * x[s.u_cols[j]];
    x[k] = acc / s.u_vals[s.diag_idx[st]];
  }
  bx = x;
}

TEST(SparseLuTrim, BackSolveEqualsFullLoopBitwiseIncludingSignedZeros) {
  util::Rng rng(20240117);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 60));
    // Random sparse pattern with a dominant diagonal.
    std::vector<std::vector<std::pair<std::size_t, double>>> rows(n);
    for (std::size_t r = 0; r < n; ++r) {
      rows[r].emplace_back(r, rng.uniform(4.0, 8.0));
      const int extra = rng.uniform_int(0, 4);
      for (int e = 0; e < extra; ++e) {
        const auto c = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(n) - 1));
        bool dup = false;
        for (const auto& [cc, vv] : rows[r]) dup = dup || cc == c;
        if (!dup) rows[r].emplace_back(c, rng.uniform(-1.0, 1.0));
      }
      std::sort(rows[r].begin(), rows[r].end());
    }
    std::vector<std::size_t> row_ptr{0}, cols;
    std::vector<double> vals;
    for (const auto& row : rows) {
      for (const auto& [c, v] : row) {
        cols.push_back(c);
        vals.push_back(v);
      }
      row_ptr.push_back(cols.size());
    }
    linalg::CsrView a{n, row_ptr.data(), cols.data(), vals.data()};
    linalg::SparseLu lu(a);

    for (int refactor = 0; refactor < 2; ++refactor) {
      if (refactor == 1) {
        // Same pattern, new values; some off-diagonals exactly ±0.
        for (std::size_t r = 0; r < n; ++r)
          for (std::size_t j = row_ptr[r]; j < row_ptr[r + 1]; ++j) {
            const int pick = rng.uniform_int(0, 5);
            vals[j] = cols[j] == r ? rng.uniform(4.0, 8.0)
                      : pick == 0  ? 0.0
                      : pick == 1  ? -0.0
                                   : rng.uniform(-1.0, 1.0);
          }
        // A reused pivot may degenerate under the new values; the fresh
        // factorization then re-picks the order from them.
        if (!lu.refactorize(a)) lu.factorize(a);
      }
      for (int rhs_kind = 0; rhs_kind < 3; ++rhs_kind) {
        std::vector<double> b(n);
        for (std::size_t i = 0; i < n; ++i) {
          const int pick = rng.uniform_int(0, 3);
          b[i] = rhs_kind == 0 ? rng.uniform(-1.0, 1.0)  // generic
                 : pick == 0   ? -0.0                    // signed zeros
                 : pick == 1 || rhs_kind == 1 ? 0.0
                                              : rng.uniform(-1.0, 1.0);
        }
        std::vector<double> trimmed = b, full = b;
        lu.solve_inplace(trimmed);
        full_loop_solve(lu, full);
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(std::bit_cast<std::uint64_t>(trimmed[i]),
                    std::bit_cast<std::uint64_t>(full[i]))
              << "trial " << trial << " refactor " << refactor << " rhs "
              << rhs_kind << " unknown " << i << ": " << trimmed[i] << " vs "
              << full[i];
      }
    }
  }
}

}  // namespace
