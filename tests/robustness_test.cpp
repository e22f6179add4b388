// Failure paths must produce diagnostics, not crashes: singular systems
// (floating nodes from fractured relay contacts), Newton stalls on
// bistable circuits, DC failures that still return a usable partial
// solution, and parse errors that name the offending token.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "arch/LpmTable.h"
#include "devices/Mosfet.h"
#include "devices/NemRelay.h"
#include "devices/Passive.h"
#include "devices/Sources.h"
#include "netlist/Netlist.h"
#include "spice/AssemblyCache.h"
#include "spice/Newton.h"
#include "spice/Recovery.h"
#include "spice/Transient.h"

namespace {

using namespace nemtcam;
using namespace nemtcam::spice;
using devices::Mosfet;
using devices::MosfetParams;
using devices::NemRelay;
using devices::NemRelayParams;
using devices::Resistor;
using devices::VSource;

// A fractured-beam cell fragment: the drain is driven, but the relay is
// stuck open with a true zero off-leakage (g_off = 0), so the source node
// has no DC path anywhere — its MNA row is exactly zero.
NodeId build_floating_node_circuit(Circuit& ckt) {
  const NodeId d = ckt.node("d");
  const NodeId s = ckt.node("s");
  ckt.add<VSource>("Vin", d, ckt.ground(), 1.0);
  NemRelayParams p;
  p.g_off = 0.0;  // fractured beam: the air gap is a true open
  auto& relay = ckt.add<NemRelay>("N1_0", d, ckt.ground(), s, ckt.ground(), p);
  relay.force_stuck(/*closed=*/false);
  return s;
}

// Cross-coupled NMOS latch with resistor pullups: bistable, and from the
// symmetric all-zero guess Newton needs many damped iterations to settle,
// so a tight iteration budget produces a clean stall (not a crash).
void build_bistable_latch(Circuit& ckt) {
  const NodeId vdd = ckt.node("vdd");
  const NodeId a = ckt.node("a");
  const NodeId b = ckt.node("b");
  ckt.add<VSource>("Vdd", vdd, ckt.ground(), 1.0);
  ckt.add<Resistor>("Ra", vdd, a, 10e3);
  ckt.add<Resistor>("Rb", vdd, b, 10e3);
  ckt.add<Mosfet>("M1", a, b, ckt.ground(), MosfetParams::nmos_lp());
  ckt.add<Mosfet>("M2", b, a, ckt.ground(), MosfetParams::nmos_lp());
}

TEST(SingularSystem, FloatingNodeSetsSingularFlagInsteadOfThrowing) {
  Circuit ckt;
  build_floating_node_circuit(ckt);
  std::vector<double> v(static_cast<std::size_t>(ckt.unknown_count()), 0.0);
  const std::vector<double> v_prev = v;
  NewtonOptions opts;  // gmin = 0: nothing holds the floating node
  NewtonResult r;
  ASSERT_NO_THROW(r = solve_newton(ckt, 0.0, 0.0, /*is_dc=*/true, v, v_prev,
                                   opts));
  EXPECT_FALSE(r.converged);
  EXPECT_TRUE(r.singular);
}

TEST(SingularSystem, RecoveryLadderRescuesFloatingNodeViaGminRamp) {
  Circuit ckt;
  const NodeId s = build_floating_node_circuit(ckt);
  std::vector<double> v(static_cast<std::size_t>(ckt.unknown_count()), 0.0);
  const std::vector<double> v_prev = v;
  NewtonOptions opts;  // gmin = 0, so plain Newton is singular
  SolverDiagnostics diag;
  const NewtonResult r = solve_newton_recovering(
      ckt, 0.0, 0.0, /*is_dc=*/true, v, v_prev, opts, RecoveryOptions{}, &diag);

  ASSERT_TRUE(r.converged);
  EXPECT_TRUE(diag.recovered);
  EXPECT_EQ(diag.converged_stage, LadderStage::GminRamp);
  EXPECT_TRUE(diag.saw_singular);
  // The floating node is held by a residual gmin floor — reported, small.
  EXPECT_GT(diag.residual_gmin, 0.0);
  EXPECT_LE(diag.residual_gmin, 1e-9);
  ASSERT_FALSE(diag.attempts.empty());
  EXPECT_FALSE(diag.summary().empty());
  // The driven side of the circuit solved exactly.
  const NodeId d = ckt.node("d");
  EXPECT_NEAR(v[static_cast<std::size_t>(d - 1)], 1.0, 1e-6);
  // The floating node sits at ground through the gmin floor.
  EXPECT_NEAR(v[static_cast<std::size_t>(s - 1)], 0.0, 1e-3);
}

TEST(SingularSystem, TransientEngagesLadderAndKeepsStickyGmin) {
  Circuit ckt;
  build_floating_node_circuit(ckt);
  TransientOptions opts;
  opts.t_end = 1e-9;
  opts.dt_init = 1e-12;
  const TransientResult res = run_transient(ckt, opts);

  ASSERT_TRUE(res.finished) << res.failure;
  // The first step's singular solve engaged the ladder once; the accepted
  // residual gmin then sticks so later steps converge on plain Newton.
  EXPECT_GE(res.steps_recovered, 1u);
  EXPECT_TRUE(res.diagnostics.recovered);
  EXPECT_EQ(res.diagnostics.converged_stage, LadderStage::GminRamp);
  EXPECT_GT(res.residual_gmin, 0.0);
  EXPECT_LE(res.residual_gmin, 1e-9);
}

TEST(NewtonStall, BistableLatchStallReportsWorstUnknown) {
  Circuit ckt;
  build_bistable_latch(ckt);
  std::vector<double> v(static_cast<std::size_t>(ckt.unknown_count()), 0.0);
  const std::vector<double> v_prev = v;
  NewtonOptions opts;
  opts.max_iterations = 2;  // far too few for the damped climb from zero
  NewtonResult r;
  ASSERT_NO_THROW(r = solve_newton(ckt, 0.0, 0.0, /*is_dc=*/true, v, v_prev,
                                   opts));
  EXPECT_FALSE(r.converged);
  EXPECT_FALSE(r.singular);
  EXPECT_EQ(r.iterations, 2);
  ASSERT_GE(r.worst_unknown, 0);
  EXPECT_FALSE(unknown_name(ckt, r.worst_unknown).empty());
}

TEST(NewtonStall, RecoveryLadderRescuesLatchBeyondPlainNewton) {
  Circuit ckt;
  build_bistable_latch(ckt);
  std::vector<double> v(static_cast<std::size_t>(ckt.unknown_count()), 0.0);
  const std::vector<double> v_prev = v;
  NewtonOptions opts;
  opts.max_iterations = 2;
  RecoveryOptions rec;
  rec.max_iterations_scale = 40;  // recovery stages get a real budget
  SolverDiagnostics diag;
  const NewtonResult r = solve_newton_recovering(
      ckt, 0.0, 0.0, /*is_dc=*/true, v, v_prev, opts, rec, &diag);

  ASSERT_TRUE(r.converged) << diag.summary();
  EXPECT_TRUE(diag.recovered);
  EXPECT_NE(diag.converged_stage, LadderStage::Newton);
  ASSERT_GE(diag.attempts.size(), 2u);  // the plain attempt plus the rescue
  EXPECT_FALSE(diag.attempts.front().converged);
  // The latch settled on a real solution: pullups and pulldowns balance.
  const double va = v[static_cast<std::size_t>(ckt.node("a") - 1)];
  const double vb = v[static_cast<std::size_t>(ckt.node("b") - 1)];
  EXPECT_GE(va, 0.0);
  EXPECT_LE(va, 1.0 + 1e-6);
  EXPECT_GE(vb, 0.0);
  EXPECT_LE(vb, 1.0 + 1e-6);
}

// Stage 5 keeps its contract on the solver cache: every iteration starts
// from an invalidated cache, so it rebuilds the stamp pattern and runs a
// full factorization (fresh pivot order), all as one ladder attempt.
TEST(NewtonStall, FullRefactorStageRebuildsPatternEveryIteration) {
  // The latch with a one-iteration budget (four in the recovery stages)
  // fails every stage, so the ladder runs until its budget is spent.
  const auto run_ladder = [](int retry_budget, SolverDiagnostics& diag) {
    Circuit ckt;
    build_bistable_latch(ckt);
    std::vector<double> v(static_cast<std::size_t>(ckt.unknown_count()), 0.0);
    const std::vector<double> v_prev = v;
    NewtonOptions opts;
    opts.max_iterations = 1;
    RecoveryOptions rec;
    rec.retry_budget = retry_budget;
    solve_newton_recovering(ckt, 0.0, 0.0, /*is_dc=*/true, v, v_prev, opts,
                            rec, &diag);
    return ckt.solver_cache().stats();
  };

  SolverDiagnostics full;
  const AssemblyCache::Stats with_stage5 = run_ladder(12, full);
  ASSERT_FALSE(full.attempts.empty());
  const LadderAttempt& last = full.attempts.back();
  ASSERT_EQ(last.stage, LadderStage::FullRefactor) << full.summary();
  int refactor_attempts = 0;
  for (const LadderAttempt& a : full.attempts)
    if (a.stage == LadderStage::FullRefactor) ++refactor_attempts;
  EXPECT_EQ(refactor_attempts, 1);
  ASSERT_GT(last.iterations, 1);

  // The same ladder with the budget ending just before stage 5.
  const int before_stage5 = static_cast<int>(full.attempts.size()) - 1;
  SolverDiagnostics cut;
  const AssemblyCache::Stats without_stage5 =
      run_ladder(before_stage5 - 1, cut);
  ASSERT_EQ(static_cast<int>(cut.attempts.size()), before_stage5);
  EXPECT_NE(cut.attempts.back().stage, LadderStage::FullRefactor);

  const auto iterations = static_cast<std::uint64_t>(last.iterations);
  EXPECT_EQ(with_stage5.pattern_builds - without_stage5.pattern_builds,
            iterations);
  EXPECT_EQ(with_stage5.full_factorizations -
                without_stage5.full_factorizations,
            iterations);
  EXPECT_EQ(with_stage5.refactorizations, without_stage5.refactorizations);
}

TEST(DcPartial, FailedDcReturnsBestPartialWithAttribution) {
  Circuit ckt;
  build_bistable_latch(ckt);
  DcOptions opts;
  opts.newton.max_iterations = 2;
  opts.recover = false;  // exercise the bare gmin-ladder failure contract
  DcResult dc;
  ASSERT_NO_THROW(dc = dc_operating_point(ckt, opts));
  EXPECT_FALSE(dc.converged);
  // The partial solution is still a full-sized vector usable as a guess.
  ASSERT_EQ(dc.v.size(), static_cast<std::size_t>(ckt.unknown_count()));
  EXPECT_GT(dc.last_gmin, 0.0);
  ASSERT_GE(dc.worst_unknown, 0);
  EXPECT_FALSE(dc.worst_node.empty());
}

TEST(DcPartial, RecoveryLadderMarksRecoveredDcSolution) {
  Circuit ckt;
  build_bistable_latch(ckt);
  DcOptions opts;
  opts.newton.max_iterations = 2;  // plain ladder stalls at every rung
  DcResult dc;
  ASSERT_NO_THROW(dc = dc_operating_point(ckt, opts));
  EXPECT_TRUE(dc.converged);
  EXPECT_TRUE(dc.recovered);
  EXPECT_FALSE(dc.recovery_stage.empty());
  EXPECT_NE(dc.recovery_stage, "newton");
}

TEST(ParseErrors, Ipv4ErrorNamesOffendingOctetAndToken) {
  try {
    arch::parse_ipv4("10.999.0.1");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("octet 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'999'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("exceeds 255"), std::string::npos) << msg;
  }
  try {
    arch::parse_ipv4("10.0.0");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("octet 3"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(arch::parse_ipv4("1.2.3.4.5"), std::invalid_argument);
  EXPECT_THROW(arch::parse_ipv4("a.b.c.d"), std::invalid_argument);
}

TEST(ParseErrors, NetlistNumberErrorCarriesTokenAndLine) {
  const std::string deck =
      "bad resistor deck\n"
      "R1 a 0 12x34\n"
      ".end\n";
  try {
    parse_netlist(deck);
    FAIL() << "expected NetlistError";
  } catch (const NetlistError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("12x34"), std::string::npos) << msg;
  }
}

}  // namespace
