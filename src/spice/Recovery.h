// Convergence-recovery ladder: bounded escalation when a Newton solve
// fails, with structured diagnostics instead of a bare bool.
//
// A hard circuit — a stuck relay shorting a storage node, a broken beam
// leaving a node floating, a near-singular stamp, a bistable latch solved
// from a symmetric guess — used to kill the whole analysis: solve_newton
// silently returned converged = false, or SparseLu escaped as a raw
// SingularMatrixError. The ladder retries the same solve under
// progressively stronger convergence aids, in a fixed order chosen so the
// cheap, least-intrusive aids run first:
//
//   1. Newton          — the caller's options, unchanged (the fast path).
//   2. damped-newton   — much tighter per-iteration damping and a larger
//                        iteration budget; rescues oscillating iterations
//                        (latch metastability, exponential-model overshoot).
//   3. gmin-ramp       — a conductance to ground on every node, relaxed
//                        rung by rung toward the caller's gmin. Rescues
//                        singular systems (floating nodes from stuck-open
//                        contacts) and wild exponential stamps. If only a
//                        nonzero gmin floor converges, that solution is
//                        accepted and the floor reported — the standard
//                        SPICE answer to a genuinely floating node.
//   4. source-stepping — DC only: ramp every independent source from 10%
//                        to full drive, warm-starting each rung from the
//                        last. Rescues bistable/positive-feedback circuits
//                        where full drive from a cold guess has no Newton
//                        path.
//   5. full-refactor   — invalidate the solver cache before every
//                        iteration: a fresh stamp pattern, symbolic
//                        analysis and full factorization (fresh pivot
//                        order) each time. Rescues pivot-order
//                        degeneration that the cached symbolic LU cannot.
//
// Every attempt is recorded in a SolverDiagnostics so a failure is
// attributable: which stage, which gmin, which node refused to settle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spice/Newton.h"

namespace nemtcam::spice {

enum class LadderStage {
  Newton = 0,      // plain solve with the caller's options
  DampedNewton,    // tighter damping + larger iteration budget
  GminRamp,        // gmin relaxation toward the caller's gmin
  SourceStepping,  // DC only: source continuation from 10% drive
  FullRefactor,    // fresh analysis + full factorization every iteration
};

const char* stage_name(LadderStage s);

// One solve attempt inside the ladder (the iteration trace).
struct LadderAttempt {
  LadderStage stage = LadderStage::Newton;
  double gmin = 0.0;          // gmin in effect for this attempt
  double source_scale = 1.0;  // source drive fraction (source stepping)
  int iterations = 0;
  double max_delta = 0.0;
  bool converged = false;
  bool singular = false;
};

struct SolverDiagnostics {
  // A stage beyond plain Newton produced the returned solution.
  bool recovered = false;
  LadderStage converged_stage = LadderStage::Newton;
  // Deepest stage tried when the whole ladder failed.
  LadderStage failure_stage = LadderStage::Newton;
  // The unknown with the largest |Δv| at the last failed attempt and its
  // node name ("b<k>" for branch unknowns); the classic "which node is
  // floating / which latch is metastable" question.
  int worst_unknown = -1;
  std::string worst_node;
  double worst_delta = 0.0;
  // gmin floor the accepted solution needed (0 = none): nonzero means a
  // genuinely floating node is being held by the ladder, not the circuit.
  double residual_gmin = 0.0;
  double last_gmin = 0.0;  // gmin in effect at the final attempt
  bool saw_singular = false;
  std::vector<LadderAttempt> attempts;

  // One-line human summary ("recovered via gmin-ramp (gmin=1e-09) after
  // 3 attempts" / "failed at source-stepping, worst node 'stg1_0'").
  std::string summary() const;
};

struct RecoveryOptions {
  bool enabled = true;
  // Upper bound on ladder solve attempts per recovery (all stages
  // combined); also bounds the per-step Newton dt backoffs in
  // run_transient before the ladder is engaged.
  int retry_budget = 12;
  // Damping limit used by the recovery stages (volts).
  double damp_tight = 0.05;
  // Iteration-budget multiplier applied to the caller's max_iterations in
  // recovery stages.
  int max_iterations_scale = 4;
  // gmin relaxation schedule, descending; the caller's own gmin is
  // appended as the final rung. If only an intermediate rung converges,
  // the smallest converging rung is accepted as a residual gmin floor.
  std::vector<double> gmin_ramp = {1e-3, 1e-5, 1e-7, 1e-9, 1e-12};
  // Number of source-continuation rungs between 10% and full drive.
  int source_steps = 6;
};

// Solves like solve_newton but escalates through the recovery ladder on
// failure. `v` carries the initial guess in and the best solution out (on
// total failure: the last partial iterate). When `diag` is non-null the
// attempt trace and failure attribution are recorded there; names are
// resolved through `circuit`.
NewtonResult solve_newton_recovering(Circuit& circuit, double t, double dt,
                                     bool is_dc, std::vector<double>& v,
                                     const std::vector<double>& v_prev,
                                     const NewtonOptions& opts,
                                     const RecoveryOptions& recovery,
                                     SolverDiagnostics* diag,
                                     Integrator integrator =
                                         Integrator::BackwardEuler);

// Resolves an unknown index to a printable name: node name for node
// unknowns, "b<k>" for branch unknowns, "" for -1.
std::string unknown_name(const Circuit& circuit, int unknown);

}  // namespace nemtcam::spice
