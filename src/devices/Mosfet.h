// Compact MOSFET model (simplified EKV) with PTM-45nm-LP-like defaults.
//
// The charge-sheet interpolation
//   Ids = Is·[F(x_f) − F(x_r)],  F(x) = ln(1 + e^{x/2})²,
//   x_f = (V_GS − V_th)/(n·v_T),  x_r = (V_GD − V_th)/(n·v_T),
//   Is  = 2·n·v_T²·kp
// is smooth across subthreshold / triode / saturation (good Newton
// behaviour), symmetric in drain/source (pass-gate correct), and gives a
// physical exponential subthreshold leak — which is what sets the dynamic
// TCAM's retention time, so it matters here.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "devices/Passive.h"
#include "spice/Device.h"
#include "spice/Stamper.h"

namespace nemtcam::devices {

using spice::Device;
using spice::NodeId;
using spice::StampContext;
using spice::Stamper;

enum class MosType { Nmos, Pmos };

struct MosfetParams {
  MosType type = MosType::Nmos;
  double vth = 0.46;       // |threshold| (V); PTM 45 nm LP-like
  double kp = 3.0e-4;      // transconductance µCox·W/L (A/V²)
  double n_slope = 1.35;   // subthreshold slope factor
  double cgs = 0.0;        // gate-source capacitance (F)
  double cgd = 0.0;        // gate-drain capacitance (F)
  double cdb = 0.0;        // drain-bulk junction capacitance to ground (F)
  double csb = 0.0;        // source-bulk junction capacitance to ground (F)
  // Opt-in accuracy knob for LTE-controlled transients: report the V_GS =
  // V_th conduction edge through Device::event_function so the engine lands
  // a step on turn-off crossings. Off by default — the EKV interpolation is
  // smooth, so most circuits don't need the extra solves.
  bool event_on_vth = false;

  static MosfetParams nmos_lp(double width_scale = 1.0);
  static MosfetParams pmos_lp(double width_scale = 1.0);
};

// Evaluated drain current and partial derivatives (NMOS sign convention:
// current flows D→S when positive).
struct MosEval {
  double ids = 0.0;
  double g_vg = 0.0;  // ∂Ids/∂v_G
  double g_vd = 0.0;  // ∂Ids/∂v_D
  double g_vs = 0.0;  // ∂Ids/∂v_S
};

// Pure model evaluation given terminal voltages (shared with Fefet, which
// substitutes a polarization-dependent threshold).
//
// ekv_eval is memoized: a bounded, direct-mapped, per-thread table keyed on
// the exact bit patterns of every input the model reads (type, n_slope,
// kp, vth_eff and the three terminal voltages). The model is a pure
// function of those bits, so a hit returns exactly what a fresh evaluation
// would. Cells of a TCAM row that hold the same (stored, key) trit pair sit
// at identical node voltages, so most evaluations in a stamp pass repeat
// one already made in the same pass. ekv_eval_uncached is the reference
// evaluation behind the memo.
MosEval ekv_eval(const MosfetParams& p, double vth_eff, double v_g, double v_d,
                 double v_s);
MosEval ekv_eval_uncached(const MosfetParams& p, double vth_eff, double v_g,
                          double v_d, double v_s);

// Memo geometry and per-thread counters (tests and telemetry). The table
// is allocated on a thread's first ekv_eval, so threads that never
// evaluate a transistor (the BBD solver's pool workers) do not pay for it.
inline constexpr std::size_t kEkvMemoSlots = 4096;
struct EkvMemoStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
};
EkvMemoStats ekv_memo_stats();
// Slot an input tuple maps to; exposed so tests can force collisions.
std::size_t ekv_memo_slot(const MosfetParams& p, double vth_eff, double v_g,
                          double v_d, double v_s);

// Small-signal summary helpers behind Device::topology() (shared with
// Fefet): effective switch resistance of the fully driven channel and
// worst-case off-state leak conductance, both chord values at the
// library's nominal 1 V rail (see DeviceTopology::Coupling).
// The rail the summaries are referenced to; also published as each
// channel coupling's v_gs_ref so the STA engine can derate for partial
// gate drive.
inline constexpr double kSummaryRail = 1.0;
// v_T at 300 K, shared with the Fefet and the coupling summary's
// subthreshold-slope voltage (v_slope = n·v_T).
inline constexpr double kThermalVoltage = 0.02585;
double ekv_switch_resistance(const MosfetParams& p, double vth_eff);
double ekv_off_leak(const MosfetParams& p, double vth_eff);

// The stamp both transistor families share: the EKV channel between d and
// s, linearized at the iterate (three VCCS and an equivalent current), plus
// four companion capacitors g–s, g–d, d–ground and s–ground with the same
// Backward-Euler/trapezoidal scheme as CapCompanion. The companion
// conductances k·C/dt are computed once per (dt, integrator) and shared by
// stamp and commit. A transient pass stamps through the device's binding
// to its recorded stamp range (Stamper::bound); a DC pass, where the
// capacitors are open and the shape differs, stamps key-checked.
class TransistorStamp {
 public:
  // Capacitances in the order g–s, g–d, d–ground, s–ground (F).
  TransistorStamp(NodeId d, NodeId g, NodeId s, std::array<double, 4> caps)
      : d_(d), g_(g), s_(s), c_(caps) {}

  void stamp(Stamper& st, const StampContext& ctx, const MosfetParams& p,
             double vth_eff);
  void commit(const StampContext& ctx);
  // Drops the companion current history.
  void reset() { i_prev_ = {}; }

  NodeId d() const noexcept { return d_; }
  NodeId g() const noexcept { return g_; }
  NodeId s() const noexcept { return s_; }

 private:
  // Refreshes g_c_ when (dt, integrator) changed since the last call.
  void update_companions(const StampContext& ctx);

  NodeId d_, g_, s_;
  bool g_trap_ = false;  // integrator g_c_ was computed for
  std::array<double, 4> c_;           // companion capacitances (F)
  std::array<double, 4> i_prev_{};    // trapezoidal current history (A)
  std::array<double, 4> g_c_{};       // k·C/dt (S)
  double g_dt_ = 0.0;                 // dt g_c_ was computed for (0 = none)
  spice::StampBinding binding_;
};

class Mosfet final : public Device {
 public:
  Mosfet(std::string name, NodeId d, NodeId g, NodeId s, MosfetParams params);

  void stamp(Stamper& s, const StampContext& ctx) override;
  unsigned hooks() const override {
    return spice::kHookPower |
           (params_.event_on_vth ? spice::kHookEventFunction : 0u);
  }
  void commit(const StampContext& ctx) override;
  spice::DeviceTopology topology() const override;
  double event_function(const StampContext& ctx) const override;
  double power(const StampContext& ctx) const override;

  const MosfetParams& params() const noexcept { return params_; }
  // Drain current at the given context (telemetry / tests).
  double ids(const StampContext& ctx) const;

  // Aging hook: shift |V_th| by delta volts (BTI drift). Clamped to
  // [kVthMin, kVthMax]: an extreme negative excursion degrades to
  // always-on rather than a nonsensical negative threshold, and
  // multi-year BTI accumulation saturates at a cannot-turn-on ceiling
  // instead of growing without bound.
  void shift_vth(double delta_v) {
    const double vth = params_.vth + delta_v;
    params_.vth = vth < kVthMin ? kVthMin : (vth > kVthMax ? kVthMax : vth);
  }

  // Fault-injection hook: set |V_th| to the design-nominal value plus an
  // absolute outlier offset, same clamp as shift_vth. Absolute so that
  // re-applying the same fault is idempotent — the lifetime engine
  // re-injects a row's fault list into its persistent measurement
  // template on every circuit check.
  void set_vth_outlier(double offset_v) {
    const double vth = vth_nominal_ + offset_v;
    params_.vth = vth < kVthMin ? kVthMin : (vth > kVthMax ? kVthMax : vth);
  }

  static constexpr double kVthMin = 0.01;  // V: effectively always-on
  static constexpr double kVthMax = 1.5;   // V: off at any on-chip gate drive

  void reset_state() override { core_.reset(); }

 private:
  MosfetParams params_;
  const double vth_nominal_ = params_.vth;  // pre-aging |V_th| for outliers
  TransistorStamp core_;
  // topology() summary cache: ekv_switch_resistance / ekv_off_leak are
  // pure in (params, |V_th|) but cost transcendental evaluations, and the
  // STA engine re-summarizes every device per analysis. |V_th| is the only
  // parameter the aging / fault hooks mutate, so it is the cache key.
  mutable double sum_vth_ = -1.0;
  mutable double sum_r_on_ = 0.0;
  mutable double sum_g_off_ = 0.0;
};

}  // namespace nemtcam::devices
