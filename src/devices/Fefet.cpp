#include "devices/Fefet.h"

#include <algorithm>
#include <limits>

namespace nemtcam::devices {

Fefet::Fefet(std::string name, NodeId d, NodeId g, NodeId s, FefetParams params)
    : Device(std::move(name)), params_(params),
      core_(d, g, s,
            {params.c_fe + params.fet.cgs, params.fet.cgd, params.fet.cdb,
             params.fet.csb}) {
  NEMTCAM_EXPECT(params_.vth_low < params_.vth_high);
  NEMTCAM_EXPECT(params_.v_coercive < params_.v_write);
  NEMTCAM_EXPECT(params_.t_write > 0.0);
}

double Fefet::vth_eff() const noexcept {
  const double mid = 0.5 * (params_.vth_low + params_.vth_high);
  const double half_span = 0.5 * (params_.vth_high - params_.vth_low);
  return mid - p_ * half_span;
}

void Fefet::stamp(Stamper& s, const StampContext& ctx) {
  core_.stamp(s, ctx, params_.fet, vth_eff());
}

void Fefet::commit(const StampContext& ctx) {
  const double vgs = ctx.v(core_.g()) - ctx.v(core_.s());
  const double dt = ctx.dt();
  const double vc = params_.v_coercive;
  const double p_before = p_;
  if (vgs > vc) {
    const double rate = (vgs - vc) / (params_.v_write - vc);
    p_ += rate * dt / params_.t_write * 2.0;  // full swing is 2 (−1 → +1)
  } else if (vgs < -vc) {
    const double rate = (-vgs - vc) / (params_.v_write - vc);
    p_ -= rate * dt / params_.t_write * 2.0;
  }
  p_ = std::clamp(p_, -1.0, 1.0);
  moving_ = (vgs > vc && p_ < 1.0) || (vgs < -vc && p_ > -1.0);
  if (p_before < 0.9 && p_ >= 0.9) t_program_ = ctx.t();
  if (p_before > -0.9 && p_ <= -0.9) t_erase_ = ctx.t();

  core_.commit(ctx);
}

double Fefet::max_dt_hint() const {
  // Resolve polarization motion; an idle device leaves the step free — the
  // event function guarantees a step lands on the coercive-voltage crossing
  // that starts the motion.
  if (!moving_) return std::numeric_limits<double>::infinity();
  return params_.t_write / 200.0;
}

double Fefet::event_function(const StampContext& ctx) const {
  if (ctx.dc()) return std::numeric_limits<double>::infinity();
  // Armed surface is chosen from the step-start voltage and committed
  // state, so both ends of a step evaluate the same surface.
  const double vc = params_.v_coercive;
  const double vgs_prev = ctx.v_prev(core_.g()) - ctx.v_prev(core_.s());
  const double vgs = ctx.v(core_.g()) - ctx.v(core_.s());
  if (vgs_prev > vc && p_ < 1.0) {
    // Erase in progress: the event is polarization saturating at +1,
    // projected with this step's end-point rate.
    const double rate = std::max(vgs - vc, 0.0) / (params_.v_write - vc);
    return 1.0 - (p_ + rate * ctx.dt() / params_.t_write * 2.0);
  }
  if (vgs_prev < -vc && p_ > -1.0) {
    const double rate = std::max(-vgs - vc, 0.0) / (params_.v_write - vc);
    return (p_ - rate * ctx.dt() / params_.t_write * 2.0) + 1.0;
  }
  // Idle: the event is the gate drive crossing either coercive threshold.
  return std::min(vc - vgs, vgs + vc);
}

double Fefet::power(const StampContext& ctx) const {
  const MosEval e =
      ekv_eval(params_.fet, vth_eff(), ctx.v(core_.g()), ctx.v(core_.d()),
               ctx.v(core_.s()));
  return e.ids * (ctx.v(core_.d()) - ctx.v(core_.s()));
}

void Fefet::set_polarization(double p) {
  NEMTCAM_EXPECT(p >= -1.0 && p <= 1.0);
  p_ = p;
}

void Fefet::set_memory_window(double vth_low, double vth_high) {
  params_.vth_low = vth_low;
  params_.vth_high = std::max(vth_high, vth_low + kWindowMin);
}


spice::DeviceTopology Fefet::topology() const {
  spice::DeviceTopology t{{{"d", core_.d()},
                           {"g", core_.g()},
                           {"s", core_.s()}},
                          {{0, 2, spice::DcCoupling::Conductive},
                           {1, 0, spice::DcCoupling::Capacitive},
                           {1, 2, spice::DcCoupling::Capacitive}}};
  // Same macro-model as the MOSFET, at the polarization-dependent
  // threshold: the LVT state is a real switch, the HVT state reports a
  // huge r_on plus the above-rail off-leak — the 2FeFET matched-row droop.
  auto& ch = t.couplings[0];
  ch.r_on = ekv_switch_resistance(params_.fet, vth_eff());
  ch.g_off = ekv_off_leak(params_.fet, vth_eff());
  ch.ctrl = 1;
  ch.v_on = vth_eff();
  ch.active_low = params_.fet.type == MosType::Pmos;
  ch.v_gs_ref = kSummaryRail;
  ch.v_slope = params_.fet.n_slope * kThermalVoltage;
  t.couplings[1].c = params_.fet.cgd;
  t.couplings[2].c = params_.fet.cgs + params_.c_fe;
  t.terminals[0].c_ground = params_.fet.cdb;
  t.terminals[2].c_ground = params_.fet.csb;
  return t;
}

}  // namespace nemtcam::devices
