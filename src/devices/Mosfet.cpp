#include "devices/Mosfet.h"

#include <array>
#include <bit>
#include <cmath>
#include <memory>

#include "devices/Passive.h"

namespace nemtcam::devices {

namespace {

// softplus(x) = ln(1 + e^x) with overflow guard; also returns sigmoid(x)
// (its derivative).
struct Softplus {
  double value;
  double derivative;
};

Softplus softplus(double x) {
  if (x > 40.0) return {x, 1.0};
  if (x < -40.0) {
    const double e = std::exp(x);
    return {e, e};
  }
  const double e = std::exp(x);
  return {std::log1p(e), e / (1.0 + e)};
}

// F(x) = ln(1 + e^{x/2})², F'(x) = ln(1 + e^{x/2})·sigmoid(x/2).
struct FEval {
  double value;
  double derivative;
};

FEval charge_fn(double x) {
  const Softplus sp = softplus(0.5 * x);
  return {sp.value * sp.value, sp.value * sp.derivative};
}

// --- ekv_eval memo (see Mosfet.h) ----------------------------------------

// Exact bit patterns of every input ekv_eval_uncached reads. Comparing
// bits rather than values keeps ±0.0 (and any NaN payload) apart, so a hit
// is exactly the call that filled the slot.
struct EkvKey {
  std::array<std::uint64_t, 6> bits;  // v_g, v_d, v_s, vth_eff, kp, n_slope
  bool pmos;
};

EkvKey ekv_key(const MosfetParams& p, double vth_eff, double v_g, double v_d,
               double v_s) {
  return {{std::bit_cast<std::uint64_t>(v_g), std::bit_cast<std::uint64_t>(v_d),
           std::bit_cast<std::uint64_t>(v_s),
           std::bit_cast<std::uint64_t>(vth_eff),
           std::bit_cast<std::uint64_t>(p.kp),
           std::bit_cast<std::uint64_t>(p.n_slope)},
          p.type == MosType::Pmos};
}

static_assert(std::has_single_bit(kEkvMemoSlots));
constexpr int kEkvMemoShift = 64 - std::countr_zero(kEkvMemoSlots);

std::size_t ekv_slot(const EkvKey& k) {
  // Multiplicative hashing with one odd constant per input: a product's
  // high bits depend on every bit of its input, so keys differing only in
  // the last mantissa bit still spread, and the six multiplies are
  // independent (no serial chain on the hit path).
  const auto& b = k.bits;
  const std::uint64_t h =
      (b[0] * 0x9E3779B97F4A7C15ULL + b[1] * 0xC2B2AE3D27D4EB4FULL) ^
      (b[2] * 0x165667B19E3779F9ULL + b[3] * 0xD6E8FEB86659FD93ULL) ^
      (b[4] * 0xFF51AFD7ED558CCDULL + b[5] * 0xC4CEB9FE1A85EC53ULL) ^
      (k.pmos ? 0x94D049BB133111EBULL : 0);
  return static_cast<std::size_t>(h >> kEkvMemoShift);
}

struct EkvSlot {
  std::array<std::uint64_t, 6> bits;  // EkvKey, flattened so that `valid`
  bool pmos;                          // packs beside `pmos`
  bool valid;  // explicit occupancy: no key value is reserved to mean empty
  MosEval value;
};
static_assert(sizeof(EkvSlot) == 88);

struct EkvMemo {
  std::array<EkvSlot, kEkvMemoSlots> slots{};  // value-initialized: all empty
  EkvMemoStats stats;
};

EkvMemo& ekv_memo() {
  thread_local const std::unique_ptr<EkvMemo> memo = std::make_unique<EkvMemo>();
  return *memo;
}

}  // namespace

MosfetParams MosfetParams::nmos_lp(double width_scale) {
  MosfetParams p;
  p.type = MosType::Nmos;
  p.vth = 0.46;
  p.kp = 3.0e-4 * width_scale;
  p.n_slope = 1.35;
  // Minimal-size 45 nm device capacitances (gate ≈ W·L·Cox ≈ 0.18 fF plus
  // overlap, junctions ≈ 0.08 fF), scaled with width.
  p.cgs = 90e-18 * width_scale;
  p.cgd = 90e-18 * width_scale;
  p.cdb = 40e-18 * width_scale;
  p.csb = 40e-18 * width_scale;
  return p;
}

MosfetParams MosfetParams::pmos_lp(double width_scale) {
  MosfetParams p = nmos_lp(width_scale);
  p.type = MosType::Pmos;
  p.vth = 0.49;
  p.kp = 1.4e-4 * width_scale;  // hole mobility penalty
  return p;
}

MosEval ekv_eval(const MosfetParams& p, double vth_eff, double v_g, double v_d,
                 double v_s) {
  const EkvKey key = ekv_key(p, vth_eff, v_g, v_d, v_s);
  EkvMemo& memo = ekv_memo();
  ++memo.stats.lookups;
  EkvSlot& slot = memo.slots[ekv_slot(key)];
  if (slot.valid && slot.pmos == key.pmos && slot.bits == key.bits) {
    ++memo.stats.hits;
    return slot.value;
  }
  slot.value = ekv_eval_uncached(p, vth_eff, v_g, v_d, v_s);
  slot.bits = key.bits;
  slot.pmos = key.pmos;
  slot.valid = true;
  return slot.value;
}

EkvMemoStats ekv_memo_stats() { return ekv_memo().stats; }

std::size_t ekv_memo_slot(const MosfetParams& p, double vth_eff, double v_g,
                          double v_d, double v_s) {
  return ekv_slot(ekv_key(p, vth_eff, v_g, v_d, v_s));
}

MosEval ekv_eval_uncached(const MosfetParams& p, double vth_eff, double v_g,
                          double v_d, double v_s) {
  // For PMOS, mirror all voltages and negate the current.
  const double sign = (p.type == MosType::Nmos) ? 1.0 : -1.0;
  const double vg = sign * v_g;
  const double vd = sign * v_d;
  const double vs = sign * v_s;

  const double nvt = p.n_slope * kThermalVoltage;
  const double i_spec = 2.0 * p.n_slope * kThermalVoltage * kThermalVoltage * p.kp;

  const FEval ff = charge_fn((vg - vs - vth_eff) / nvt);
  const FEval fr = charge_fn((vg - vd - vth_eff) / nvt);

  MosEval e;
  const double ids = i_spec * (ff.value - fr.value);
  const double a = i_spec * ff.derivative / nvt;  // ∂/∂(vg−vs)
  const double b = i_spec * fr.derivative / nvt;  // ∂/∂(vg−vd)
  // In mirrored coordinates: ∂ids/∂vg = a − b, ∂ids/∂vd = b, ∂ids/∂vs = −a.
  // Mapping back: ids_real = sign·ids(sign·v). ∂ids_real/∂v_real =
  // sign·∂ids/∂v_mirr·sign = ∂ids/∂v_mirr.
  e.ids = sign * ids;
  e.g_vg = a - b;
  e.g_vd = b;
  e.g_vs = -a;
  return e;
}

double ekv_switch_resistance(const MosfetParams& p, double vth_eff) {
  // Mid-swing chord resistance of the fully driven channel: NMOS with the
  // gate at the rail discharging a half-rail drain (PMOS mirrored). A
  // channel that cannot turn on at rail drive (FeFET HVT state) comes out
  // astronomically resistive, which is the right macro-model answer.
  const MosEval e =
      p.type == MosType::Nmos
          ? ekv_eval(p, vth_eff, kSummaryRail, 0.5 * kSummaryRail, 0.0)
          : ekv_eval(p, vth_eff, 0.0, 0.5 * kSummaryRail, kSummaryRail);
  const double i = std::abs(e.ids);
  return i > 0.0 ? 0.5 * kSummaryRail / i : 1.0 / std::numeric_limits<double>::min();
}

double ekv_off_leak(const MosfetParams& p, double vth_eff) {
  // Worst-case off-state chord leak across the full rail. The worst gate
  // level that still leaves the channel off is 0 for a normal threshold,
  // but full rail for a vth_eff above the rail (an HVT FeFET operates
  // "off" at full gate drive, and that is its matched-search leak).
  const double vg_off = vth_eff > kSummaryRail ? kSummaryRail : 0.0;
  const MosEval e =
      p.type == MosType::Nmos
          ? ekv_eval(p, vth_eff, vg_off, kSummaryRail, 0.0)
          : ekv_eval(p, vth_eff, kSummaryRail - vg_off, 0.0, kSummaryRail);
  return std::abs(e.ids) / kSummaryRail;
}

void TransistorStamp::update_companions(const StampContext& ctx) {
  const bool trap = ctx.integrator() == spice::Integrator::Trapezoidal;
  if (ctx.dt() == g_dt_ && trap == g_trap_) return;
  for (std::size_t k = 0; k < c_.size(); ++k)
    g_c_[k] = (trap ? 2.0 : 1.0) * c_[k] / ctx.dt();
  g_dt_ = ctx.dt();
  g_trap_ = trap;
}

namespace {

// Capacitor k spans terminals (kCapA[k], kCapB[k]) of {d, g, s, ground}.
constexpr std::array<std::size_t, 4> kCapA = {1, 1, 0, 2};
constexpr std::array<std::size_t, 4> kCapB = {2, 0, 3, 3};

}  // namespace

void TransistorStamp::stamp(Stamper& st, const StampContext& ctx,
                            const MosfetParams& p, double vth_eff) {
  const double vg = ctx.v(g_);
  const double vd = ctx.v(d_);
  const double vs = ctx.v(s_);
  const MosEval e = ekv_eval(p, vth_eff, vg, vd, vs);
  // Equivalent current so that J·v − f is stamped consistently.
  const double i_eq = e.ids - (e.g_vg * vg + e.g_vd * vd + e.g_vs * vs);
  const auto channel = [&](auto& out) {
    // Jacobian of the D→S current w.r.t. the three terminal voltages.
    out.vccs(d_, s_, g_, spice::kGround, e.g_vg);
    out.vccs(d_, s_, d_, spice::kGround, e.g_vd);
    out.vccs(d_, s_, s_, spice::kGround, e.g_vs);
    out.current(d_, s_, i_eq);
  };
  if (ctx.dc()) {  // capacitors open
    channel(st);
    return;
  }

  update_companions(ctx);
  const bool trap = g_trap_;
  const std::array<NodeId, 4> node = {d_, g_, s_, spice::kGround};
  const std::array<double, 4> v = {vd, vg, vs, 0.0};
  const std::array<double, 4> vp = {ctx.v_prev(d_), ctx.v_prev(g_),
                                    ctx.v_prev(s_), 0.0};
  st.bound(binding_, [&](auto& out) {
    channel(out);
    for (std::size_t k = 0; k < c_.size(); ++k) {
      if (c_[k] == 0.0) continue;
      const double g = g_c_[k];
      const double v_ab = v[kCapA[k]] - v[kCapB[k]];
      const double dv = v_ab - (vp[kCapA[k]] - vp[kCapB[k]]);
      const double i = trap ? g * dv - i_prev_[k] : g * dv;
      out.nonlinear_current(node[kCapA[k]], node[kCapB[k]], i, g, v_ab);
    }
  });
}

void TransistorStamp::commit(const StampContext& ctx) {
  if (ctx.dc()) return;
  update_companions(ctx);
  const std::array<double, 4> v = {ctx.v(d_), ctx.v(g_), ctx.v(s_), 0.0};
  const std::array<double, 4> vp = {ctx.v_prev(d_), ctx.v_prev(g_),
                                    ctx.v_prev(s_), 0.0};
  for (std::size_t k = 0; k < c_.size(); ++k) {
    if (c_[k] == 0.0) continue;
    const double dv =
        (v[kCapA[k]] - v[kCapB[k]]) - (vp[kCapA[k]] - vp[kCapB[k]]);
    i_prev_[k] = g_trap_ ? g_c_[k] * dv - i_prev_[k] : g_c_[k] * dv;
  }
}

Mosfet::Mosfet(std::string name, NodeId d, NodeId g, NodeId s,
               MosfetParams params)
    : Device(std::move(name)), params_(params),
      core_(d, g, s, {params.cgs, params.cgd, params.cdb, params.csb}) {
  NEMTCAM_EXPECT(params_.kp > 0.0);
  NEMTCAM_EXPECT(params_.n_slope >= 1.0);
}

void Mosfet::stamp(Stamper& s, const StampContext& ctx) {
  core_.stamp(s, ctx, params_, params_.vth);
}

void Mosfet::commit(const StampContext& ctx) { core_.commit(ctx); }

double Mosfet::event_function(const StampContext& ctx) const {
  if (!params_.event_on_vth || ctx.dc())
    return std::numeric_limits<double>::infinity();
  // Signed distance to the conduction edge: positive while the channel is
  // on, so the engine lands a step where the gate drive falls through V_th.
  const double sign = params_.type == MosType::Nmos ? 1.0 : -1.0;
  return sign * (ctx.v(core_.g()) - ctx.v(core_.s())) - params_.vth;
}

double Mosfet::power(const StampContext& ctx) const {
  return ids(ctx) * (ctx.v(core_.d()) - ctx.v(core_.s()));
}

double Mosfet::ids(const StampContext& ctx) const {
  return ekv_eval(params_, params_.vth, ctx.v(core_.g()), ctx.v(core_.d()),
                  ctx.v(core_.s()))
      .ids;
}


spice::DeviceTopology Mosfet::topology() const {
  // The channel conducts (at least subthreshold) at DC; the gate draws no
  // DC current — a node driving only gates has no DC path through them.
  spice::DeviceTopology t{{{"d", core_.d()},
                           {"g", core_.g()},
                           {"s", core_.s()}},
                          {{0, 2, spice::DcCoupling::Conductive},
                           {1, 0, spice::DcCoupling::Capacitive},
                           {1, 2, spice::DcCoupling::Capacitive}}};
  auto& ch = t.couplings[0];
  if (params_.vth != sum_vth_) {
    sum_r_on_ = ekv_switch_resistance(params_, params_.vth);
    sum_g_off_ = ekv_off_leak(params_, params_.vth);
    sum_vth_ = params_.vth;
  }
  ch.r_on = sum_r_on_;
  ch.g_off = sum_g_off_;
  ch.ctrl = 1;
  ch.v_on = params_.vth;
  ch.active_low = params_.type == MosType::Pmos;
  ch.v_gs_ref = kSummaryRail;
  ch.v_slope = params_.n_slope * kThermalVoltage;
  t.couplings[1].c = params_.cgd;
  t.couplings[2].c = params_.cgs;
  t.terminals[0].c_ground = params_.cdb;
  t.terminals[2].c_ground = params_.csb;
  return t;
}

}  // namespace nemtcam::devices
