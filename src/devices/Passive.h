// Linear passive elements: resistor and capacitor.
#pragma once

#include "spice/Device.h"
#include "spice/Stamper.h"

namespace nemtcam::devices {

using spice::Device;
using spice::NodeId;
using spice::StampContext;
using spice::Stamper;

class Resistor final : public Device {
 public:
  Resistor(std::string name, NodeId a, NodeId b, double ohms);

  void stamp(Stamper& s, const StampContext& ctx) override;
  unsigned hooks() const override { return spice::kHookPower; }
  spice::DeviceTopology topology() const override;
  double power(const StampContext& ctx) const override;

  double resistance() const noexcept { return ohms_; }
  void set_resistance(double ohms);

 private:
  NodeId a_, b_;
  double ohms_;
  spice::StampBinding binding_;  // transient stamp's recorded range
};

// Linear capacitor. Backward Euler uses the previous accepted voltage
// directly (i = C·(v − v_prev)/dt); trapezoidal additionally carries the
// previous step's current (i = 2C·(v − v_prev)/dt − i_prev) for
// second-order accuracy. Open in DC analysis. The companion conductance
// k·C/dt is computed once per (dt, integrator), and transient passes stamp
// through the device's binding to its recorded stamp range.
class Capacitor final : public Device {
 public:
  Capacitor(std::string name, NodeId a, NodeId b, double farads);

  void stamp(Stamper& s, const StampContext& ctx) override;
  unsigned hooks() const override { return 0; }
  void commit(const StampContext& ctx) override;
  spice::DeviceTopology topology() const override;

  double capacitance() const noexcept { return farads_; }
  // Stored energy at the iterate, E = C·v²/2 (for ledgers/tests).
  double stored_energy(const StampContext& ctx) const;

  void reset_state() override { i_prev_ = 0.0; }

 private:
  // Companion current at the iterate; refreshes g_ for ctx's step first.
  double current_at(const StampContext& ctx);

  NodeId a_, b_;
  bool g_trap_ = false;  // integrator g_ was computed for
  double farads_;
  double i_prev_ = 0.0;  // used by the trapezoidal companion
  double g_ = 0.0;       // k·C/dt
  double g_dt_ = 0.0;    // dt g_ was computed for (0 = none)
  spice::StampBinding binding_;
};

// Embeddable companion for a fixed linear capacitance owned by a composite
// device (the diode junction; transistors use TransistorStamp): same BE/trap
// scheme as Capacitor, carrying the previous step's current so the
// trapezoidal form stays second-order on internal nodes too. stamp() runs
// at every Newton iterate; commit() exactly once per accepted step (the
// engine guarantees rejected steps never reach commit, so i_prev stays
// consistent under LTE step rejection).
class CapCompanion {
 public:
  explicit CapCompanion(double farads = 0.0) : farads_(farads) {}

  void stamp(Stamper& s, const StampContext& ctx, NodeId a, NodeId b) const;
  void commit(const StampContext& ctx, NodeId a, NodeId b);

  double capacitance() const noexcept { return farads_; }

  // Drops the carried current history (owner's reset_state forwards here).
  void reset() { i_prev_ = 0.0; }

 private:
  double current_at(const StampContext& ctx, NodeId a, NodeId b) const;

  double farads_;
  double i_prev_ = 0.0;  // used by the trapezoidal companion
};

}  // namespace nemtcam::devices
