// Independent sources driven by spice::Waveform.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>

#include "spice/Device.h"
#include "spice/Stamper.h"
#include "spice/Waveform.h"

namespace nemtcam::devices {

using spice::Device;
using spice::NodeId;
using spice::StampContext;
using spice::Stamper;
using spice::Waveform;

// A source's waveform plus its last sample. The transient engine stamps
// every Newton iteration of a step attempt at the same t, and a PWL lookup
// is a binary search. A Waveform is a pure function of t, so the sample is
// reused only for a bit-identical t and is exactly what value(t) returns.
// Replacing the waveform drops the sample. Like the rest of a device's
// state, it assumes one thread evaluates the source at a time.
class SampledWave {
 public:
  explicit SampledWave(std::unique_ptr<Waveform> wave);

  double at(double t) const {
    if (!valid_ || std::bit_cast<std::uint64_t>(t) !=
                       std::bit_cast<std::uint64_t>(t_)) {
      v_ = wave_->value(t);
      t_ = t;
      valid_ = true;
    }
    return v_;
  }
  const Waveform& wave() const noexcept { return *wave_; }
  void reset(std::unique_ptr<Waveform> wave);

 private:
  std::unique_ptr<Waveform> wave_;
  mutable double t_ = 0.0;
  mutable double v_ = 0.0;
  mutable bool valid_ = false;
};

// Ideal (optionally series-resistive) voltage source. Uses one MNA branch
// unknown: the current flowing into the + terminal.
class VSource final : public Device {
 public:
  VSource(std::string name, NodeId plus, NodeId minus,
          std::unique_ptr<Waveform> wave, double series_ohms = 0.0);
  // Convenience: DC level.
  VSource(std::string name, NodeId plus, NodeId minus, double dc_volts,
          double series_ohms = 0.0);

  int branch_count() const override { return 1; }
  void stamp(Stamper& s, const StampContext& ctx) override;
  unsigned hooks() const override { return spice::kHookDeliveredPower; }
  spice::DeviceTopology topology() const override;
  double delivered_power(const StampContext& ctx) const override;
  std::vector<double> breakpoints(double t_end) const override;

  double value_at(double t) const { return wave_.wave().value(t); }
  NodeId plus() const noexcept { return plus_; }
  NodeId minus() const noexcept { return minus_; }

  // Replaces the drive waveform (transaction drivers reuse one netlist
  // across operations).
  void set_wave(std::unique_ptr<Waveform> wave);

  bool rebind_wave(std::unique_ptr<Waveform> wave) override {
    set_wave(std::move(wave));
    return true;
  }

 private:
  NodeId plus_, minus_;
  SampledWave wave_;
  double series_ohms_;
  spice::StampBinding binding_;  // transient stamp's recorded range
};

// Ideal current source: current value(t) flows from `from` to `to` through
// the source (i.e. it is injected into `to`).
class ISource final : public Device {
 public:
  ISource(std::string name, NodeId from, NodeId to,
          std::unique_ptr<Waveform> wave);
  ISource(std::string name, NodeId from, NodeId to, double dc_amps);

  void stamp(Stamper& s, const StampContext& ctx) override;
  unsigned hooks() const override { return spice::kHookDeliveredPower; }
  spice::DeviceTopology topology() const override;
  double delivered_power(const StampContext& ctx) const override;
  std::vector<double> breakpoints(double t_end) const override;

  bool rebind_wave(std::unique_ptr<Waveform> wave) override {
    wave_.reset(std::move(wave));
    return true;
  }

 private:
  NodeId from_, to_;
  SampledWave wave_;
};

}  // namespace nemtcam::devices
