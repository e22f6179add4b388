// Layer probes for the traced run.
//
// The traced run must not disturb the ops it measures, so every probe
// runs on a shadow instance: a second row or array elaborated from the
// same SearchTemplateSpec through the public fixture API (SearchFixture /
// ArrayFixture + hier::elaborate), exactly as SearchTemplate::build and
// ArrayTemplate::build assemble theirs. Owning the fixture lets the probe
// time the ERC pass, the transient and the static pass separately and
// read the full spice::TransientResult, which the template classes keep
// private. A probe whose transient takes a different number of steps or
// Newton iterations than the op it shadows is counted as a mirror
// mismatch, so a drift between this copy and the templates shows.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/Ternary.h"
#include "spice/AssemblyCache.h"
#include "spice/Circuit.h"
#include "spice/Transient.h"
#include "tcam/ArrayTemplate.h"
#include "tcam/SearchTemplate.h"

namespace perfbench {

using nemtcam::core::TernaryWord;

double ms_since(std::uint64_t t0_ns);
std::uint64_t now_ns();

// What one (re)build of a shadow cost.
struct BuildProbe {
  double build_ms = 0.0;  // fixture + hier elaboration + rule registration
  double erc_ms = 0.0;    // erc::Checker::run (incl. registered STA rules)
  std::uint64_t findings = 0;
  std::uint64_t cards = 0;      // hier::stats() delta
  std::uint64_t instances = 0;  // hier::stats() delta
};

// One transient on the shadow.
struct RunProbe {
  double transient_ms = 0.0;
  double sta_ms = 0.0;  // the static pass metrics() attaches
  bool finished = false;
  std::size_t steps = 0, rejected = 0, newton = 0, events = 0, recovered = 0;
  nemtcam::spice::AssemblyCache::Stats cache;  // delta over the transient
};

// Per-iteration costs on the shadow's circuit at its current state.
struct MicroProbe {
  double stamp_us = 0.0;  // one Device::stamp pass over all devices
  std::map<std::string, double> family_stamp_us;
  double refactor_us = 0.0;  // monolithic SparseLu on the last CsrView
  double solve_us = 0.0;
  std::size_t unknowns = 0;
  std::size_t fill_nnz = 0;
  double newton_iter_us = 0.0;  // solve_newton per iteration (BBD on arrays)
};

// Field-by-field mean of several samples of one circuit's probes.
MicroProbe mean_probe(const std::vector<MicroProbe>& samples);

class Shadow {
 public:
  virtual ~Shadow() = default;
  // Runs a transient for (key, stored image) as the template would,
  // rebuilding first when the stored image changed (`built` then holds
  // that build's probe). The ERC pass of a fresh build runs, timed, after
  // the stored state is bound — where the template's first run does it.
  virtual RunProbe run(const TernaryWord& key, BuildProbe* built) = 0;
  virtual nemtcam::spice::Circuit& circuit() = 0;
  virtual double t_edge() const = 0;
  MicroProbe micro();
};

class ShadowRow : public Shadow {
 public:
  ShadowRow(nemtcam::tcam::SearchTemplateSpec spec, int width, int array_rows);
  void set_stored(const TernaryWord& stored) { stored_ = stored; }
  RunProbe run(const TernaryWord& key, BuildProbe* built) override;
  nemtcam::spice::Circuit& circuit() override { return fx_->circuit(); }
  double t_edge() const override { return fx_->t_edge(); }

 private:
  BuildProbe build(const TernaryWord& key);
  void bind();

  nemtcam::tcam::SearchTemplateSpec spec_;
  int width_;
  int array_rows_;
  double strobe_;
  TernaryWord stored_;
  TernaryWord built_stored_;
  TernaryWord built_key_;
  std::unique_ptr<nemtcam::tcam::SearchFixture> fx_;
  std::vector<nemtcam::hier::InstanceHandles> cells_;
};

class ShadowArray : public Shadow {
 public:
  ShadowArray(nemtcam::tcam::SearchTemplateSpec spec, int rows, int width,
              std::vector<TernaryWord> image);
  RunProbe run(const TernaryWord& key, BuildProbe* built) override;
  nemtcam::spice::Circuit& circuit() override { return fx_->circuit(); }
  double t_edge() const override { return fx_->t_edge(); }
  const nemtcam::tcam::ArraySearchMetrics& last_metrics() const {
    return last_;
  }

 private:
  BuildProbe build(const TernaryWord& key);
  void bind();

  nemtcam::tcam::SearchTemplateSpec spec_;
  int rows_;
  int width_;
  std::vector<TernaryWord> image_;
  TernaryWord built_key_;
  std::unique_ptr<nemtcam::tcam::ArrayFixture> fx_;
  std::vector<std::vector<nemtcam::hier::InstanceHandles>> cells_;
  nemtcam::tcam::ArraySearchMetrics last_;
};

// The sense strobe the row and array templates use at this width
// (TcamRow::strobe_scale, ArrayTemplate::default_strobe).
double nominal_strobe(const nemtcam::tcam::SearchTemplateSpec& spec, int width);

// Demangled, namespace-free class name of a device ("Mosfet").
std::string device_family(const nemtcam::spice::Device& d);

}  // namespace perfbench
