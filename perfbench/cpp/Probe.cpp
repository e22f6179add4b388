#include "Probe.h"

#include <chrono>
#include <cstdlib>
#include <cxxabi.h>
#include <typeinfo>

#include "devices/Passive.h"
#include "erc/Report.h"
#include "hier/Elaborate.h"
#include "linalg/SparseLu.h"
#include "spice/Newton.h"
#include "spice/Stamper.h"
#include "sta/Rules.h"
#include "sta/Sta.h"
#include "tcam/StaBridge.h"

namespace perfbench {

namespace spice = nemtcam::spice;
namespace tcam = nemtcam::tcam;
namespace hier = nemtcam::hier;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double ms_since(std::uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-6;
}

double nominal_strobe(const tcam::SearchTemplateSpec& spec, int width) {
  return spec.t_strobe * (0.25 + 0.75 * static_cast<double>(width) / 64.0);
}

std::string device_family(const spice::Device& d) {
  const char* mangled = typeid(d).name();
  int status = 0;
  char* dem = abi::__cxa_demangle(mangled, nullptr, nullptr, &status);
  std::string name = (status == 0 && dem != nullptr) ? dem : mangled;
  std::free(dem);
  const auto pos = name.rfind("::");
  return pos == std::string::npos ? name : name.substr(pos + 2);
}

namespace {

spice::AssemblyCache::Stats operator-(const spice::AssemblyCache::Stats& a,
                                      const spice::AssemblyCache::Stats& b) {
  spice::AssemblyCache::Stats d;
  d.assemblies = a.assemblies - b.assemblies;
  d.pattern_builds = a.pattern_builds - b.pattern_builds;
  d.full_factorizations = a.full_factorizations - b.full_factorizations;
  d.refactorizations = a.refactorizations - b.refactorizations;
  d.bbd_factorizations = a.bbd_factorizations - b.bbd_factorizations;
  d.bbd_refactorizations = a.bbd_refactorizations - b.bbd_refactorizations;
  d.bbd_fallbacks = a.bbd_fallbacks - b.bbd_fallbacks;
  return d;
}

// Repeats fn until at least min_ms has passed (and at least 3 times);
// returns the mean time per call in microseconds.
template <typename Fn>
double mean_us(Fn&& fn, double min_ms = 5.0) {
  int reps = 0;
  const std::uint64_t t0 = now_ns();
  do {
    fn();
    ++reps;
  } while (reps < 3 || ms_since(t0) < min_ms);
  return ms_since(t0) * 1e3 / reps;
}

// Times one stamp pass over `devs` into a scratch cache (after one
// recording pass, so the timed passes replay the fixed pattern as Newton
// does).
double stamp_pass_us(const std::vector<spice::Device*>& devs, std::size_t n,
                     int n_node, const spice::StampContext& ctx) {
  spice::AssemblyCache cache;
  std::vector<double> rhs(n, 0.0);
  auto pass = [&] {
    cache.begin(n);
    std::fill(rhs.begin(), rhs.end(), 0.0);
    spice::Stamper st(cache, rhs, n_node);
    for (spice::Device* d : devs) d->stamp(st, ctx);
    cache.finish();
  };
  pass();
  return mean_us(pass);
}

template <typename Fn>
RunProbe timed_run(spice::Circuit& ckt, Fn&& run_and_measure) {
  RunProbe p;
  const auto before = ckt.solver_cache().stats();
  const spice::TransientResult r = run_and_measure(p);
  p.cache = ckt.solver_cache().stats() - before;
  p.steps = r.steps_taken;
  p.rejected = r.steps_rejected;
  p.newton = r.newton_iterations;
  p.events = r.events_located;
  p.recovered = r.steps_recovered;
  p.finished = r.finished;
  return p;
}

// The fixture's first check() runs erc::Checker::run with every
// registered rule, the STA margin rules included, and caches the report.
template <typename Fixture>
void check_erc(Fixture& fx, BuildProbe& b) {
  const std::uint64_t t0 = now_ns();
  b.findings = fx.check().findings().size();
  b.erc_ms = ms_since(t0);
}

}  // namespace

MicroProbe mean_probe(const std::vector<MicroProbe>& samples) {
  MicroProbe m;
  if (samples.empty()) return m;
  const double n = static_cast<double>(samples.size());
  for (const MicroProbe& s : samples) {
    m.stamp_us += s.stamp_us / n;
    for (const auto& [family, us] : s.family_stamp_us)
      m.family_stamp_us[family] += us / n;
    m.refactor_us += s.refactor_us / n;
    m.solve_us += s.solve_us / n;
    m.newton_iter_us += s.newton_iter_us / n;
  }
  m.unknowns = samples.back().unknowns;
  m.fill_nnz = samples.back().fill_nnz;
  return m;
}

MicroProbe Shadow::micro() {
  MicroProbe m;
  spice::Circuit& ckt = circuit();
  const std::size_t n = static_cast<std::size_t>(ckt.unknown_count());
  const int n_node = ckt.node_unknowns();
  const std::vector<double> v = ckt.initial_state();
  // Mid-evaluation time point with a typical accepted step.
  const double t = t_edge() + 100e-12;
  const double dt = 2e-12;
  const spice::StampContext ctx(t, dt, false, n_node, &v, &v,
                                spice::Integrator::Trapezoidal);

  std::vector<spice::Device*> all;
  std::map<std::string, std::vector<spice::Device*>> by_family;
  for (const auto& d : ckt.devices()) {
    all.push_back(d.get());
    by_family[device_family(*d)].push_back(d.get());
  }
  m.stamp_us = stamp_pass_us(all, n, n_node, ctx);
  for (const auto& [family, devs] : by_family)
    m.family_stamp_us[family] = stamp_pass_us(devs, n, n_node, ctx);

  // Monolithic LU on the matrix the last Newton iteration assembled.
  const nemtcam::linalg::CsrView view = ckt.solver_cache().view();
  m.unknowns = view.n;
  if (view.n > 0) {
    nemtcam::linalg::SparseLu lu(view);
    m.fill_nnz = lu.fill_nnz();
    m.refactor_us = mean_us([&] {
      if (!lu.refactorize(view)) lu.factorize(view);
    });
    std::vector<double> b(view.n, 1.0);
    m.solve_us = mean_us([&] {
      std::fill(b.begin(), b.end(), 1.0);
      lu.solve_inplace(b);
    });
  }

  // Newton per iteration through the circuit's own solver path (the BBD
  // solver on a partitioned array circuit).
  spice::NewtonOptions nopt;
  std::size_t iters = 0;
  int calls = 0;
  const std::uint64_t t0 = now_ns();
  do {
    std::vector<double> guess = v;
    const spice::NewtonResult r = spice::solve_newton(
        ckt, t, dt, false, guess, v, nopt, spice::Integrator::Trapezoidal);
    iters += static_cast<std::size_t>(std::max(r.iterations, 1));
    ++calls;
  } while (calls < 3 || ms_since(t0) < 5.0);
  m.newton_iter_us = ms_since(t0) * 1e3 / static_cast<double>(iters);
  return m;
}

ShadowRow::ShadowRow(tcam::SearchTemplateSpec spec, int width, int array_rows)
    : spec_(std::move(spec)), width_(width), array_rows_(array_rows),
      strobe_(nominal_strobe(spec_, width)) {}

BuildProbe ShadowRow::build(const TernaryWord& key) {
  BuildProbe b;
  const hier::Stats h0 = hier::stats();
  const std::uint64_t t0 = now_ns();
  fx_ = std::make_unique<tcam::SearchFixture>(spec_.cal, spec_.geo, width_,
                                              array_rows_, key,
                                              spec_.c_sl_gate_per_row);
  cells_.clear();
  std::map<std::string, spice::NodeId> extra;
  if (spec_.shared_rails) extra = spec_.shared_rails(fx_->circuit(), fx_->vdd());
  if (spec_.c_ml_load_per_cell > 0.0)
    fx_->circuit().add<nemtcam::devices::Capacitor>(
        "Cel_ml", fx_->ml(), fx_->circuit().ground(),
        width_ * spec_.c_ml_load_per_cell);
  static const hier::Library kEmptyLib;
  for (int i = 0; i < width_; ++i) {
    std::vector<spice::NodeId> ports;
    for (const std::string& p : spec_.cell.ports) {
      if (p == "ml") ports.push_back(fx_->ml());
      else if (p == "vdd") ports.push_back(fx_->vdd());
      else if (p == "sl") ports.push_back(fx_->sl(i));
      else if (p == "slb") ports.push_back(fx_->slb(i));
      else if (const auto it = extra.find(p); it != extra.end())
        ports.push_back(it->second);
      else
        ports.push_back(spice::kGround);
    }
    cells_.push_back(hier::elaborate(fx_->circuit(), kEmptyLib, spec_.cell,
                                     "Xcell" + std::to_string(i), ports,
                                     spec_.cell.params));
  }
  if (spec_.array_rules)
    spec_.array_rules(tcam::ArrayRowContext{fx_->checker(), fx_->ml(),
                                            fx_->vdd(), 0, width_, ""},
                      stored_);
  if (nemtcam::sta::default_enabled())
    fx_->checker().add_rule(nemtcam::sta::margin_rules(
        {"ml"}, tcam::sta_options_for(spec_.cal, strobe_)));
  b.build_ms = ms_since(t0);
  const hier::Stats h1 = hier::stats();
  b.cards = h1.cards_emitted - h0.cards_emitted;
  b.instances = h1.instances_elaborated - h0.instances_elaborated;
  built_stored_ = stored_;
  built_key_ = key;
  return b;
}

void ShadowRow::bind() {
  spice::Circuit& ckt = fx_->circuit();
  ckt.reset_device_states();
  for (int i = 0; i < width_; ++i)
    spec_.bind(ckt, cells_[static_cast<std::size_t>(i)],
               stored_[static_cast<std::size_t>(i)]);
}

RunProbe ShadowRow::run(const TernaryWord& key, BuildProbe* built) {
  const bool rebuild = !fx_ || built_stored_ != stored_;
  BuildProbe b;
  if (rebuild) {
    b = build(key);
  } else if (built_key_ != key) {
    fx_->rebind_key(key);
    built_key_ = key;
  }
  bind();
  if (rebuild) {
    check_erc(*fx_, b);
    if (built != nullptr) *built = b;
  }
  return timed_run(fx_->circuit(), [&](RunProbe& p) {
    const std::uint64_t t0 = now_ns();
    spice::TransientResult r = fx_->run();
    p.transient_ms = ms_since(t0);
    p.sta_ms = fx_->metrics(r, strobe_).sta.analysis_seconds * 1e3;
    return r;
  });
}

ShadowArray::ShadowArray(tcam::SearchTemplateSpec spec, int rows, int width,
                         std::vector<TernaryWord> image)
    : spec_(std::move(spec)), rows_(rows), width_(width),
      image_(std::move(image)) {}

BuildProbe ShadowArray::build(const TernaryWord& key) {
  BuildProbe b;
  const hier::Stats h0 = hier::stats();
  const std::uint64_t t0 = now_ns();
  fx_ = std::make_unique<tcam::ArrayFixture>(spec_.cal, spec_.geo, rows_,
                                             width_, key, tcam::ArrayOptions{});
  cells_.assign(static_cast<std::size_t>(rows_), {});
  spice::Circuit& ckt = fx_->circuit();
  std::map<std::string, spice::NodeId> extra;
  if (spec_.shared_rails) {
    extra = spec_.shared_rails(ckt, fx_->vdd());
    fx_->claim(-1);
  }
  static const hier::Library kEmptyLib;
  for (int r = 0; r < rows_; ++r) {
    const std::string row_scope = "Xrow" + std::to_string(r);
    auto& row_cells = cells_[static_cast<std::size_t>(r)];
    if (spec_.c_ml_load_per_cell > 0.0) {
      ckt.add<nemtcam::devices::Capacitor>("Cel_ml" + std::to_string(r),
                                           fx_->ml(r), ckt.ground(),
                                           width_ * spec_.c_ml_load_per_cell);
      fx_->claim(fx_->row_hw_owner(r));
    }
    for (int c = 0; c < width_; ++c) {
      std::vector<spice::NodeId> ports;
      for (const std::string& p : spec_.cell.ports) {
        if (p == "ml") ports.push_back(fx_->ml(r));
        else if (p == "vdd") ports.push_back(fx_->vdd());
        else if (p == "sl") ports.push_back(fx_->sl(r, c));
        else if (p == "slb") ports.push_back(fx_->slb(r, c));
        else if (const auto it = extra.find(p); it != extra.end())
          ports.push_back(it->second);
        else
          ports.push_back(spice::kGround);
      }
      row_cells.push_back(hier::elaborate(
          ckt, kEmptyLib, spec_.cell, row_scope + ".Xcell" + std::to_string(c),
          ports, spec_.cell.params));
      fx_->claim(fx_->cell_owner(r, c));
    }
    if (spec_.array_rules)
      spec_.array_rules(tcam::ArrayRowContext{fx_->checker(), fx_->ml(r),
                                              fx_->vdd(), r, width_,
                                              row_scope + "."},
                        image_[static_cast<std::size_t>(r)]);
  }
  if (nemtcam::sta::default_enabled()) {
    std::vector<std::string> probes;
    for (int r = 0; r < rows_; ++r) probes.push_back("ml" + std::to_string(r));
    fx_->checker().add_rule(nemtcam::sta::margin_rules(
        std::move(probes), tcam::sta_options_for(spec_.cal, nominal_strobe(spec_, width_))));
  }
  fx_->install_partition();
  b.build_ms = ms_since(t0);
  const hier::Stats h1 = hier::stats();
  b.cards = h1.cards_emitted - h0.cards_emitted;
  b.instances = h1.instances_elaborated - h0.instances_elaborated;
  built_key_ = key;
  return b;
}

void ShadowArray::bind() {
  spice::Circuit& ckt = fx_->circuit();
  ckt.reset_device_states();
  for (int r = 0; r < rows_; ++r)
    for (int c = 0; c < width_; ++c)
      spec_.bind(ckt,
                 cells_[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)],
                 image_[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)]);
}

RunProbe ShadowArray::run(const TernaryWord& key, BuildProbe* built) {
  const bool rebuild = !fx_;
  BuildProbe b;
  if (rebuild) {
    b = build(key);
  } else if (built_key_ != key) {
    fx_->rebind_key(key);
    built_key_ = key;
  }
  bind();
  if (rebuild) {
    check_erc(*fx_, b);
    if (built != nullptr) *built = b;
  }
  return timed_run(fx_->circuit(), [&](RunProbe& p) {
    const std::uint64_t t0 = now_ns();
    spice::TransientResult r = fx_->run();
    p.transient_ms = ms_since(t0);
    last_ = fx_->metrics(r, nominal_strobe(spec_, width_));
    p.sta_ms = last_.sta.analysis_seconds * 1e3;
    return r;
  });
}

}  // namespace perfbench
