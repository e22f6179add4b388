#include "Workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "Inputs.h"
#include "Probe.h"
#include "Stats.h"
#include "hier/Elaborate.h"
#include "tcam/ArrayTemplate.h"
#include "tcam/RowSpecs.h"
#include "tcam/TcamRow.h"
#include "util/ThreadPool.h"

namespace perfbench {

namespace tcam = nemtcam::tcam;
using tcam::TcamKind;

namespace {

constexpr int kWidth = 64;
constexpr int kArrayRows = 64;
// Stored X per 64-trit word (10%).
constexpr int kStoredX = kWidth / 10;
// The ROADMAP's accuracy rule: simulated latency/energy may move by at
// most 0.1% against the golden values.
constexpr double kDriftLimitPct = 0.1;

struct KindInfo {
  TcamKind kind;
  const char* id;
};
constexpr KindInfo kKinds[] = {
    {TcamKind::Sram16T, "sram16t"},     {TcamKind::Nem3T2N, "nem3t2n"},
    {TcamKind::Rram2T2R, "rram2t2r"},   {TcamKind::Fefet2F, "fefet2f"},
    {TcamKind::Dtcam5T, "dtcam5t"},     {TcamKind::Fefet4T2F, "fefet4t2f"},
    {TcamKind::Mram4T2M, "mram4t2m"},
};
constexpr int kNumKinds = static_cast<int>(std::size(kKinds));

using Outputs = std::vector<std::pair<std::string, double>>;

// ---------------------------------------------------------------- tracing

struct Span {
  std::string name;
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  int parent = -1;
  std::uint64_t op = 0;
};

// In-memory span recorder; written out once when the run ends.
class Tracer {
 public:
  Tracer() : origin_(now_ns()) {}
  int begin(std::string name, int parent, std::uint64_t op) {
    spans_.push_back({std::move(name), now_ns(), 0, parent, op});
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].t1 = now_ns(); }
  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) throw std::runtime_error("cannot write spans to " + path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << JsonObject()
                 .count("id", i)
                 .text("name", s.name)
                 .num("start_us", static_cast<double>(s.t0 - origin_) * 1e-3)
                 .num("end_us", static_cast<double>(s.t1 - origin_) * 1e-3)
                 .raw("parent", std::to_string(s.parent))
                 .count("op", s.op)
                 .str()
          << '\n';
    }
  }
 private:
  std::uint64_t origin_;
  std::vector<Span> spans_;
};

// What the traced run learns about one op.
struct OpTrace {
  int kind = -1;  // index into kKinds; -1 for the array
  double search_ms = 0.0;
  int searches = 0;
  double write_ms = 0.0;
  int writes = 0;
  double sta_ms = 0.0;              // the ops' own static-pass time
  std::uint64_t hier_instances = 0;  // elaborated during the op
  std::vector<RunProbe> runs;        // shadow transients, one per search
  std::vector<BuildProbe> builds;    // shadow rebuilds the op caused
  int mirror_mismatches = 0;
  std::uint64_t bbd_blocks = 0, bbd_border = 0, bbd_fallbacks = 0;
};

struct OpResult {
  double ms = 0.0;    // host time inside the library calls
  std::string group;  // row kind and key class, for the per-group medians
  bool ok = true;
  std::string why;  // first failed check
  Outputs outputs;  // simulated values (golden comparison)
  OpTrace trace;
};

void expect(OpResult& r, bool cond, const std::string& why) {
  if (!cond && r.ok) {
    r.ok = false;
    r.why = why;
  }
}

// The shadow replays the op's transaction on a circuit whose LU pivot
// history differs, so its step and Newton counts wander by a few percent;
// a failed or grossly different shadow run means the mirror is wrong.
bool mirrors(const RunProbe& p, std::size_t steps, std::size_t newton) {
  auto close = [](std::size_t a, std::size_t b) {
    const double d = std::abs(static_cast<double>(a) - static_cast<double>(b));
    return d <= 0.10 * static_cast<double>(std::max<std::size_t>(b, 1));
  };
  return p.finished && close(p.steps, steps) && close(p.newton, newton);
}

// Runs the op's transaction on the shadow. A shadow that had to build
// for an op that replayed is run once more, so the measured run pays
// what the op paid: no stamp-pattern build, no symbolic analysis.
void probe_run(Shadow& shadow, const TernaryWord& key, std::size_t steps,
               std::size_t newton, OpTrace& t) {
  BuildProbe b;
  b.build_ms = -1.0;
  RunProbe p = shadow.run(key, &b);
  if (b.build_ms >= 0.0) {
    t.builds.push_back(b);
    if (t.hier_instances == 0) p = shadow.run(key, nullptr);
  }
  if (!mirrors(p, steps, newton)) ++t.mirror_mismatches;
  t.runs.push_back(p);
}

// ---------------------------------------------------------------- workloads

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the system under test and runs its first op(s), returning them.
  virtual std::vector<OpResult> setup() = 0;
  virtual int round_size() const = 0;
  // Runs op `i`; with a tracer, records spans and probes the shadow.
  virtual OpResult op(std::uint64_t i, Tracer* tr) = 0;
  // Per-iteration probes of each shadow circuit, sampled after every
  // traced round so host-speed drift during the run averages out as it
  // does for the ops they are compared with.
  void sample_micro() {
    for (const auto& [k, sh] : shadows()) micro_samples_[k].push_back(sh->micro());
  }
  // The mean per-iteration probe of the circuit the op ran on.
  const MicroProbe& micro(const OpTrace& t) {
    auto it = micro_mean_.find(t.kind);
    if (it == micro_mean_.end())
      it = micro_mean_.emplace(t.kind, mean_probe(micro_samples_.at(t.kind))).first;
    return it->second;
  }
  // Instances one build of the template elaborates.
  virtual std::uint64_t instances_per_build() const = 0;
  virtual bool uses_pool() const { return false; }
  // Setup repetitions whose median is setup_s: the row setups take a
  // fraction of a second, the array's one search alone takes seconds.
  virtual int setup_reps() const { return 5; }

 protected:
  // The shadows built so far, keyed like OpTrace::kind.
  virtual std::vector<std::pair<int, Shadow*>> shadows() = 0;

 private:
  std::map<int, std::vector<MicroProbe>> micro_samples_;
  std::map<int, MicroProbe> micro_mean_;
};

class RowReplay : public Workload {
 public:
  explicit RowReplay(std::uint64_t seed) : seed_(seed) {}

  std::vector<OpResult> setup() override {
    std::vector<OpResult> first;
    rows_.clear();
    words_.clear();
    keys_.clear();
    for (int k = 0; k < kNumKinds; ++k) {
      Rng wr(seed_, "replay_word", static_cast<std::uint64_t>(k));
      words_.push_back(random_word(wr, kWidth, kStoredX));
      keys_.emplace_back(seed_, "replay_key", static_cast<std::uint64_t>(k));
      Rng sk(seed_, "replay_setup_key", static_cast<std::uint64_t>(k));
      const TernaryWord key = make_key(sk, words_.back(), KeyClass::Exact);
      OpResult r;
      const std::uint64_t t0 = now_ns();
      rows_.push_back(tcam::make_row(kKinds[k].kind, kWidth, kArrayRows));
      rows_.back()->store(words_.back());
      const tcam::SearchMetrics m = rows_.back()->search(key);
      r.ms = ms_since(t0);
      check(r, "setup." + std::string(kKinds[k].id), words_.back(), key, m);
      first.push_back(std::move(r));
    }
    return first;
  }

  int round_size() const override { return kNumKinds * kKeyClasses; }

  OpResult op(std::uint64_t i, Tracer* tr) override {
    const int k = static_cast<int>(i % kNumKinds);
    const auto cls = static_cast<KeyClass>((i / kNumKinds) % kKeyClasses);
    const TernaryWord key = make_key(keys_[static_cast<std::size_t>(k)],
                                     words_[static_cast<std::size_t>(k)], cls);
    tcam::TcamRow& row = *rows_[static_cast<std::size_t>(k)];
    OpResult r;
    r.group = std::string(kKinds[k].id) + "." + key_class_name(cls);
    r.trace.kind = k;
    const std::uint64_t h0 = nemtcam::hier::stats().instances_elaborated;
    const int span = tr != nullptr ? tr->begin("tcam.search", -1, i) : -1;
    const std::uint64_t t0 = now_ns();
    const tcam::SearchMetrics m = row.search(key);
    r.ms = ms_since(t0);
    if (tr != nullptr) tr->end(span);
    check(r, "op" + std::to_string(i), words_[static_cast<std::size_t>(k)],
          key, m);
    if (tr != nullptr) {
      OpTrace& t = r.trace;
      t.hier_instances = nemtcam::hier::stats().instances_elaborated - h0;
      t.search_ms = r.ms;
      t.searches = 1;
      t.sta_ms = m.sta.analysis_seconds * 1e3;
      ShadowRow& sh = shadow(k, row);
      sh.set_stored(words_[static_cast<std::size_t>(k)]);
      const int ps = tr->begin("probe.shadow", -1, i);
      probe_run(sh, key, m.steps, m.newton_iters, t);
      tr->end(ps);
    }
    return r;
  }

  std::uint64_t instances_per_build() const override { return kWidth; }

 protected:
  static void check(OpResult& r, const std::string& label,
                    const TernaryWord& stored, const TernaryWord& key,
                    const tcam::SearchMetrics& m) {
    expect(r, m.ok, label + ": search not ok: " + m.note);
    expect(r, m.matched == stored.matches(key),
           label + ": match outcome differs from ternary truth");
    r.outputs.emplace_back(label + ".latency", m.latency);
    r.outputs.emplace_back(label + ".energy", m.energy);
  }

  std::vector<std::pair<int, Shadow*>> shadows() override {
    std::vector<std::pair<int, Shadow*>> out;
    for (const auto& [k, sh] : shadows_) out.emplace_back(k, sh.get());
    return out;
  }

  ShadowRow& shadow(int k, const tcam::TcamRow& row) {
    auto& slot = shadows_[k];
    if (!slot)
      slot = std::make_unique<ShadowRow>(
          tcam::search_spec_for(kKinds[k].kind, row.cal()), kWidth, kArrayRows);
    return *slot;
  }

  std::uint64_t seed_;
  std::vector<std::unique_ptr<tcam::TcamRow>> rows_;
  std::vector<TernaryWord> words_;
  std::vector<Rng> keys_;
  std::map<int, std::unique_ptr<ShadowRow>> shadows_;
};

class RowRewrite : public RowReplay {
 public:
  explicit RowRewrite(std::uint64_t seed) : RowReplay(seed) {}

  std::vector<OpResult> setup() override {
    std::vector<OpResult> first;
    rows_.clear();
    words_.clear();
    keys_.clear();
    for (int k = 0; k < kNumKinds; ++k) {
      Rng ir(seed_, "rewrite_init", static_cast<std::uint64_t>(k));
      words_.push_back(random_word(ir, kWidth, kStoredX));
      keys_.emplace_back(seed_, "rewrite_cycle", static_cast<std::uint64_t>(k));
      const std::uint64_t t0 = now_ns();
      rows_.push_back(tcam::make_row(kKinds[k].kind, kWidth, kArrayRows));
      rows_.back()->store(words_.back());
      const double construct_ms = ms_since(t0);
      OpResult r = cycle(k, "setup." + std::string(kKinds[k].id), nullptr, 0);
      r.ms += construct_ms;
      first.push_back(std::move(r));
    }
    return first;
  }

  int round_size() const override { return kNumKinds; }

  OpResult op(std::uint64_t i, Tracer* tr) override {
    return cycle(static_cast<int>(i % kNumKinds), "op" + std::to_string(i), tr,
                 i);
  }

 private:
  // One write of a fresh word followed by two searches of it: an exact
  // match (which rebuilds the search template) and a one-bit mismatch.
  OpResult cycle(int k, const std::string& label, Tracer* tr,
                 std::uint64_t i) {
    const auto ku = static_cast<std::size_t>(k);
    Rng& rng = keys_[ku];
    const TernaryWord word = random_word(rng, kWidth, kStoredX);
    const TernaryWord k1 = make_key(rng, word, KeyClass::Exact);
    const TernaryWord k2 = make_key(rng, word, KeyClass::OneBit);
    tcam::TcamRow& row = *rows_[ku];
    OpResult r;
    r.group = kKinds[k].id;
    r.trace.kind = k;
    const std::uint64_t h0 = nemtcam::hier::stats().instances_elaborated;
    const int span = tr != nullptr ? tr->begin("op", -1, i) : -1;
    const std::uint64_t t0 = now_ns();
    int s = tr != nullptr ? tr->begin("tcam.write", span, i) : -1;
    const tcam::WriteMetrics wm = row.write(word);
    const std::uint64_t t1 = now_ns();
    if (tr != nullptr) {
      tr->end(s);
      s = tr->begin("tcam.search", span, i);
    }
    const tcam::SearchMetrics m1 = row.search(k1);
    if (tr != nullptr) {
      tr->end(s);
      s = tr->begin("tcam.search", span, i);
    }
    const tcam::SearchMetrics m2 = row.search(k2);
    const std::uint64_t t3 = now_ns();
    if (tr != nullptr) {
      tr->end(s);
      tr->end(span);
    }
    r.ms = static_cast<double>(t3 - t0) * 1e-6;
    expect(r, wm.ok, label + ": write not ok: " + wm.note);
    expect(r, row.stored() == word, label + ": stored word not updated");
    r.outputs.emplace_back(label + ".write.latency", wm.latency);
    r.outputs.emplace_back(label + ".write.energy", wm.energy);
    check(r, label + ".s1", word, k1, m1);
    check(r, label + ".s2", word, k2, m2);
    words_[ku] = word;
    if (tr != nullptr) {
      OpTrace& t = r.trace;
      t.hier_instances = nemtcam::hier::stats().instances_elaborated - h0;
      t.write_ms = static_cast<double>(t1 - t0) * 1e-6;
      t.writes = 1;
      t.search_ms = static_cast<double>(t3 - t1) * 1e-6;
      t.searches = 2;
      t.sta_ms = (m1.sta.analysis_seconds + m2.sta.analysis_seconds) * 1e3;
      ShadowRow& sh = shadow(k, row);
      sh.set_stored(word);
      const int ps = tr->begin("probe.shadow", -1, i);
      probe_run(sh, k1, m1.steps, m1.newton_iters, t);
      probe_run(sh, k2, m2.steps, m2.newton_iters, t);
      tr->end(ps);
    }
    return r;
  }
};

class Array64 : public Workload {
 public:
  explicit Array64(std::uint64_t seed) : seed_(seed), keys_(seed, "array_key", 0) {}

  std::vector<OpResult> setup() override {
    image_ = array_image(seed_, kArrayRows, kWidth);
    keys_ = Rng(seed_, "array_key", 0);
    Rng sk(seed_, "array_setup_key", 0);
    const TernaryWord key = make_array_key(sk, image_, ArrayKeyClass::Several);
    OpResult r;
    const std::uint64_t t0 = now_ns();
    tpl_ = std::make_unique<tcam::ArrayTemplate>(
        tcam::nem3t2n_search_spec(tcam::Calibration::standard()), kArrayRows,
        kWidth);
    for (int row = 0; row < kArrayRows; ++row)
      tpl_->store(row, image_[static_cast<std::size_t>(row)]);
    const tcam::ArraySearchMetrics m = tpl_->search(key);
    r.ms = ms_since(t0);
    check(r, "setup", key, m);
    return {std::move(r)};
  }

  int round_size() const override { return kArrayKeyClasses; }

  OpResult op(std::uint64_t i, Tracer* tr) override {
    const auto cls = static_cast<ArrayKeyClass>(i % kArrayKeyClasses);
    const TernaryWord key = make_array_key(keys_, image_, cls);
    OpResult r;
    r.group = array_key_class_name(cls);
    const std::uint64_t h0 = nemtcam::hier::stats().instances_elaborated;
    const int span = tr != nullptr ? tr->begin("array.search", -1, i) : -1;
    const std::uint64_t t0 = now_ns();
    const tcam::ArraySearchMetrics m = tpl_->search(key);
    r.ms = ms_since(t0);
    if (tr != nullptr) tr->end(span);
    check(r, "op" + std::to_string(i), key, m);
    if (tr != nullptr) {
      OpTrace& t = r.trace;
      t.hier_instances = nemtcam::hier::stats().instances_elaborated - h0;
      t.search_ms = r.ms;
      t.searches = 1;
      t.sta_ms = m.sta.analysis_seconds * 1e3;
      t.bbd_blocks = m.bbd_blocks;
      t.bbd_border = m.bbd_border;
      t.bbd_fallbacks = m.bbd_fallbacks;
      if (!shadow_)
        shadow_ = std::make_unique<ShadowArray>(tpl_->spec(), kArrayRows,
                                                kWidth, image_);
      const int ps = tr->begin("probe.shadow", -1, i);
      probe_run(*shadow_, key, m.steps, m.newton_iters, t);
      tr->end(ps);
    }
    return r;
  }

  std::uint64_t instances_per_build() const override {
    return static_cast<std::uint64_t>(kArrayRows) * kWidth;
  }
  bool uses_pool() const override { return true; }
  int setup_reps() const override { return 3; }

 protected:
  std::vector<std::pair<int, Shadow*>> shadows() override {
    if (!shadow_) return {};
    return {{-1, shadow_.get()}};
  }

 private:
  void check(OpResult& r, const std::string& label, const TernaryWord& key,
             const tcam::ArraySearchMetrics& m) const {
    expect(r, m.ok, label + ": array search not ok: " + m.note);
    const std::vector<bool> truth = match_vector(image_, key);
    expect(r, m.rows.size() == truth.size(), label + ": wrong row count");
    int hits = 0;
    for (std::size_t row = 0; row < truth.size() && row < m.rows.size(); ++row) {
      expect(r, m.rows[row].matched == truth[row],
             label + ": row " + std::to_string(row) +
                 " match differs from ternary truth");
      hits += truth[row] ? 1 : 0;
      r.outputs.emplace_back(label + ".row" + std::to_string(row) + ".latency",
                             m.rows[row].latency);
    }
    expect(r, m.match_count == hits, label + ": match count differs");
    r.outputs.emplace_back(label + ".energy", m.energy);
  }

  std::uint64_t seed_;
  Rng keys_;
  std::vector<TernaryWord> image_;
  std::unique_ptr<tcam::ArrayTemplate> tpl_;
  std::unique_ptr<ShadowArray> shadow_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "row_replay") return std::make_unique<RowReplay>(seed);
  if (name == "row_rewrite") return std::make_unique<RowRewrite>(seed);
  if (name == "array64") return std::make_unique<Array64>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

// ---------------------------------------------------------------- helpers

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Largest relative deviation (percent) of `got` from `want`; labels must
// agree one to one. A golden zero (a matched search's latency) must stay
// exactly zero.
double drift_pct(const Outputs& got, const Outputs& want, std::string& why) {
  if (got.size() != want.size()) {
    why = "reference op count differs from golden";
    return std::numeric_limits<double>::infinity();
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].first != want[i].first) {
      why = "golden label mismatch at " + got[i].first;
      return std::numeric_limits<double>::infinity();
    }
    const double g = got[i].second;
    const double w = want[i].second;
    const double d = w == 0.0 ? (g == 0.0 ? 0.0 : std::numeric_limits<double>::infinity())
                              : std::abs(g - w) / std::abs(w) * 100.0;
    if (d > worst) {
      worst = d;
      why = "largest drift at " + got[i].first;
    }
  }
  return worst;
}

Outputs collect(const std::vector<OpResult>& ops) {
  Outputs out;
  for (const OpResult& r : ops)
    out.insert(out.end(), r.outputs.begin(), r.outputs.end());
  return out;
}

// Bit-exact equality of two output lists (the determinism checks).
bool identical(const Outputs& a, const Outputs& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].first != b[i].first ||
        std::memcmp(&a[i].second, &b[i].second, sizeof(double)) != 0)
      return false;
  return true;
}

JsonObject host_info(bool uses_pool) {
  JsonObject h;
  h.count("nproc", std::thread::hardware_concurrency());
  h.text("build_type", PERFBENCH_BUILD_TYPE);
  h.count("pool_threads",
          uses_pool ? nemtcam::util::shared_pool().thread_count() : 0);
  h.count("configured_threads", nemtcam::util::default_thread_count());
  return h;
}

void emit(RunReport& rep, const std::vector<MetricDef>& defs,
          const std::map<std::string, double>& values) {
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    if (it == values.end())
      throw std::logic_error(std::string("metric not computed: ") + d.name);
    rep.metrics.push_back({d.name, d.unit, it->second});
  }
  if (values.size() != defs.size())
    throw std::logic_error("computed metrics outside the declared set");
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i)
    out += (i > 0 ? ", " : "") + json_number(v[i]);
  return out + "]";
}

// ---------------------------------------------------------------- traced

JsonObject median_op(std::vector<std::pair<double, JsonObject>> ops) {
  if (ops.empty()) return {};
  const auto mid = ops.begin() + static_cast<std::ptrdiff_t>(ops.size() / 2);
  std::nth_element(ops.begin(), mid, ops.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  return mid->second;
}

// Aggregates the traced ops into the per-layer metrics and the detail
// object (per-kind and per-family figures, one op's attribution).
void summarize_trace(Workload& w, const std::vector<OpResult>& ops,
                     const std::vector<double>& untraced_ms, RunReport& rep) {
  double op_ms = 0, search_ms = 0, write_ms = 0, sta_ms = 0, transient_ms = 0;
  double searches = 0, writes = 0, builds = 0, attributed = 0;
  double steps = 0, rejected = 0, newton = 0, events = 0, recovered = 0;
  double assemblies = 0, pattern_builds = 0, factorizations = 0, refactors = 0;
  double bbd_fact = 0, bbd_refact = 0, devices_us = 0, linalg_us = 0;
  double stamp_us = 0, refactor_us = 0, solve_us = 0, newton_iter_us = 0;
  double unknowns = 0, fill_nnz = 0, mirror = 0;
  double bbd_blocks = 0, bbd_border = 0, bbd_fallbacks = 0;
  std::vector<BuildProbe> all_builds;
  std::map<int, BuildProbe> last_build;
  std::map<int, std::pair<double, int>> kind_search, kind_write;
  std::map<std::string, std::pair<double, int>> family;
  std::vector<double> traced_ms;
  // One op's attribution: the op whose time is the median of the run.
  std::vector<std::pair<double, JsonObject>> per_op;

  for (const OpResult& r : ops) {
    const OpTrace& t = r.trace;
    const MicroProbe& mp = w.micro(t);
    for (const BuildProbe& b : t.builds) {
      all_builds.push_back(b);
      last_build[t.kind] = b;
    }
    const double op_builds =
        static_cast<double>(t.hier_instances) /
        static_cast<double>(w.instances_per_build());
    double op_transient = 0, op_assemblies = 0, op_fact = 0, op_newton = 0;
    for (const RunProbe& p : t.runs) {
      op_transient += p.transient_ms;
      steps += static_cast<double>(p.steps);
      rejected += static_cast<double>(p.rejected);
      op_newton += static_cast<double>(p.newton);
      events += static_cast<double>(p.events);
      recovered += static_cast<double>(p.recovered);
      op_assemblies += static_cast<double>(p.cache.assemblies);
      pattern_builds += static_cast<double>(p.cache.pattern_builds);
      const double f = static_cast<double>(p.cache.full_factorizations +
                                           p.cache.refactorizations);
      op_fact += f;
      factorizations += f + static_cast<double>(p.cache.bbd_factorizations +
                                                p.cache.bbd_refactorizations);
      refactors += static_cast<double>(p.cache.refactorizations +
                                       p.cache.bbd_refactorizations);
      bbd_fact += static_cast<double>(p.cache.bbd_factorizations);
      bbd_refact += static_cast<double>(p.cache.bbd_refactorizations);
    }
    const BuildProbe& kb = last_build[t.kind];
    const double op_attr = op_transient + t.sta_ms + t.write_ms +
                           op_builds * (kb.build_ms + kb.erc_ms);
    // Monolithic LU per factorization where the op factorizes
    // monolithically; on a BBD circuit the solver's share is what a Newton
    // iteration costs beyond its stamping pass.
    const double op_linalg_us =
        op_fact > 0 ? op_fact * (mp.refactor_us + mp.solve_us)
                    : op_newton * std::max(0.0, mp.newton_iter_us - mp.stamp_us);
    {
      JsonObject one;
      one.num("op_ms", r.ms)
          .num("transient_ms", op_transient)
          .num("sta_ms", t.sta_ms)
          .num("write_ms", t.write_ms)
          .num("build_erc_ms", op_builds * (kb.build_ms + kb.erc_ms))
          .num("devices_ms", mp.stamp_us * op_assemblies * 1e-3)
          .num("linalg_ms", op_linalg_us * 1e-3)
          .num("unattributed_ms", r.ms - op_attr)
          .num("attributed_share", ratio(op_attr, r.ms));
      per_op.emplace_back(r.ms, one);
    }
    op_ms += r.ms;
    traced_ms.push_back(r.ms);
    search_ms += t.search_ms;
    searches += t.searches;
    write_ms += t.write_ms;
    writes += t.writes;
    sta_ms += t.sta_ms;
    builds += op_builds;
    transient_ms += op_transient;
    newton += op_newton;
    assemblies += op_assemblies;
    attributed += op_attr;
    devices_us += mp.stamp_us * op_assemblies;
    linalg_us += op_linalg_us;
    stamp_us += mp.stamp_us;
    refactor_us += mp.refactor_us;
    solve_us += mp.solve_us;
    newton_iter_us += mp.newton_iter_us;
    unknowns += static_cast<double>(mp.unknowns);
    fill_nnz += static_cast<double>(mp.fill_nnz);
    mirror += t.mirror_mismatches;
    bbd_blocks = std::max(bbd_blocks, static_cast<double>(t.bbd_blocks));
    bbd_border = std::max(bbd_border, static_cast<double>(t.bbd_border));
    bbd_fallbacks = std::max(bbd_fallbacks, static_cast<double>(t.bbd_fallbacks));
    if (t.searches > 0) {
      kind_search[t.kind].first += t.search_ms;
      kind_search[t.kind].second += t.searches;
    }
    if (t.writes > 0) {
      kind_write[t.kind].first += t.write_ms;
      kind_write[t.kind].second += t.writes;
    }
  }
  // Per-family stamp cost, averaged over the kinds whose circuits hold it.
  std::set<int> seen;
  for (const OpResult& r : ops) {
    if (!seen.insert(r.trace.kind).second) continue;
    for (const auto& [fam, us] : w.micro(r.trace).family_stamp_us) {
      family[fam].first += us;
      family[fam].second += 1;
    }
  }

  const double n = static_cast<double>(ops.size());
  double build_ms = 0, erc_ms = 0, findings = 0, cards = 0, instances = 0;
  for (const BuildProbe& b : all_builds) {
    build_ms += b.build_ms;
    erc_ms += b.erc_ms;
    findings += static_cast<double>(b.findings);
    cards += static_cast<double>(b.cards);
    instances += static_cast<double>(b.instances);
  }
  const double nb = static_cast<double>(all_builds.size());

  std::map<std::string, double> v;
  v["tcam.op_ms"] = op_ms / n;
  v["tcam.search_ms"] = ratio(search_ms, searches);
  v["tcam.searches_per_op"] = searches / n;
  v["tcam.writes_per_op"] = writes / n;
  v["tcam.build_ms"] = ratio(build_ms, nb);
  v["tcam.builds_per_op"] = builds / n;
  v["hier.cards_per_build"] = ratio(cards, nb);
  v["hier.instances_per_build"] = ratio(instances, nb);
  v["erc.check_ms"] = ratio(erc_ms, nb);
  v["erc.findings"] = ratio(findings, nb);
  v["sta.analyze_ms"] = ratio(sta_ms, searches);
  v["sta.share"] = ratio(sta_ms, op_ms);
  v["spice.transient_ms"] = transient_ms / n;
  v["spice.share"] = ratio(transient_ms, op_ms);
  v["spice.steps_per_op"] = steps / n;
  v["spice.rejected_per_op"] = rejected / n;
  v["spice.newton_per_op"] = newton / n;
  v["spice.events_per_op"] = events / n;
  v["spice.recovered_per_op"] = recovered / n;
  v["spice.accept_ratio"] = ratio(steps, steps + rejected);
  v["spice.newton_per_step"] = ratio(newton, steps);
  v["spice.us_per_newton"] = ratio(transient_ms * 1e3, newton);
  v["spice.assemblies_per_op"] = assemblies / n;
  v["spice.pattern_builds_per_op"] = pattern_builds / n;
  v["spice.factorizations_per_op"] = factorizations / n;
  v["spice.refactors_per_op"] = refactors / n;
  v["spice.refactor_ratio"] = ratio(refactors, factorizations);
  v["spice.newton_iter_us"] = newton_iter_us / n;
  v["devices.stamp_us"] = stamp_us / n;
  v["devices.share"] = ratio(devices_us, transient_ms * 1e3);
  v["linalg.refactor_us"] = refactor_us / n;
  v["linalg.solve_us"] = solve_us / n;
  v["linalg.unknowns"] = unknowns / n;
  v["linalg.fill_nnz"] = fill_nnz / n;
  v["linalg.share"] = ratio(linalg_us, transient_ms * 1e3);
  v["linalg.bbd_blocks"] = bbd_blocks;
  v["linalg.bbd_border"] = bbd_border;
  v["linalg.bbd_fallbacks"] = bbd_fallbacks;
  v["linalg.bbd_factorizations_per_op"] = bbd_fact / n;
  v["linalg.bbd_refactors_per_op"] = bbd_refact / n;
  v["linalg.bbd_refactor_ratio"] = ratio(bbd_refact, bbd_fact + bbd_refact);
  v["trace.unattributed_share"] = ratio(op_ms - attributed, op_ms);
  v["trace.overhead_pct"] =
      (ratio(median(traced_ms), median(untraced_ms)) - 1.0) * 100.0;
  emit(rep, per_layer_defs(), v);

  JsonObject by_kind;
  for (const auto& [k, s] : kind_search)
    if (k >= 0)
      by_kind.num(std::string("tcam.search_ms.") + kKinds[k].id, s.first / s.second);
  for (const auto& [k, s] : kind_write)
    if (k >= 0)
      by_kind.num(std::string("tcam.write_ms.") + kKinds[k].id, s.first / s.second);
  if (writes > 0) by_kind.num("tcam.write_ms", write_ms / writes);
  JsonObject by_family;
  for (const auto& [fam, s] : family)
    by_family.num("devices.stamp_us." + fam, s.first / s.second);
  JsonObject detail;
  detail.count("traced_ops", ops.size())
      .count("mirror_mismatches", static_cast<std::uint64_t>(mirror))
      .object("per_kind", by_kind)
      .object("per_family", by_family)
      .object("median_op", median_op(per_op))
      .num("untraced_op_ms_p50", median(untraced_ms))
      .num("traced_op_ms_p50", median(traced_ms));
  rep.info.object("layers", detail);
}

}  // namespace

// ---------------------------------------------------------------- registry

const std::vector<MetricDef>& end_to_end_defs() {
  static const std::vector<MetricDef> defs = {
      {"ops_per_s", "1/s", {}},
      {"op_ms_p50", "ms", {}},
      {"setup_s", "s", {}},
      {"peak_rss_mb", "MB", {}},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_defs() {
  static const std::vector<MetricDef> defs = {
      {"tcam.op_ms", "ms", {}},
      {"tcam.search_ms", "ms", {}},
      {"tcam.searches_per_op", "count", {}},
      {"tcam.writes_per_op", "count", {}},
      {"tcam.build_ms", "ms", {}},
      {"tcam.builds_per_op", "count", {}},
      {"hier.cards_per_build", "count", {}},
      {"hier.instances_per_build", "count", {}},
      {"erc.check_ms", "ms", {}},
      {"erc.findings", "count", {}},
      {"sta.analyze_ms", "ms", {}},
      {"sta.share", "ratio", {"sta.analyze_ms", "tcam.searches_per_op", "tcam.op_ms"}},
      {"spice.transient_ms", "ms", {}},
      {"spice.share", "ratio", {"spice.transient_ms", "tcam.op_ms"}},
      {"spice.steps_per_op", "count", {}},
      {"spice.rejected_per_op", "count", {}},
      {"spice.newton_per_op", "count", {}},
      {"spice.events_per_op", "count", {}},
      {"spice.recovered_per_op", "count", {}},
      {"spice.accept_ratio", "ratio", {"spice.steps_per_op", "spice.rejected_per_op"}},
      {"spice.newton_per_step", "ratio", {"spice.newton_per_op", "spice.steps_per_op"}},
      {"spice.us_per_newton", "us", {"spice.transient_ms", "spice.newton_per_op"}},
      {"spice.assemblies_per_op", "count", {}},
      {"spice.pattern_builds_per_op", "count", {}},
      {"spice.factorizations_per_op", "count", {}},
      {"spice.refactors_per_op", "count", {}},
      {"spice.refactor_ratio", "ratio", {"spice.refactors_per_op", "spice.factorizations_per_op"}},
      {"spice.newton_iter_us", "us", {}},
      {"devices.stamp_us", "us", {}},
      {"devices.share", "ratio", {"devices.stamp_us", "spice.assemblies_per_op", "spice.transient_ms"}},
      {"linalg.refactor_us", "us", {}},
      {"linalg.solve_us", "us", {}},
      {"linalg.unknowns", "count", {}},
      {"linalg.fill_nnz", "count", {}},
      {"linalg.share", "ratio",
       {"linalg.refactor_us", "linalg.solve_us", "spice.factorizations_per_op",
        "spice.newton_iter_us", "devices.stamp_us", "spice.newton_per_op",
        "spice.transient_ms"}},
      {"linalg.bbd_blocks", "count", {}},
      {"linalg.bbd_border", "count", {}},
      {"linalg.bbd_fallbacks", "count", {}},
      {"linalg.bbd_factorizations_per_op", "count", {}},
      {"linalg.bbd_refactors_per_op", "count", {}},
      {"linalg.bbd_refactor_ratio", "ratio", {"linalg.bbd_refactors_per_op", "linalg.bbd_factorizations_per_op"}},
      {"trace.unattributed_share", "ratio", {"tcam.op_ms", "spice.share", "sta.share"}},
      {"trace.overhead_pct", "%", {}},
  };
  return defs;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"row_replay", "row_rewrite",
                                                 "array64"};
  return names;
}

std::vector<std::pair<std::string, double>> reference_outputs(
    const std::string& workload, std::uint64_t seed) {
  std::unique_ptr<Workload> w = make_workload(workload, seed);
  std::vector<OpResult> ops = w->setup();
  for (int i = 0; i < w->round_size(); ++i)
    ops.push_back(w->op(static_cast<std::uint64_t>(i), nullptr));
  return collect(ops);
}

RunReport run_workload(const RunConfig& cfg) {
  RunReport rep;
  std::unique_ptr<Workload> w;
  std::vector<OpResult> checked;  // every op whose outputs were checked

  // Setup: build the system and run its first op(s), several times from
  // scratch; the last build is the one measured.
  std::vector<double> setup_s;
  Outputs setup_outputs;
  bool setup_identical = true;
  const int setup_reps = make_workload(cfg.workload, cfg.seed)->setup_reps();
  for (int rep_i = 0; rep_i < setup_reps; ++rep_i) {
    w.reset();
    w = make_workload(cfg.workload, cfg.seed);
    const std::uint64_t t0 = now_ns();
    std::vector<OpResult> first = w->setup();
    setup_s.push_back(ms_since(t0) * 1e-3);
    const Outputs out = collect(first);
    if (rep_i == 0) setup_outputs = out;
    else setup_identical = setup_identical && identical(out, setup_outputs);
    checked.insert(checked.end(), first.begin(), first.end());
  }
  const std::size_t setup_ops = checked.size();

  // Measurement: whole rounds until cfg.seconds have passed. The traced
  // run first measures one round untraced, for the overhead figure.
  std::unique_ptr<Tracer> tracer;
  std::vector<OpResult> traced;
  std::vector<double> op_ms, untraced_ms;
  std::uint64_t next_op = 0;
  const int rs = w->round_size();
  if (cfg.trace) {
    for (int j = 0; j < rs; ++j) {
      OpResult r = w->op(next_op++, nullptr);
      untraced_ms.push_back(r.ms);
      checked.push_back(std::move(r));
    }
    tracer = std::make_unique<Tracer>();
  }
  std::map<std::string, std::vector<double>> by_group;
  const std::uint64_t m0 = now_ns();
  int rounds = 0;
  std::vector<double> round_s;
  do {
    const std::uint64_t r0 = now_ns();
    for (int j = 0; j < rs; ++j) {
      OpResult r = w->op(next_op++, tracer.get());
      op_ms.push_back(r.ms);
      by_group[r.group].push_back(r.ms);
      if (cfg.trace) traced.push_back(r);
      checked.push_back(std::move(r));
    }
    ++rounds;
    round_s.push_back(ms_since(r0) * 1e-3);
    if (cfg.trace) w->sample_micro();
    // Stop once less than half a round's time is left, so a run holds
    // the same number of rounds when a round is a large share of it.
  } while (ms_since(m0) * 1e-3 + 0.5 * round_s.back() < cfg.seconds);
  const double measure_s = ms_since(m0) * 1e-3;

  // Golden check on the reference ops: the setup op(s) plus the first
  // round of the default seed.
  Outputs reference;
  bool golden_checked = false;
  double drift = 0.0;
  std::string drift_why;
  if (cfg.seed == kDefaultSeed) {
    reference = setup_outputs;
    const auto round0 = checked.begin() + static_cast<std::ptrdiff_t>(setup_ops);
    const Outputs first_round = collect({round0, round0 + rs});
    reference.insert(reference.end(), first_round.begin(), first_round.end());
  } else if (!w->uses_pool()) {
    reference = reference_outputs(cfg.workload, kDefaultSeed);
  }
  if (!cfg.golden_out.empty()) {
    if (reference.empty())
      throw std::runtime_error("recording the golden file needs --seed 1");
    Golden g;
    try {
      g = read_golden(cfg.golden_out);
    } catch (const std::exception&) {
      // first workload recorded into a new file
    }
    g[cfg.workload] = reference;
    write_golden(cfg.golden_out, g);
  } else if (!reference.empty() && !cfg.golden_path.empty()) {
    const Golden g = read_golden(cfg.golden_path);
    const auto it = g.find(cfg.workload);
    if (it == g.end()) {
      drift = std::numeric_limits<double>::infinity();
      drift_why = "no golden values for this workload";
    } else {
      drift = drift_pct(reference, it->second, drift_why);
    }
    golden_checked = true;
  }

  // Correctness verdict.
  std::string first_failure;
  for (const OpResult& r : checked) {
    ++rep.attempted;
    if (!r.ok) {
      ++rep.failed;
      if (first_failure.empty()) first_failure = r.why;
    }
  }
  rep.correct = rep.failed == 0 && setup_identical &&
                (!golden_checked || drift <= kDriftLimitPct);

  const LatencySummary lat = summarize(op_ms);
  JsonObject checks;
  checks.count("attempted", rep.attempted)
      .count("failed", rep.failed)
      .num("fail_ratio", ratio(static_cast<double>(rep.failed),
                               static_cast<double>(rep.attempted)))
      .count("setup_ops", setup_ops)
      .flag("setup_reps_identical", setup_identical)
      .flag("golden_checked", golden_checked)
      .num("sim_drift_pct", golden_checked ? drift : std::nan(""))
      .num("sim_drift_limit_pct", kDriftLimitPct);
  if (!drift_why.empty()) checks.text("sim_drift_at", drift_why);
  if (!first_failure.empty()) checks.text("first_failure", first_failure);
  JsonObject samples;
  samples.count("ops", op_ms.size())
      .count("rounds", static_cast<std::uint64_t>(rounds))
      .num("measure_s", measure_s)
      .num("op_ms_p50", lat.p50)
      .num("op_ms_p90", has_p90(lat.n) ? lat.p90 : std::nan(""))
      .count("op_ms_p90_n", has_p90(lat.n) ? lat.n : 0);
  samples.raw("setup_s_reps", json_array(setup_s));
  samples.raw("round_s", json_array(round_s));
  JsonObject groups;
  for (const auto& [g, v] : by_group) groups.num(g, median(v));
  samples.object("op_ms_p50_by_group", groups);
  rep.info.text("workload", cfg.workload)
      .count("seed", cfg.seed)
      .num("seconds", cfg.seconds)
      .flag("trace", cfg.trace)
      .object("host", host_info(w->uses_pool()))
      .object("samples", samples)
      .object("checks", checks);

  if (cfg.trace) {
    summarize_trace(*w, traced, untraced_ms, rep);
    if (!cfg.spans_out.empty()) tracer->write(cfg.spans_out);
  } else {
    std::map<std::string, double> v;
    v["ops_per_s"] = static_cast<double>(op_ms.size()) / measure_s;
    v["op_ms_p50"] = lat.p50;
    v["setup_s"] = median(setup_s);
    v["peak_rss_mb"] = peak_rss_mb();
    emit(rep, end_to_end_defs(), v);
  }
  return rep;
}

}  // namespace perfbench
