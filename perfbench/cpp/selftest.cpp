// Self-tests of the benchmark's own machinery: seeded generation,
// simulated-output determinism (same seed, and 1 vs N pool threads on the
// array), percentile/sample-count rules, and the ratio-base registry.
// Exit code 0 when every check passes.
#include <cmath>
#include <cstring>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "Inputs.h"
#include "Stats.h"
#include "Workloads.h"
#include "tcam/ArrayTemplate.h"
#include "tcam/RowSpecs.h"
#include "tcam/TcamRow.h"
#include "util/ThreadPool.h"

namespace {

int g_failures = 0;

void check(bool cond, const std::string& what) {
  std::cout << (cond ? "ok   " : "FAIL ") << what << '\n';
  if (!cond) ++g_failures;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void test_generation() {
  using namespace perfbench;
  auto words = [](std::uint64_t seed) {
    std::vector<TernaryWord> out;
    for (int k = 0; k < 7; ++k) {
      Rng r(seed, "replay_word", static_cast<std::uint64_t>(k));
      out.push_back(random_word(r, 64, 6));
      for (int c = 0; c < kKeyClasses; ++c)
        out.push_back(make_key(r, out.front(), static_cast<KeyClass>(c)));
    }
    for (const TernaryWord& w : array_image(seed, 64, 64)) out.push_back(w);
    return out;
  };
  check(words(7) == words(7), "same seed gives identical words and keys");
  Rng xr(9, "x_count", 0);
  check(random_word(xr, 64, 6).count_x() == 6, "stored words carry exactly 10% X");
  check(words(7) != words(8), "different seeds give different words");

  Rng r(3, "classes", 0);
  const TernaryWord stored = random_word(r, 64, 6);
  bool classes_hold = true;
  for (int i = 0; i < 200; ++i) {
    classes_hold = classes_hold &&
                   stored.matches(make_key(r, stored, KeyClass::Exact)) &&
                   stored.mismatch_count(make_key(r, stored, KeyClass::OneBit)) == 1 &&
                   stored.mismatch_count(make_key(r, stored, KeyClass::MultiBit)) == 4 &&
                   stored.matches(make_key(r, stored, KeyClass::XKey)) &&
                   make_key(r, stored, KeyClass::XKey).count_x() == 16;
  }
  check(classes_hold, "row key classes hold their match outcome");

  const auto image = array_image(5, 64, 64);
  bool array_classes = true;
  for (int c = 0; c < kArrayKeyClasses; ++c) {
    const TernaryWord key = make_array_key(r, image, static_cast<ArrayKeyClass>(c));
    int hits = 0;
    for (const bool m : match_vector(image, key)) hits += m ? 1 : 0;
    array_classes = array_classes && (c == 0 ? hits == 0 : c == 1 ? hits == 1 : hits >= 2);
  }
  check(array_classes, "array key classes hit 0, 1 and several rows");
}

void test_stats() {
  using namespace perfbench;
  check(median({3, 1, 2}) == 2.0, "median of an odd sample");
  check(median({4, 1, 2, 3}) == 2.5, "median of an even sample interpolates");
  check(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9) == 10.0,
        "p90 by linear interpolation");
  check(!has_p90(99) && has_p90(100), "p90 needs 10 samples beyond it");
  std::vector<double> s(150);
  for (std::size_t i = 0; i < s.size(); ++i) s[i] = static_cast<double>(i);
  const LatencySummary l = summarize(s);
  check(l.n == 150 && l.p50 == 74.5 && std::abs(l.p90 - 134.1) < 1e-9,
        "summary carries its sample count");
  check(summarize({1, 2, 3}).p90 == 0.0, "no p90 from a short run");
}

void test_registry() {
  using namespace perfbench;
  for (const auto& [kind, defs] :
       {std::pair{"end-to-end", &end_to_end_defs()},
        std::pair{"per-layer", &per_layer_defs()}}) {
    std::set<std::string> names;
    bool bases_ok = true;
    bool unique = true;
    for (const MetricDef& d : *defs) unique = names.insert(d.name).second && unique;
    for (const MetricDef& d : *defs) {
      const bool is_ratio = std::string(d.unit) == "ratio";
      if (is_ratio && d.bases.empty()) bases_ok = false;
      for (const char* b : d.bases) bases_ok = bases_ok && names.count(b) == 1;
    }
    check(unique, std::string(kind) + ": metric names are unique");
    check(bases_ok, std::string(kind) + ": every ratio is emitted with its bases");
  }
}

void test_determinism() {
  using namespace perfbench;
  for (const char* w : {"row_replay", "row_rewrite"}) {
    const auto a = reference_outputs(w, kDefaultSeed);
    const auto b = reference_outputs(w, kDefaultSeed);
    bool same = a.size() == b.size() && !a.empty();
    for (std::size_t i = 0; same && i < a.size(); ++i)
      same = a[i].first == b[i].first && same_bits(a[i].second, b[i].second);
    check(same, std::string(w) + ": same seed gives identical simulated outputs");
  }
}

void test_array_threads() {
  using namespace perfbench;
  namespace tcam = nemtcam::tcam;
  const auto image = array_image(kDefaultSeed, 64, 64);
  Rng r(kDefaultSeed, "array_setup_key", 0);
  const TernaryWord key = make_array_key(r, image, ArrayKeyClass::Several);
  const std::size_t n = std::max<std::size_t>(1, nemtcam::util::default_thread_count());
  auto run = [&](std::size_t threads) {
    nemtcam::util::ThreadPool pool(threads);
    tcam::ArrayOptions opt;
    opt.pool = &pool;
    tcam::ArrayTemplate tpl(
        tcam::nem3t2n_search_spec(tcam::Calibration::standard()), 64, 64, opt);
    for (int row = 0; row < 64; ++row) tpl.store(row, image[static_cast<std::size_t>(row)]);
    return tpl.search(key);
  };
  const tcam::ArraySearchMetrics one = run(1);
  const tcam::ArraySearchMetrics many = run(n);
  bool same = one.ok && many.ok && same_bits(one.energy, many.energy) &&
              one.rows.size() == many.rows.size();
  for (std::size_t i = 0; same && i < one.rows.size(); ++i)
    same = one.rows[i].matched == many.rows[i].matched &&
           same_bits(one.rows[i].latency, many.rows[i].latency);
  check(same, "array64: bit-identical outputs at 1 and " + std::to_string(n) +
                  " pool threads");
}

// Not a pass/fail check: prints, per row kind, whether an exact-match key
// is reported as a match at each stored-X count (3 random words each).
// This is how the 4T2M MRAM false mismatch at high X density was found;
// see NOTES.md.
void x_density_sweep() {
  namespace tcam = nemtcam::tcam;
  for (int kind = 0; kind < 7; ++kind) {
    auto row = tcam::make_row(static_cast<tcam::TcamKind>(kind), 64, 64);
    std::cout << tcam::kind_name(row->kind()) << ":";
    for (const int nx : {0, 6, 8, 10, 12, 14, 16, 24, 32}) {
      int wrong = 0;
      for (int t = 0; t < 3; ++t) {
        perfbench::Rng r(100 + static_cast<std::uint64_t>(t), "x_sweep",
                         static_cast<std::uint64_t>(nx));
        const perfbench::TernaryWord w = perfbench::random_word(r, 64, nx);
        row->store(w);
        wrong += row->search(perfbench::make_key(r, w, perfbench::KeyClass::Exact))
                         .matched
                     ? 0
                     : 1;
      }
      std::cout << ' ' << nx << "X:" << wrong << "/3";
    }
    std::cout << "  (false mismatches of exact keys)\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "--x-sweep") {
    x_density_sweep();
    return 0;
  }
  test_generation();
  test_stats();
  test_registry();
  test_determinism();
  test_array_threads();
  std::cout << (g_failures == 0 ? "all self-tests passed" : "self-tests FAILED")
            << '\n';
  return g_failures == 0 ? 0 : 1;
}
