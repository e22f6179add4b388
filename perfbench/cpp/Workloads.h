// The benchmark's workloads and the run that measures them.
//
// A run builds the system under test from seeded inputs (setup, repeated
// and timed), then replays rounds of ops until --seconds have passed,
// checking every op against ternary truth. The untraced run reports the
// end-to-end metrics; the traced run records spans around the calls into
// the library and attributes op time to its layers through the probes in
// Probe.h.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "Json.h"

namespace perfbench {

// Seed whose reference ops the golden file records.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string golden_path;  // reference outputs to compare against
  std::string golden_out;   // record the reference outputs here instead
  std::string spans_out;    // traced run: where the spans are written
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunReport {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  // end-to-end (untraced) or per-layer (traced)
  JsonObject info;              // host, sample counts, checks, trace detail
};

// A metric the run emits. A ratio names the metrics it is computed from;
// those are always emitted beside it.
struct MetricDef {
  const char* name;
  const char* unit;
  std::vector<const char*> bases;
};
const std::vector<MetricDef>& end_to_end_defs();
const std::vector<MetricDef>& per_layer_defs();

const std::vector<std::string>& workload_names();

RunReport run_workload(const RunConfig& cfg);

// The simulated outputs of the reference ops (setup ops plus the first
// round) for `seed`, as (label, value) pairs. Used by the golden check
// and by the determinism self-test.
std::vector<std::pair<std::string, double>> reference_outputs(
    const std::string& workload, std::uint64_t seed);

}  // namespace perfbench
