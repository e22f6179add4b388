// The perfbench binary: runs one workload and prints, as its last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}. The line
// before it carries the run's detail (host, sample counts, checks, and
// in a traced run the per-kind/per-family breakdown).
//
//   perfbench --workload row_replay --seed 1 --seconds 10 --trace 0
//             [--golden FILE] [--record-golden FILE] [--spans FILE]
#include <cstdlib>
#include <iostream>
#include <string>

#include "Workloads.h"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--golden FILE] [--record-golden FILE] "
               "[--spans FILE]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") cfg.workload = v;
      else if (a == "--seed") cfg.seed = std::stoull(v);
      else if (a == "--seconds") cfg.seconds = std::stod(v);
      else if (a == "--trace") cfg.trace = std::stoi(v) != 0;
      else if (a == "--golden") cfg.golden_path = v;
      else if (a == "--record-golden") cfg.golden_out = v;
      else if (a == "--spans") cfg.spans_out = v;
      else usage("unknown option " + a);
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (cfg.workload.empty()) usage("--workload is required");
  if (cfg.seconds <= 0.0) usage("--seconds must be positive");

  try {
    const perfbench::RunReport rep = perfbench::run_workload(cfg);
    perfbench::JsonObject metrics;
    for (const perfbench::Metric& m : rep.metrics)
      metrics.object(m.name, perfbench::JsonObject().num("value", m.value).text(
                                 "unit", m.unit));
    std::cout << perfbench::JsonObject().object("detail", rep.info).str() << '\n'
              << perfbench::JsonObject()
                     .flag("correct", rep.correct)
                     .count("attempted", rep.attempted)
                     .count("failed", rep.failed)
                     .object("metrics", metrics)
                     .str()
              << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
