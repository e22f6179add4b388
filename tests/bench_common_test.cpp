// The bench binaries' shared step-control flag parser (bench/BenchCommon.h):
// accepted flags are applied to the process-wide defaults and removed from
// argv, everything else is forwarded to google-benchmark in order, and a
// tolerance or scale that is missing or not positive is a usage error
// (exit 2) rather than a silent run at the defaults.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "BenchCommon.h"

namespace {

using namespace nemtcam;

// Runs the parser over `args` (argv[0] prepended) and returns what it left
// for google-benchmark.
std::vector<std::string> consume(std::vector<std::string> args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  int argc = static_cast<int>(argv.size());
  bench::consume_step_control_flags(&argc, argv.data());
  return {argv.begin(), argv.begin() + argc};
}

// Restores the process-wide step-control defaults a test changes.
class StepControlFlags : public ::testing::Test {
 protected:
  void TearDown() override {
    spice::set_default_lte_tolerances(reltol_, abstol_);
    spice::set_default_fixed_dt_scale(dt_scale_);
  }

 private:
  double reltol_ = spice::default_lte_reltol();
  double abstol_ = spice::default_lte_abstol_v();
  double dt_scale_ = spice::default_fixed_dt_scale();
};

TEST_F(StepControlFlags, AppliesBothFormsAndForwardsTheRest) {
  const std::vector<std::string> left =
      consume({"--reltol", "2e-3", "--benchmark_filter=x", "--abstol=3e-6",
               "--dt-scale", "0.5", "--other"});
  EXPECT_EQ(left, (std::vector<std::string>{"bench", "--benchmark_filter=x",
                                            "--other"}));
  EXPECT_DOUBLE_EQ(spice::default_lte_reltol(), 2e-3);
  EXPECT_DOUBLE_EQ(spice::default_lte_abstol_v(), 3e-6);
  EXPECT_DOUBLE_EQ(spice::default_fixed_dt_scale(), 0.5);
}

TEST_F(StepControlFlags, LongerFlagSharingThePrefixIsForwarded) {
  EXPECT_EQ(consume({"--reltolerance=1"}),
            (std::vector<std::string>{"bench", "--reltolerance=1"}));
}

TEST_F(StepControlFlags, NegativeSeparateValueIsAUsageError) {
  EXPECT_EXIT(consume({"--reltol", "-1"}), ::testing::ExitedWithCode(2),
              "--reltol needs a positive value, got '-1'");
}

TEST_F(StepControlFlags, ZeroOrGarbageValueIsAUsageError) {
  EXPECT_EXIT(consume({"--reltol=0"}), ::testing::ExitedWithCode(2),
              "--reltol needs a positive value");
  EXPECT_EXIT(consume({"--dt-scale=fine"}), ::testing::ExitedWithCode(2),
              "--dt-scale needs a positive value");
}

TEST_F(StepControlFlags, MissingValueIsAUsageError) {
  EXPECT_EXIT(consume({"--abstol"}), ::testing::ExitedWithCode(2),
              "--abstol needs a positive value");
}

}  // namespace
