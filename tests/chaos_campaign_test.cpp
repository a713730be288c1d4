// The chaos campaign acceptance gates, pinned in ctest:
//   * the 10k-plan mixed campaign at the default seed finds zero oracle
//     violations (the protocol holes chaos found are fixed and stay fixed);
//   * campaign results are bit-identical at --threads 1 and --threads 8
//     (merged checksum AND merged metrics);
//   * every fault-mix profile runs clean at smoke scale;
//   * a replayed trial's trace (caa-chaos --index I --trace) is its flight
//     records, and asking for it leaves the trial's checksum alone.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "fault/chaos.h"

namespace caa::fault {
namespace {

TEST(ChaosCampaign, TenThousandMixedPlansZeroViolations) {
  ChaosOptions options;
  options.seed = 42;
  options.plans = 10'000;
  options.threads = 0;  // hardware concurrency
  options.mix = FaultMix::kMixed;
  const ChaosReport report = run_chaos_campaign(options);
  EXPECT_EQ(report.violations, 0u) << report.failure_report();
  EXPECT_GT(report.campaign.total_events, 0);
}

TEST(ChaosCampaign, ResultsAreThreadCountInvariant) {
  auto run_with = [](unsigned threads) {
    ChaosOptions options;
    options.seed = 42;
    options.plans = 200;
    options.threads = threads;
    options.mix = FaultMix::kMixed;
    return run_chaos_campaign(options);
  };
  const ChaosReport serial = run_with(1);
  const ChaosReport parallel = run_with(8);
  ASSERT_EQ(serial.violations, 0u) << serial.failure_report();
  ASSERT_EQ(parallel.violations, 0u) << parallel.failure_report();
  EXPECT_EQ(serial.campaign.merged_checksum,
            parallel.campaign.merged_checksum);
  EXPECT_EQ(serial.campaign.merged_metrics.to_string(),
            parallel.campaign.merged_metrics.to_string());
  EXPECT_EQ(serial.campaign.total_events, parallel.campaign.total_events);
}

TEST(ChaosCampaign, TraceLogIsTheTrialsFlightRecords) {
  ChaosOptions options;
  options.seed = 42;
  const std::size_t index = 3;
  const std::uint64_t trial_seed = run::derive_seed(options.seed, index);
  const FaultPlan plan = chaos_plan(trial_seed, options);
  const run::WorldResult plain = run_chaos_trial(trial_seed, plan, options,
                                                 index);
  std::string trace_log;
  const run::WorldResult traced = run_chaos_trial(
      trial_seed, plan, options, index, /*critical_path=*/nullptr, &trace_log);
  ASSERT_TRUE(plain.ok) << plain.error;
  EXPECT_EQ(traced.checksum, plain.checksum);
  EXPECT_EQ(traced.events, plain.events);
  // One obs::format_record line per record, ids consecutive from #1.
  std::istringstream lines(trace_log);
  std::string line;
  std::uint64_t next = 1;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.rfind("#" + std::to_string(next) + " t=", 0), 0u) << line;
    ++next;
  }
  EXPECT_GT(next, 1u) << "empty trace log";
}

class ProfileSmoke : public ::testing::TestWithParam<FaultMix> {};

TEST_P(ProfileSmoke, RunsCleanAtSmokeScale) {
  ChaosOptions options;
  options.seed = 42;
  options.plans = 500;
  options.threads = 0;
  options.mix = GetParam();
  const ChaosReport report = run_chaos_campaign(options);
  EXPECT_EQ(report.violations, 0u)
      << fault_mix_name(GetParam()) << ": " << report.failure_report();
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, ProfileSmoke,
    ::testing::Values(FaultMix::kMixed, FaultMix::kCrashHeavy,
                      FaultMix::kNetworkOnly, FaultMix::kResolverHunt),
    [](const ::testing::TestParamInfo<FaultMix>& info) {
      std::string name(fault_mix_name(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace caa::fault
