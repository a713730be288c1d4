// The chaos campaign acceptance gates, pinned in ctest:
//   * the 10k-plan mixed campaign at the default seed finds zero oracle
//     violations (the protocol holes chaos found are fixed and stay fixed);
//   * campaign results are bit-identical at --threads 1 and --threads 8
//     (merged checksum AND merged metrics);
//   * every fault-mix profile runs clean at smoke scale;
//   * a replayed trial's trace (caa-chaos --index I --trace) is its flight
//     records, and asking for it leaves the trial's checksum alone;
//   * a repro recipe reads back through parse_repro exactly as caa-chaos
//     --replay reads it, and malformed recipes are rejected;
//   * the Paxos-exit trial that used to abort the whole campaign replays
//     clean from its recipe.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>

#include "fault/chaos.h"
#include "fault/repro.h"

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

/// The recipe header line the campaign's post-pass prints above a plan.
std::string recipe_header(std::uint64_t trial_seed, std::string_view mix,
                          std::uint32_t participants) {
  return "    trial seed 0x" + seed_hex(trial_seed) + ", mix " +
         std::string(mix) + ", " + std::to_string(participants) +
         " participants\n";
}

TEST(Repro, ParsesTheRecipeTheCampaignPrints) {
  ChaosOptions options;
  options.seed = 7;
  options.mix = FaultMix::kCrashHeavy;
  const std::uint64_t trial_seed = run::derive_seed(options.seed, 3);
  const std::uint32_t participants = trial_participants(trial_seed, options);
  const FaultPlan plan = chaos_plan(trial_seed, options);
  ASSERT_FALSE(plan.events.empty());
  // Laid out like run_chaos_campaign's failure report: a repro line, the
  // header, the plan indented four spaces, then a critical-path section.
  std::string text = "  repro (plan shrunk 6 -> 2 events, 9 replays):\n";
  text += recipe_header(trial_seed, "crash-heavy", participants);
  append_indented(text, plan.to_text());
  text += "  critical path (caa-inspect decodes the dump):\n";
  append_indented(text,
                  "action 0 round 0: 2 message hops, t=1000..1200, "
                  "resolved e1\n  #4 t=1000 raise O1 e1 a0 r0\n");

  const Result<ReproArtifact> parsed = parse_repro(text);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status();
  EXPECT_EQ(parsed.value().seed, trial_seed);
  EXPECT_EQ(parsed.value().mix, FaultMix::kCrashHeavy);
  EXPECT_EQ(parsed.value().participants, participants);
  EXPECT_EQ(parsed.value().plan.to_text(), plan.to_text());
}

TEST(Repro, RejectsMalformedRecipes) {
  const std::string plan = "    faultplan v1\n    crash node=1 at=1500\n";
  const std::string header = recipe_header(0xff, "mixed", 3);
  ASSERT_TRUE(parse_repro(header + plan).is_ok());
  const auto rejects = [](const std::string& text, std::string_view why) {
    const Result<ReproArtifact> parsed = parse_repro(text);
    ASSERT_FALSE(parsed.is_ok()) << text;
    EXPECT_NE(parsed.status().message().find(why), std::string::npos)
        << parsed.status();
  };
  rejects(plan, "header");
  rejects(header, "faultplan v1");
  rejects("trial seed 0xzz, mix mixed, 3 participants\n" + plan,
          "bad trial seed");
  rejects(recipe_header(0xff, "mixed", 1) + plan, "participant count");
  rejects(recipe_header(0xff, "lunar", 3) + plan, "unknown fault mix");
}

/// Seed 42, trial 19548 of the mixed profile under Paxos Commit: a member's
/// Done started a recovery round whose self-delivered ballots ran to the
/// decision and closed the scope, and the member then cast its ballot-0
/// vote into the closed scope — a CHECK that killed the whole campaign.
/// Replayed from its recipe, the way caa-chaos --replay reads it.
TEST(ChaosCampaign, PaxosRecoveryDecidingBeforeTheVoteReplaysClean) {
  ChaosOptions options;
  options.seed = 42;
  options.exit = exit::ExitKind::kPaxos;
  const std::uint64_t trial_seed = run::derive_seed(options.seed, 19548);
  std::string recipe = recipe_header(trial_seed, "mixed",
                                     trial_participants(trial_seed, options));
  append_indented(recipe, chaos_plan(trial_seed, options).to_text());

  const Result<ReproArtifact> repro = parse_repro(recipe);
  ASSERT_TRUE(repro.is_ok()) << repro.status();
  ASSERT_EQ(repro.value().plan.exit, exit::ExitKind::kPaxos);
  ChaosOptions replay;
  replay.mix = repro.value().mix;
  replay.min_participants = repro.value().participants;
  replay.max_participants = repro.value().participants;
  const run::WorldResult result =
      run_chaos_trial(repro.value().seed, repro.value().plan, replay);
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.events, 1170);
  EXPECT_EQ(result.checksum, 0x26fedfe76dde4321ULL);
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
