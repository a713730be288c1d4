// Liveness watchdog: refcounted holds, deadline polling, quiescent-stall
// diagnosis, the planted stalled-exit golden, crash-release (a fail-stop
// victim must not read as a stall), the chaos-oracle hook, and the
// zero-drift contract (arming the watchdog never moves checksums).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "caa/world.h"
#include "obs/watchdog.h"
#include "run/campaign.h"
#include "scenario/scenarios.h"

#ifndef CAA_TEST_DATA_DIR
#error "CAA_TEST_DATA_DIR must point at the tests/ source directory"
#endif

namespace caa {
namespace {

using action::EnterConfig;
using action::Participant;
using action::uniform_handlers;

// ---------------------------------------------------------------------------
// Unit level: the Watchdog class alone.

TEST(Watchdog, DeadlineFiresOnlyAfterSilence) {
  obs::Watchdog wd;
  wd.arm(5000, {});
  ASSERT_TRUE(wd.armed());
  wd.note_open(1, 0);
  wd.maybe_poll(4999);
  EXPECT_TRUE(wd.reports().empty());
  // Progress resets the clock.
  wd.note_progress(1, 4000);
  wd.maybe_poll(8999);
  EXPECT_TRUE(wd.reports().empty());
  wd.maybe_poll(9000);
  ASSERT_EQ(wd.reports().size(), 1u);
  EXPECT_EQ(wd.reports()[0].scope, 1u);
  EXPECT_EQ(wd.reports()[0].detected_at, 9000);
  EXPECT_EQ(wd.reports()[0].last_progress, 4000);
  EXPECT_FALSE(wd.reports()[0].at_quiescence);
  // Each scope is diagnosed once.
  wd.maybe_poll(50'000);
  EXPECT_EQ(wd.reports().size(), 1u);
}

TEST(Watchdog, HoldsAreReferenceCounted) {
  obs::Watchdog wd;
  wd.arm(100, {});
  // Two members hold the scope; one leaving is progress, not closure.
  wd.note_open(7, 0);
  wd.note_open(7, 0);
  wd.note_closed(7, 10);
  wd.maybe_poll(105);
  EXPECT_TRUE(wd.reports().empty()) << "member exit must reset the clock";
  wd.maybe_poll(200);
  EXPECT_EQ(wd.reports().size(), 1u);
  // A fully-closed scope never reports, even at quiescence.
  wd.note_open(8, 300);
  wd.note_closed(8, 301);
  wd.finish(10'000);
  EXPECT_EQ(wd.reports().size(), 1u);
}

TEST(Watchdog, FinishDiagnosesQuiescentStallsEarly) {
  obs::Watchdog wd;
  wd.arm(1000, [](std::uint64_t, obs::WatchdogReport& report) {
    report.phase = "unit phase";
    report.awaited = {"peer"};
  });
  wd.note_open(3, 50);
  // The queue drained at t=60: the deadline has not elapsed, but no event
  // can ever progress the scope — diagnose now.
  wd.finish(60);
  ASSERT_EQ(wd.reports().size(), 1u);
  EXPECT_TRUE(wd.reports()[0].at_quiescence);
  EXPECT_EQ(wd.reports()[0].phase, "unit phase");
  ASSERT_EQ(wd.reports()[0].awaited.size(), 1u);
  EXPECT_EQ(wd.reports()[0].awaited[0], "peer");
  EXPECT_NE(wd.report_text().find("unit phase"), std::string::npos);
}

// ---------------------------------------------------------------------------
// World level: the full diagnosis pipeline.

ex::ExceptionTree small_tree() {
  ex::ExceptionTree tree;
  const auto cover = tree.declare("cover");
  tree.declare("ea", cover);
  tree.declare("peer_crash");
  return tree;
}

/// The planted stall: O3 never completes, so the exit can never close. The
/// deadline poll must name the scope, the exit phase and exactly the member
/// being awaited, under both exit protocols. The barrier's full report is
/// pinned as a golden; regenerate with CAA_UPDATE_GOLDEN=1 ./watchdog_test.
TEST(Watchdog, PlantedStalledExitIsDiagnosed) {
  for (const exit::ExitKind kind :
       {exit::ExitKind::kPaxos, exit::ExitKind::kBarrier}) {
    SCOPED_TRACE(exit::exit_kind_name(kind));
    WorldConfig config;
    config.watchdog_deadline = 5000;
    config.exit_protocol = kind;
    World w(config);
    auto& o1 = w.add_participant("O1");
    auto& o2 = w.add_participant("O2");
    auto& o3 = w.add_participant("O3");
    const auto& decl = w.actions().declare("A", small_tree());
    const auto& a1 =
        w.actions().create_instance(decl, {o1.id(), o2.id(), o3.id()});
    for (Participant* o : {&o1, &o2, &o3}) {
      ASSERT_TRUE(o->enter(a1.instance,
                           EnterConfig::with(uniform_handlers(
                               decl.tree(), ex::HandlerResult::recovered()))));
    }
    w.at(1000, [&] { o1.complete(); });
    w.at(1100, [&] { o2.complete(); });
    // o3 never completes. Carry virtual time past the deadline so the poll
    // fires before quiescence (the watchdog schedules nothing itself).
    w.at(30'000, [] {});
    w.run();

    ASSERT_EQ(w.watchdog().reports().size(), 1u);
    const obs::WatchdogReport& report = w.watchdog().reports()[0];
    EXPECT_EQ(report.scope, a1.instance.value());
    EXPECT_FALSE(report.at_quiescence);
    EXPECT_EQ(report.detected_at, 30'000);
    // The leader's view wins (it can name who it awaits): the exit is
    // collecting votes and O3 is the only one missing.
    EXPECT_NE(report.scope_name.find("A @ "), std::string::npos);
    if (kind == exit::ExitKind::kPaxos) {
      EXPECT_EQ(report.phase, "exit.paxos (leader, collecting acceptances)");
    } else {
      EXPECT_NE(report.phase.find("exit.barrier"), std::string::npos);
    }
    ASSERT_EQ(report.awaited.size(), 1u);
    EXPECT_EQ(report.awaited[0], "O3");
    if (kind != exit::ExitKind::kBarrier) continue;

    const std::string text = w.watchdog().report_text();
    const std::string golden_path =
        std::string(CAA_TEST_DATA_DIR) + "/golden/watchdog_stalled_exit.txt";
    if (std::getenv("CAA_UPDATE_GOLDEN") != nullptr) {
      std::ofstream out(golden_path, std::ios::binary | std::ios::trunc);
      out << text;
      GTEST_SKIP() << "golden rewritten: " << golden_path;
    }
    std::ifstream in(golden_path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing golden " << golden_path
                           << " (run with CAA_UPDATE_GOLDEN=1)";
    std::stringstream data;
    data << in.rdbuf();
    EXPECT_EQ(data.str(), text)
        << "watchdog diagnosis drifted from the committed golden";
  }
}

/// A stall *during resolution*: O3's node silently dies (no membership
/// notice, direct transport) right after the Exception multicast, so the
/// resolver waits on its ACK forever. The diagnosis names the resolve
/// phase, the awaited member, and — because resolution left protocol
/// records in the flight recorder — the causal tail into the stall.
TEST(Watchdog, PlantedStalledResolutionHasCausalTail) {
  WorldConfig config;
  config.watchdog_deadline = 5000;
  World w(config);
  auto& o1 = w.add_participant("O1");
  auto& o2 = w.add_participant("O2");
  auto& o3 = w.add_participant("O3");
  const auto& decl = w.actions().declare("A", small_tree());
  const auto& a1 =
      w.actions().create_instance(decl, {o1.id(), o2.id(), o3.id()});
  for (Participant* o : {&o1, &o2, &o3}) {
    ASSERT_TRUE(o->enter(a1.instance,
                         EnterConfig::with(uniform_handlers(
                             decl.tree(), ex::HandlerResult::recovered()))));
  }
  w.at(1000, [&] { o1.raise("ea"); });
  w.at(1001, [&] {
    w.network().set_node_up(w.directory().address_of(o3.id()).node, false);
  });
  w.at(30'000, [] {});
  w.run();

  ASSERT_EQ(w.watchdog().reports().size(), 1u);
  const obs::WatchdogReport& report = w.watchdog().reports()[0];
  EXPECT_EQ(report.scope, a1.instance.value());
  EXPECT_NE(report.phase.find("resolve"), std::string::npos) << report.phase;
  ASSERT_FALSE(report.awaited.empty());
  EXPECT_NE(std::find(report.awaited.begin(), report.awaited.end(), "O3"),
            report.awaited.end());
  EXPECT_FALSE(report.tail.empty()) << "recorder tail missing";
}

TEST(Watchdog, HealthyRunStaysSilent) {
  WorldConfig config;
  config.watchdog_deadline = 5000;
  World w(config);
  auto& o1 = w.add_participant("O1");
  auto& o2 = w.add_participant("O2");
  auto& o3 = w.add_participant("O3");
  const auto& decl = w.actions().declare("A", small_tree());
  const auto& a1 =
      w.actions().create_instance(decl, {o1.id(), o2.id(), o3.id()});
  for (Participant* o : {&o1, &o2, &o3}) {
    ASSERT_TRUE(o->enter(a1.instance,
                         EnterConfig::with(uniform_handlers(
                             decl.tree(), ex::HandlerResult::recovered()))));
  }
  // A raise exercises the resolution progress notes along the way.
  w.at(1000, [&] { o1.raise("ea"); });
  for (Participant* o : {&o1, &o2, &o3}) {
    w.at(8000, [o] {
      if (o->in_action()) o->complete();
    });
  }
  w.at(30'000, [] {});
  w.run();
  EXPECT_TRUE(w.watchdog().reports().empty()) << w.watchdog().report_text();
  EXPECT_EQ(w.watchdog().report_text(), "");
}

TEST(Watchdog, CrashedMemberIsReleasedNotReported) {
  // A fail-stop crash must not read as a stall: the victim's holds are
  // released on the down transition, the survivors exclude it and finish.
  WorldConfig config;
  config.watchdog_deadline = 5000;
  World w(config);
  auto& o1 = w.add_participant("O1");
  auto& o2 = w.add_participant("O2");
  auto& o3 = w.add_participant("O3");
  const auto& decl = w.actions().declare("A", small_tree());
  const auto& a1 =
      w.actions().create_instance(decl, {o1.id(), o2.id(), o3.id()});
  for (Participant* o : {&o1, &o2, &o3}) {
    ASSERT_TRUE(
        o->enter(a1.instance,
                 EnterConfig::with(uniform_handlers(
                                       decl.tree(),
                                       ex::HandlerResult::recovered(100)))
                     .on_peer_crash(decl.tree().find("peer_crash"))));
  }
  w.at(1050, [&] { w.crash(o3.runtime().node()); });
  for (Participant* o : {&o1, &o2}) {
    w.at(8000, [o] {
      if (o->in_action()) o->complete();
    });
  }
  w.at(30'000, [] {});
  w.run();
  EXPECT_TRUE(w.watchdog().reports().empty()) << w.watchdog().report_text();
}

TEST(Watchdog, ZeroDriftArmingNeverMovesChecksums) {
  scenario::FlatOptions armed_options;
  armed_options.participants = 6;
  armed_options.raisers = 2;
  armed_options.world.watchdog_deadline = 4000;
  scenario::FlatScenario armed(armed_options);
  const run::WorldResult r_armed = run::measure(
      "armed", armed.world(), [&armed] { return armed.world().run(); });

  scenario::FlatOptions plain_options;
  plain_options.participants = 6;
  plain_options.raisers = 2;
  scenario::FlatScenario plain(plain_options);
  const run::WorldResult r_plain = run::measure(
      "plain", plain.world(), [&plain] { return plain.world().run(); });

  EXPECT_EQ(r_armed.checksum, r_plain.checksum);
  EXPECT_EQ(r_armed.events, r_plain.events);
  EXPECT_EQ(r_armed.sim_time, r_plain.sim_time);
  EXPECT_TRUE(armed.world().watchdog().reports().empty());
}

}  // namespace
}  // namespace caa
