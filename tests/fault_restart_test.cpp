// Node restart and re-admission (§4.2 fail-stop): a node taken down
// mid-action loses its volatile state; when it comes back up the World
// notifies both directions — survivors learn of the crash (idempotent) and
// re-admit the restarted objects, while the restarted objects abandon the
// scopes the crash wiped. A restarted object stays excluded from every scope
// the survivors had contacted when they learned of the crash, in every
// later round of those scopes too (DESIGN.md §4b), but participates in new
// action instances as a regular member.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "caa/world.h"
#include "fault/chaos.h"
#include "fault/injector.h"
#include "fault/oracle.h"
#include "overlay/params.h"
#include "run/campaign.h"

namespace caa {
namespace {

using action::EnterConfig;
using action::Participant;
using action::uniform_handlers;

struct RestartWorld {
  World w;
  Participant* o1;
  Participant* o2;
  Participant* o3;
  const action::ActionDecl* decl;

  RestartWorld() : w(make_config()) {
    o1 = &w.add_participant("O1");
    o2 = &w.add_participant("O2");
    o3 = &w.add_participant("O3");
    ex::ExceptionTree tree;
    tree.declare("boom");
    tree.declare("peer_crash");
    decl = &w.actions().declare("A", std::move(tree));
  }

  static WorldConfig make_config() {
    WorldConfig config;
    config.reliable_transport = true;
    config.seed = 11;
    return config;
  }

  ActionInstanceId enter_all() {
    const auto& inst =
        w.actions().create_instance(*decl, {o1->id(), o2->id(), o3->id()});
    for (auto* o : {o1, o2, o3}) {
      EXPECT_TRUE(o->enter(
          inst.instance,
          EnterConfig::with(uniform_handlers(decl->tree(),
                                             ex::HandlerResult::recovered(100)))
              .committee(2)
              .on_peer_crash(decl->tree().find("peer_crash"))));
    }
    return inst.instance;
  }

  void drive_completion() {
    for (auto* o : {o1, o2, o3}) {
      for (sim::Time t = 6000; t <= 20000; t += 2000) {
        w.at(t, [o] {
          if (o->in_action() && !o->at_acceptance_line() &&
              o->resolver_state() == resolve::ResolverCore::State::kNormal) {
            o->complete();
          }
        });
      }
    }
  }
};

TEST(FaultRestart, RestartMidActionAbandonsTheScopeSurvivorsFinish) {
  RestartWorld rw;
  const ActionInstanceId scope = rw.enter_all();
  const NodeId victim = rw.o3->runtime().node();
  rw.w.at(1000, [&rw] { rw.o2->raise("boom"); });
  rw.w.at(1250, [&rw, victim] { fault::FaultInjector::crash_node(rw.w, victim); });
  rw.w.at(2600, [&rw, victim] { rw.w.network().set_node_up(victim, true); });
  rw.drive_completion();
  rw.w.run();

  const fault::OracleReport report = fault::check_invariants(rw.w, {});
  EXPECT_TRUE(report.ok()) << report.summary();

  // The crash wiped O3's volatile action state: the scope is abandoned,
  // not resumed — the restarted object is a belated participant the live
  // resolution already excluded.
  EXPECT_FALSE(rw.o3->in_action());
  EXPECT_TRUE(rw.o3->abandoned_scopes().contains(scope));
  // The survivors resolved among themselves and agree.
  ASSERT_FALSE(rw.o1->handled().empty());
  ASSERT_FALSE(rw.o2->handled().empty());
  EXPECT_EQ(rw.o1->handled().back().resolved,
            rw.o2->handled().back().resolved);
  EXPECT_FALSE(rw.o1->in_action());
  EXPECT_FALSE(rw.o2->in_action());
}

TEST(FaultRestart, RestartedObjectIsReadmittedIntoNewActions) {
  RestartWorld rw;
  rw.enter_all();
  const NodeId victim = rw.o3->runtime().node();
  rw.w.at(1000, [&rw] { rw.o2->raise("boom"); });
  rw.w.at(1250, [&rw, victim] { fault::FaultInjector::crash_node(rw.w, victim); });
  rw.w.at(2600, [&rw, victim] { rw.w.network().set_node_up(victim, true); });
  rw.drive_completion();
  rw.w.run();
  ASSERT_FALSE(rw.o1->in_action());

  // A fresh instance after re-admission: the restarted object is a full
  // member again — it enters, resolves and exits with everyone else.
  const auto& second = rw.w.actions().create_instance(
      *rw.decl, {rw.o1->id(), rw.o2->id(), rw.o3->id()});
  for (auto* o : {rw.o1, rw.o2, rw.o3}) {
    ASSERT_TRUE(o->enter(
        second.instance,
        EnterConfig::with(uniform_handlers(
            rw.decl->tree(), ex::HandlerResult::recovered(100)))));
  }
  rw.w.at(rw.w.simulator().now() + 500, [&rw] { rw.o3->raise("boom"); });
  for (auto* o : {rw.o1, rw.o2, rw.o3}) {
    rw.w.at(rw.w.simulator().now() + 5000, [o] {
      if (o->in_action() && !o->at_acceptance_line() &&
          o->resolver_state() == resolve::ResolverCore::State::kNormal) {
        o->complete();
      }
    });
  }
  rw.w.run();

  const fault::OracleReport report = fault::check_invariants(rw.w, {});
  EXPECT_TRUE(report.ok()) << report.summary();
  for (auto* o : {rw.o1, rw.o2, rw.o3}) {
    EXPECT_FALSE(o->in_action());
    ASSERT_FALSE(o->handled().empty()) << o->name();
    EXPECT_EQ(o->handled().back().resolved, rw.decl->tree().find("boom"));
  }
}

// A restart must not re-admit the peer into a scope it was excluded from:
// the survivors' next round (a backward-recovery attempt here) still waives
// its ACK. Flat and relay-tree dissemination alike.
TEST(FaultRestart, SurvivorsResolveANewRoundAfterAPeerRestarts) {
  for (const auto mode :
       {overlay::OverlayParams::Mode::kFlat,
        overlay::OverlayParams::Mode::kTree}) {
    SCOPED_TRACE(mode == overlay::OverlayParams::Mode::kTree ? "tree"
                                                             : "flat");
    WorldConfig config;
    config.reliable_transport = true;
    config.overlay.mode = mode;
    World w(config);
    std::vector<Participant*> objects;
    for (const char* name : {"O1", "O2", "O3", "O4"}) {
      objects.push_back(&w.add_participant(name));
    }
    ex::ExceptionTree tree;
    tree.declare("boom");
    const action::ActionDecl& decl = w.actions().declare("A", std::move(tree));
    std::vector<ObjectId> ids;
    for (const Participant* o : objects) ids.push_back(o->id());
    const auto& inst = w.actions().create_instance(decl, ids);
    for (Participant* o : objects) {
      ASSERT_TRUE(o->enter(
          inst.instance,
          EnterConfig::with(uniform_handlers(decl.tree(),
                                             ex::HandlerResult::recovered(100)))
              .retries(2)));
    }
    Participant* o2 = objects[1];
    const NodeId victim = objects[3]->runtime().node();
    w.at(500, [&w, victim] { fault::FaultInjector::crash_node(w, victim); });
    w.at(800, [&w, victim] { w.network().set_node_up(victim, true); });
    // Acceptance fails at the survivors: the barrier (which waives O4)
    // restores attempt 1, a new round whose engines must still exclude O4.
    for (int i = 0; i < 3; ++i) {
      w.at(2000, [o = objects[i]] { o->complete(false); });
    }
    w.at(5000, [o2] { o2->raise("boom"); });
    w.run();

    const fault::OracleReport report = fault::check_invariants(w, {});
    EXPECT_TRUE(report.ok()) << report.summary();
    for (int i = 0; i < 3; ++i) {
      const Participant& o = *objects[i];
      const auto& handled = o.handled();
      EXPECT_TRUE(std::any_of(handled.begin(), handled.end(),
                              [&](const action::HandledRecord& r) {
                                return r.instance == inst.instance &&
                                       r.round == 1 &&
                                       r.resolved == decl.tree().find("boom");
                              }))
          << o.name() << " never handled the attempt-1 resolution";
    }
  }
}

// A belated member that hears of a peer's crash and restart before it
// enters must still exclude that peer: the members that held the scope
// excluded it for good, so an entrant that counted it would wait forever
// for its ACK. The exclusion set starts at first contact — the buffered
// Exception or relayed envelope (raise at 100), or the survivors' CrashSync
// push (raise at 700) — not at enter().
TEST(FaultRestart, BelatedEntrantExcludesAPeerThatRestartedBeforeEntry) {
  for (const auto mode :
       {overlay::OverlayParams::Mode::kFlat,
        overlay::OverlayParams::Mode::kTree}) {
    for (const sim::Time raise_at : {sim::Time{100}, sim::Time{700}}) {
      SCOPED_TRACE(std::string(mode == overlay::OverlayParams::Mode::kTree
                                   ? "tree"
                                   : "flat") +
                   ", raise at " + std::to_string(raise_at));
      WorldConfig config;
      config.reliable_transport = true;
      config.overlay.mode = mode;
      World w(config);
      std::vector<Participant*> objects;
      for (const char* name : {"O1", "O2", "O3", "O4"}) {
        objects.push_back(&w.add_participant(name));
      }
      ex::ExceptionTree tree;
      tree.declare("boom");
      const action::ActionDecl& decl =
          w.actions().declare("A", std::move(tree));
      std::vector<ObjectId> ids;
      for (const Participant* o : objects) ids.push_back(o->id());
      const auto& inst = w.actions().create_instance(decl, ids);
      // Acceptance fails once per member: attempt 1 is a new round.
      const auto enter = [&](Participant* o) {
        ASSERT_TRUE(o->enter(
            inst.instance,
            EnterConfig::with(uniform_handlers(
                                  decl.tree(),
                                  ex::HandlerResult::recovered(100)))
                .acceptance([tested = false]() mutable {
                  return std::exchange(tested, true);
                })
                .retries(2)));
      };
      for (int i = 0; i < 3; ++i) enter(objects[i]);
      w.at(3000, [&enter, o4 = objects[3]] { enter(o4); });
      const NodeId victim = objects[2]->runtime().node();
      w.at(400, [&w, victim] { fault::FaultInjector::crash_node(w, victim); });
      w.at(600, [&w, victim] { w.network().set_node_up(victim, true); });
      w.at(raise_at, [o2 = objects[1]] { o2->raise("boom"); });
      w.at(9000, [o4 = objects[3]] { o4->raise("boom"); });
      w.run();

      const fault::OracleReport report = fault::check_invariants(w, {});
      EXPECT_TRUE(report.ok()) << report.summary();
      for (const int i : {0, 1, 3}) {
        const Participant& o = *objects[i];
        std::vector<std::uint32_t> rounds;
        for (const action::HandledRecord& r : o.handled()) {
          if (r.instance == inst.instance) rounds.push_back(r.round);
        }
        EXPECT_EQ(rounds, (std::vector<std::uint32_t>{0, 2})) << o.name();
        EXPECT_FALSE(o.in_action()) << o.name();
      }
    }
  }
}

// The same crash/restart choreography driven declaratively: explicit
// crash+restart plans through the chaos trial builder, swept over seeds.
TEST(FaultRestart, CrashThenRestartPlansKeepEveryInvariant) {
  fault::ChaosOptions options;
  options.seed = 23;
  options.shrink = false;
  run::Campaign campaign({.seed = options.seed, .threads = 0});
  for (std::uint64_t i = 0; i < 20; ++i) {
    campaign.add("restart#" + std::to_string(i),
                 [&options](const run::WorldContext& ctx) {
                   const std::uint32_t n =
                       fault::trial_participants(ctx.seed, options);
                   Rng rng(ctx.seed ^ 0x5eedULL);
                   fault::FaultEvent crash;
                   crash.kind = fault::FaultKind::kCrash;
                   crash.a = static_cast<std::uint32_t>(rng.below(n));
                   crash.at = 900 + static_cast<sim::Time>(rng.below(1500));
                   fault::FaultEvent restart;
                   restart.kind = fault::FaultKind::kRestart;
                   restart.a = crash.a;
                   restart.at =
                       crash.at + 300 + static_cast<sim::Time>(rng.below(2000));
                   fault::FaultPlan plan;
                   plan.events = {crash, restart};
                   return run_chaos_trial(ctx.seed, plan, options, ctx.index);
                 });
  }
  const run::CampaignResult result = campaign.run();
  EXPECT_TRUE(result.all_ok())
      << result.failed << " restart trial(s) violated invariants; first: "
      << result.first_error();
}

}  // namespace
}  // namespace caa
