// Deterministic race tests: asymmetric per-link latencies steer messages
// into the protocol's subtle windows — the commit that overtakes an
// exception, ACKs owed after a round closed, future-round holding after
// backward recovery, and multiple resolution rounds in one instance. The
// intake rule that sorts those messages (action::classify) is tabled last.
#include <gtest/gtest.h>

#include "caa/world.h"

namespace caa {
namespace {

using action::EnterConfig;
using action::Participant;
using action::uniform_handlers;

ex::ExceptionTree tree3() {
  ex::ExceptionTree t;
  const auto parent = t.declare("both");
  t.declare("ea", parent);
  t.declare("eb", parent);
  t.freeze();
  return t;
}

NodeId node_of(World& w, const Participant& p) {
  return w.directory().address_of(p.id()).node;
}

TEST(CaaRaces, CommitOvertakesSlowExceptionAtSuspendedObject) {
  // O1 and O2 raise concurrently. The link O1 -> O3 is very slow, so O3
  // receives O2's Commit BEFORE O1's Exception. O3 (suspended by O2's
  // exception) must start the handler on Commit, and still ACK O1's
  // late-but-same-round Exception afterwards so O1 can reach Ready and
  // finish the round (the §4.2 "wait until all exception messages are
  // handled" clause, made precise by rounds). Observed, that stale ACK is
  // tabulated under its round, so the §4.4 per-round table still accounts
  // for every protocol message sent.
  for (const bool observe : {false, true}) {
    SCOPED_TRACE(observe ? "observed" : "not observed");
    WorldConfig config;
    config.observe = observe;
    World w(config);
    auto& o1 = w.add_participant("O1");
    auto& o2 = w.add_participant("O2");
    auto& o3 = w.add_participant("O3");
    // Default links are 100 ticks; O1 -> O3 takes 5000.
    net::LinkParams slow;
    slow.latency_base = 5000;
    w.network().set_link(node_of(w, o1), node_of(w, o3), slow);

    const auto& decl = w.actions().declare("A", tree3());
    const auto& inst =
        w.actions().create_instance(decl, {o1.id(), o2.id(), o3.id()});
    for (auto* o : {&o1, &o2, &o3}) {
      ASSERT_TRUE(o->enter(
          inst.instance,
          EnterConfig::with(
              uniform_handlers(decl.tree(), ex::HandlerResult::recovered()))));
    }
    w.at(1000, [&] {
      o1.raise("ea");
      o2.raise("eb");
    });
    w.run();

    const ExceptionId both = decl.tree().find("both");
    for (auto* o : {&o1, &o2, &o3}) {
      ASSERT_EQ(o->handled().size(), 1u) << o->name();
      EXPECT_EQ(o->handled()[0].resolved, both) << o->name();
      EXPECT_FALSE(o->in_action()) << o->name();
    }
    // O3 must have ACKed the stale-round Exception after its round closed.
    EXPECT_GE(w.metrics().value("caa.stale_round"), 1);
    if (!observe) continue;
    const auto* rounds = w.metrics().rounds_of(inst.instance);
    ASSERT_NE(rounds, nullptr);
    std::int64_t acks = 0;
    std::int64_t total = 0;
    for (const obs::RoundCounts& round : *rounds) {
      acks += round.ack;
      total += round.total();
    }
    EXPECT_EQ(acks, w.metrics().sent(net::MsgKind::kAck));
    EXPECT_EQ(total, w.metrics().resolution_messages());
  }
}

TEST(CaaRaces, RaiserHoldsForeignCommitUntilReady) {
  // Same topology; additionally the O3 -> O1 link is slow, so O1 receives
  // O2's Commit while still waiting for O3's ACK. O1 must hold the commit
  // until Ready instead of finishing with dangling bookkeeping.
  World w;
  auto& o1 = w.add_participant("O1");
  auto& o2 = w.add_participant("O2");
  auto& o3 = w.add_participant("O3");
  net::LinkParams slow;
  slow.latency_base = 4000;
  w.network().set_link(node_of(w, o3), node_of(w, o1), slow);

  const auto& decl = w.actions().declare("A", tree3());
  const auto& inst =
      w.actions().create_instance(decl, {o1.id(), o2.id(), o3.id()});
  for (auto* o : {&o1, &o2, &o3}) {
    ASSERT_TRUE(o->enter(
        inst.instance,
        EnterConfig::with(
            uniform_handlers(decl.tree(), ex::HandlerResult::recovered()))));
  }
  w.at(1000, [&] {
    o1.raise("ea");
    o2.raise("eb");
  });
  w.run();

  for (auto* o : {&o1, &o2, &o3}) {
    ASSERT_EQ(o->handled().size(), 1u) << o->name();
    EXPECT_EQ(o->handled()[0].resolved, decl.tree().find("both"))
        << o->name();
    EXPECT_FALSE(o->in_action()) << o->name();
  }
}

TEST(CaaRaces, SecondRoundAfterRestoreRaisesCleanly) {
  // Attempt 0 fails its acceptance test (backward recovery); attempt 1's
  // body raises an exception: the resolution runs in a *later round* of
  // the same action instance and must not be confused by attempt-0 state.
  World w;
  auto& o1 = w.add_participant("O1");
  auto& o2 = w.add_participant("O2");
  const auto& decl = w.actions().declare("A", tree3());
  const auto& inst = w.actions().create_instance(decl, {o1.id(), o2.id()});

  auto config_for = [&](Participant& p, bool raiser) {
    return EnterConfig::with(
               uniform_handlers(decl.tree(), ex::HandlerResult::recovered()))
        .retries(2)
        .body([&p, raiser](std::uint32_t attempt) {
          if (attempt == 0) {
            p.complete(/*acceptance_ok=*/false);
          } else if (raiser) {
            p.raise("ea", "attempt-1 failure");
          } else {
            p.complete(true);
          }
        })
        .build();
  };
  ASSERT_TRUE(o1.enter(inst.instance, config_for(o1, true)));
  ASSERT_TRUE(o2.enter(inst.instance, config_for(o2, false)));
  w.run();

  ASSERT_EQ(o1.handled().size(), 1u);
  ASSERT_EQ(o2.handled().size(), 1u);
  // The resolution round is >= 1 (round 0 ended with the Restore).
  EXPECT_GE(o1.handled()[0].round, 1u);
  EXPECT_EQ(o1.handled()[0].resolved, decl.tree().find("ea"));
  EXPECT_FALSE(o1.in_action());
  EXPECT_FALSE(o2.in_action());
  EXPECT_TRUE(w.failures().empty());
}

TEST(CaaRaces, TwoSequentialResolutionsInOneInstance) {
  // Round 0 resolves; backward recovery then gives the bodies another run
  // which raises again: two handled records per participant, with
  // increasing rounds, same instance.
  World w;
  auto& o1 = w.add_participant("O1");
  auto& o2 = w.add_participant("O2");
  const auto& decl = w.actions().declare("A", tree3());
  const auto& inst = w.actions().create_instance(decl, {o1.id(), o2.id()});

  // Handlers "recover" but the recovered completion fails acceptance on
  // attempt 0, forcing a Restore after the first resolution; the attempt-1
  // body raises the second exception, whose handler completes cleanly.
  int phase = 0;
  auto config_for = [&](Participant& p, bool raiser) {
    ex::HandlerTable handlers;
    handlers.fill_defaults(decl.tree(), [&phase](ExceptionId) {
      ++phase;
      return ex::HandlerResult::recovered();
    });
    return EnterConfig::with(std::move(handlers))
        .retries(2)
        .acceptance([&p] { return p.attempt_of(p.active_instance()) > 0; })
        .body([&p, raiser](std::uint32_t attempt) {
          if (raiser) {
            p.raise(attempt == 0 ? "ea" : "eb");
          }
          // Non-raisers simply wait; the handler completes for them.
        })
        .build();
  };
  ASSERT_TRUE(o1.enter(inst.instance, config_for(o1, true)));
  ASSERT_TRUE(o2.enter(inst.instance, config_for(o2, false)));
  w.run();

  ASSERT_EQ(o1.handled().size(), 2u);
  ASSERT_EQ(o2.handled().size(), 2u);
  EXPECT_EQ(o1.handled()[0].resolved, decl.tree().find("ea"));
  EXPECT_EQ(o1.handled()[1].resolved, decl.tree().find("eb"));
  EXPECT_LT(o1.handled()[0].round, o1.handled()[1].round);
  EXPECT_EQ(o1.handled()[0].instance, o1.handled()[1].instance);
  EXPECT_FALSE(o1.in_action());
  EXPECT_FALSE(o2.in_action());
}

TEST(CaaRaces, SlowHaveNestedStillBlocksResolver) {
  // O2 is nested; its HaveNested to the raiser O1 is fast but its
  // NestedCompleted is delayed by a slow abortion handler. O1 must not
  // commit before the NestedCompleted arrives.
  World w;
  auto& o1 = w.add_participant("O1");
  auto& o2 = w.add_participant("O2");
  const auto& d1 = w.actions().declare("A1", tree3());
  const auto& d2 = w.actions().declare("A2", ex::shapes::star(1));
  const auto& a1 = w.actions().create_instance(d1, {o1.id(), o2.id()});
  const auto& a2 =
      w.actions().create_instance(d2, {o2.id()}, a1.instance);

  const EnterConfig c1 = EnterConfig::with(
      uniform_handlers(d1.tree(), ex::HandlerResult::recovered()));
  ASSERT_TRUE(o1.enter(a1.instance, c1));
  const EnterConfig c2 = c1;  // configs stay copyable values
  ASSERT_TRUE(o2.enter(a1.instance, c2));
  const EnterConfig c3 =
      EnterConfig::with(
          uniform_handlers(d2.tree(), ex::HandlerResult::recovered()))
          .abortion([] { return ex::AbortResult::none(3000); });
  ASSERT_TRUE(o2.enter(a2.instance, c3));

  w.at(1000, [&] { o1.raise("ea"); });
  w.run();

  ASSERT_EQ(o1.handled().size(), 1u);
  // Timeline: Exception (100) + abortion (3000) + NestedCompleted+ACK
  // (100) + Commit... the handler cannot have started before ~4200.
  EXPECT_GT(o1.handled()[0].at, static_cast<sim::Time>(4000));
  ASSERT_EQ(o2.aborts().size(), 1u);
  EXPECT_FALSE(o1.in_action());
  EXPECT_FALSE(o2.in_action());
}

TEST(ScopeInbox, OneVerdictPerKindAndScopeState) {
  using action::ScopeSeen;
  using action::Verdict;
  using net::MsgKind;
  // Each row changes one thing about an entered scope at round 2.
  const ScopeSeen current{.entered = true, .round = 2, .engine_ready = true};
  const ScopeSeen dead{.dead = true};
  const ScopeSeen not_entered{};
  ScopeSeen aborting = current;
  aborting.aborting = true;
  ScopeSeen no_engine = current;
  no_engine.engine_ready = false;
  struct Row {
    const char* state;
    bool from_crashed;
    ScopeSeen scope;
    std::uint32_t round;
    Verdict resolution;  // the five resolution kinds and kFastCover
    Verdict exit;        // kActionDone and the four Paxos kinds
    Verdict leave;       // kActionLeave
  };
  const Row rows[] = {
      {"crashed sender", true, current, 2, Verdict::kDropCrashed,
       Verdict::kDeliver, Verdict::kDeliver},
      {"crashed sender, dead scope", true, dead, 2, Verdict::kDropCrashed,
       Verdict::kAnswerLeave, Verdict::kDropDead},
      {"dead", false, dead, 2, Verdict::kDropDead, Verdict::kAnswerLeave,
       Verdict::kDropDead},
      {"not entered", false, not_entered, 2, Verdict::kHold, Verdict::kHold,
       Verdict::kDropDead},
      {"aborting", false, aborting, 2, Verdict::kDropAborting,
       Verdict::kDeliver, Verdict::kDeliver},
      {"earlier round", false, current, 1, Verdict::kStale, Verdict::kDeliver,
       Verdict::kDeliver},
      {"later round", false, current, 3, Verdict::kHold, Verdict::kDeliver,
       Verdict::kDeliver},
      {"engine not installed", false, no_engine, 2, Verdict::kHold,
       Verdict::kDeliver, Verdict::kDeliver},
      {"current round", false, current, 2, Verdict::kDeliver,
       Verdict::kDeliver, Verdict::kDeliver},
  };
  const MsgKind resolution_kinds[] = {
      MsgKind::kException, MsgKind::kHaveNested, MsgKind::kNestedCompleted,
      MsgKind::kAck,       MsgKind::kCommit,     MsgKind::kFastCover};
  const MsgKind exit_kinds[] = {MsgKind::kActionDone, MsgKind::kPaxosPrepare,
                                MsgKind::kPaxosPromise, MsgKind::kPaxosVote,
                                MsgKind::kPaxosAccepted};
  for (const Row& row : rows) {
    SCOPED_TRACE(row.state);
    for (const MsgKind kind : resolution_kinds) {
      EXPECT_EQ(action::classify(kind, row.from_crashed, row.scope, row.round),
                row.resolution)
          << net::kind_name(kind);
    }
    for (const MsgKind kind : exit_kinds) {
      EXPECT_EQ(action::classify(kind, row.from_crashed, row.scope, row.round),
                row.exit)
          << net::kind_name(kind);
    }
    EXPECT_EQ(action::classify(MsgKind::kActionLeave, row.from_crashed,
                               row.scope, row.round),
              row.leave);
  }
}

TEST(ScopeInbox, UnscopedKindIsCountedUnhandled) {
  World w;
  auto& o1 = w.add_participant("O1");
  auto& o2 = w.add_participant("O2");
  w.at(100, [&] {
    w.runtime(node_of(w, o1))
        .send(o1.id(), o2.id(), net::MsgKind::kAppData, net::Bytes{});
  });
  w.run();
  EXPECT_EQ(w.metrics().delivered(net::MsgKind::kAppData), 1);
  EXPECT_EQ(w.metrics().value("caa.unhandled_kind"), 1);
}

}  // namespace
}  // namespace caa
