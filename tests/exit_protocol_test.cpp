// Exit-protocol seam tests: the ExitProtocol/ExitHost contract via a fake
// protocol injected at the seam, barrier-vs-paxos behavioural equivalence
// (same resolved exceptions on the same seed), Paxos Commit liveness when
// the exit leader crashes mid-decision, LeaveAck-driven GC of final-Leave
// records, and chaos smoke under both protocols.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "caa/world.h"
#include "exit/exit_protocol.h"
#include "exit/leave_log.h"
#include "fault/chaos.h"
#include "scenario/scenarios.h"

namespace caa {
namespace {

using action::EnterConfig;
using action::Participant;
using action::uniform_handlers;

ex::ExceptionTree crash_tree() {
  ex::ExceptionTree tree;
  tree.declare("app_fault");
  tree.declare("peer_crash");
  tree.freeze();
  return tree;
}

/// CrashWorld with a configurable WorldConfig and per-entry EnterConfig
/// tweaks — the committee idiom shared by the crash/overlay tests.
struct ExitWorld {
  World world;
  std::vector<Participant*> objects;
  const action::ActionDecl* decl = nullptr;
  const action::InstanceInfo* inst = nullptr;

  explicit ExitWorld(WorldConfig config = {}) : world(config) {}

  void build(int n, const std::function<EnterConfig::Builder(
                 EnterConfig::Builder)>& tweak = {}) {
    std::vector<ObjectId> ids;
    for (int i = 0; i < n; ++i) {
      objects.push_back(&world.add_participant("O" + std::to_string(i + 1)));
      ids.push_back(objects.back()->id());
    }
    decl = &world.actions().declare("A", crash_tree());
    inst = &world.actions().create_instance(*decl, ids);
    for (auto* o : objects) {
      EnterConfig::Builder builder =
          EnterConfig::with(uniform_handlers(
                                decl->tree(),
                                ex::HandlerResult::recovered(100)))
              .committee(2)
              .on_peer_crash(decl->tree().find("peer_crash"));
      if (tweak) builder = tweak(std::move(builder));
      ASSERT_TRUE(o->enter(inst->instance, builder));
    }
  }

  /// Crashes object `victim`'s node; the World informs the survivors.
  void crash(int victim, sim::Time at) {
    world.at(at, [this, victim] {
      world.crash(objects[victim]->runtime().node());
    });
  }

  void complete_all_at(sim::Time at) {
    for (auto* o : objects) {
      world.at(at, [o] {
        if (o->in_action()) o->complete();
      });
    }
  }
};

// ---- The seam itself: a fake protocol injected via exit_factory -----------

/// Minimal custom strategy: decides instantly from this member's own Done
/// (valid for the single-member committee the test runs it in). Records
/// every contract call so the test can assert the host drove the seam.
class FakeExitProtocol final : public exit::ExitProtocol {
 public:
  struct Log {
    int completes = 0;
    int messages = 0;
    int crashes = 0;
    int restores = 0;
    action::LeaveOutcome outcome = action::LeaveOutcome::kRestored;
  };

  FakeExitProtocol(exit::ExitHost& host, const action::InstanceInfo& info,
                   Log* log)
      : host_(host), info_(info), log_(log) {}

  [[nodiscard]] exit::ExitKind kind() const override {
    return exit::ExitKind::kBarrier;  // reported kind is free-form here
  }

  void on_complete(const action::DoneMsg& m) override {
    ++log_->completes;
    const action::LeaveMsg leave =
        host_.exit_decide(info_.instance, m.round, {m});
    log_->outcome = leave.outcome;
    host_.exit_deliver_leave(leave);
  }
  void on_message(ObjectId, net::MsgKind, const net::Bytes&) override {
    ++log_->messages;
  }
  void on_peer_crashed(ObjectId, ObjectId, ObjectId) override {
    ++log_->crashes;
  }
  void on_restored() override { ++log_->restores; }

 private:
  exit::ExitHost& host_;
  const action::InstanceInfo& info_;
  Log* log_;
};

TEST(ExitSeam, FakeProtocolDrivesTheExitThroughTheHost) {
  FakeExitProtocol::Log log;
  ExitWorld w;
  w.build(1, [&log](EnterConfig::Builder b) {
    return std::move(b).exit_factory(
        [&log](exit::ExitHost& host, const action::InstanceInfo& info) {
          return std::make_unique<FakeExitProtocol>(host, info, &log);
        });
  });
  w.world.at(1000, [&] { w.objects[0]->complete(); });
  w.world.run();

  EXPECT_EQ(log.completes, 1);
  EXPECT_EQ(log.outcome, action::LeaveOutcome::kCommitted);
  EXPECT_FALSE(w.objects[0]->in_action());
  // The scope tore down, so the protocol instance is gone from the seam.
  EXPECT_EQ(w.objects[0]->exit_protocol_of(w.inst->instance), nullptr);
}

TEST(ExitSeam, WorldDefaultSelectsTheProtocol) {
  WorldConfig config;
  config.exit_protocol = exit::ExitKind::kPaxos;
  ExitWorld defaulted(config);
  defaulted.build(3);
  for (auto* o : defaulted.objects) {
    const exit::ExitProtocol* p = o->exit_protocol_of(defaulted.inst->instance);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->kind(), exit::ExitKind::kPaxos);
  }

  defaulted.complete_all_at(1000);
  defaulted.world.run();
  for (auto* o : defaulted.objects) EXPECT_FALSE(o->in_action());
}

// ---- Barrier / Paxos behavioural equivalence ------------------------------

std::uint64_t resolved_with(exit::ExitKind kind, std::uint32_t committee,
                            bool tree = false) {
  scenario::FlatOptions options;
  options.participants = 8;
  options.raisers = 2;
  options.nested = 1;
  options.committee = committee;
  options.world.exit_protocol = kind;
  if (tree) {
    options.world.overlay.mode = overlay::OverlayParams::Mode::kTree;
    options.world.overlay.fanout = 3;
  }
  scenario::FlatScenario s(options);
  const scenario::RunStats stats = s.run();
  EXPECT_TRUE(stats.all_handled)
      << exit::exit_kind_name(kind) << " committee " << committee;
  return scenario::resolved_checksum(s.objects());
}

TEST(ExitEquivalence, PaxosResolvesSameExceptionsAsBarrier) {
  for (std::uint32_t committee = 1; committee <= 3; ++committee) {
    EXPECT_EQ(resolved_with(exit::ExitKind::kBarrier, committee),
              resolved_with(exit::ExitKind::kPaxos, committee))
        << "committee " << committee;
  }
}

TEST(ExitEquivalence, PaxosComposesWithTreeOverlay) {
  // The seam routes through the overlay: paxos-over-tree must resolve the
  // exact same exceptions as barrier-over-flat on the same seed.
  EXPECT_EQ(resolved_with(exit::ExitKind::kBarrier, 2),
            resolved_with(exit::ExitKind::kPaxos, 2, /*tree=*/true));
}

// ---- Paxos non-blocking liveness ------------------------------------------

TEST(PaxosExit, CommitteeSurvivesExitLeaderCrashMidDecision) {
  // Five members start exiting at t=1000; the exit leader (lowest member,
  // the barrier's blocking window) dies while the votes are in flight. A
  // live quorum of acceptors remains, so the survivors must finish the
  // commit without him.
  WorldConfig config;
  config.exit_protocol = exit::ExitKind::kPaxos;
  ExitWorld w(config);
  w.build(5);
  w.complete_all_at(1000);
  w.crash(0, 1002);  // votes are on the wire; the leader never collects them
  w.world.run();

  for (int i = 1; i < 5; ++i) {
    EXPECT_FALSE(w.objects[i]->in_action()) << "object " << i;
  }
}

TEST(PaxosExit, SurvivesTwoLeaderCrashesInARow) {
  // Successive assassinations of whoever currently leads: 2F+1 = 5
  // acceptors over 7 members tolerate F = 2 crashes.
  WorldConfig config;
  config.exit_protocol = exit::ExitKind::kPaxos;
  ExitWorld w(config);
  w.build(7);
  w.complete_all_at(1000);
  w.crash(0, 1002);
  w.crash(1, 1040);  // the next leader dies while re-proposing
  w.world.run();

  for (int i = 2; i < 7; ++i) {
    EXPECT_FALSE(w.objects[i]->in_action()) << "object " << i;
  }
}

// ---- LeaveLog GC ----------------------------------------------------------

TEST(LeaveLog, AcksCollectRecordsAndCrashesWaive) {
  const std::vector<ObjectId> members{ObjectId(1), ObjectId(2), ObjectId(3)};
  action::LeaveMsg leave;
  leave.scope = ActionInstanceId(7);
  leave.round = 0;

  exit::LeaveLog log;
  log.record(leave, members, ObjectId(1), {}, /*gc=*/true);
  EXPECT_EQ(log.retained(), 1u);
  ASSERT_NE(log.find(leave.scope), nullptr);
  EXPECT_FALSE(log.on_ack(leave.scope, ObjectId(2)));
  EXPECT_TRUE(log.on_ack(leave.scope, ObjectId(3)));
  EXPECT_EQ(log.retained(), 0u);
  EXPECT_EQ(log.find(leave.scope), nullptr);

  // A crashed member never ACKs: waive completes the entry.
  exit::LeaveLog waived;
  waived.record(leave, members, ObjectId(1), {}, /*gc=*/true);
  EXPECT_EQ(waived.waive(ObjectId(2)), 0u);
  EXPECT_EQ(waived.waive(ObjectId(3)), 1u);
  EXPECT_EQ(waived.retained(), 0u);

  // ACKs that outrun the local Leave are buffered and count at record time.
  exit::LeaveLog early;
  EXPECT_FALSE(early.on_ack(leave.scope, ObjectId(2)));
  EXPECT_FALSE(early.on_ack(leave.scope, ObjectId(3)));
  early.record(leave, members, ObjectId(1), {}, /*gc=*/true);
  EXPECT_EQ(early.retained(), 0u);

  // Without GC the record is retained forever (the replay guarantee).
  exit::LeaveLog forever;
  forever.record(leave, members, ObjectId(1), {}, /*gc=*/false);
  EXPECT_FALSE(forever.on_ack(leave.scope, ObjectId(2)));
  EXPECT_FALSE(forever.on_ack(leave.scope, ObjectId(3)));
  EXPECT_EQ(forever.retained(), 1u);
}

TEST(LeaveLog, WorldGcDrainsEveryRetainedRecord) {
  auto retained_after = [](bool gc) {
    scenario::FlatOptions options;
    options.participants = 6;
    options.raisers = 2;
    options.committee = 2;
    options.world.exit_gc = gc;
    scenario::FlatScenario s(options);
    const scenario::RunStats stats = s.run();
    EXPECT_TRUE(stats.all_handled);
    std::size_t retained = 0;
    for (const Participant* o : s.objects()) {
      retained += o->leave_log().retained();
    }
    if (gc) {
      EXPECT_GT(s.world().metrics().value("exit.leave_recorded"), 0);
      EXPECT_GT(s.world().metrics().value("exit.leave_collected"), 0);
    }
    return retained;
  };
  EXPECT_GT(retained_after(false), 0u);  // pre-GC behaviour: kept forever
  EXPECT_EQ(retained_after(true), 0u);   // every record ACK-collected
}

// ---- Chaos smoke under both protocols -------------------------------------

TEST(ExitChaos, PaxosCrashHeavySmokeRunsClean) {
  fault::ChaosOptions options;
  options.seed = 42;
  options.plans = 300;
  options.threads = 0;
  options.mix = fault::FaultMix::kCrashHeavy;
  options.exit = exit::ExitKind::kPaxos;
  const fault::ChaosReport report = fault::run_chaos_campaign(options);
  EXPECT_EQ(report.violations, 0u) << report.failure_report();
}

TEST(ExitChaos, AssassinPlansRoundTripAndKeepTheProtocol) {
  // The exit directive and the assassin trigger survive serialize/parse,
  // so a shrunk repro replays against the protocol it was found with.
  fault::FaultPlan plan;
  plan.exit = exit::ExitKind::kPaxos;
  fault::FaultEvent assassin;
  assassin.kind = fault::FaultKind::kExitAssassin;
  assassin.extra = 25;
  plan.events.push_back(assassin);

  const std::string text = plan.to_text();
  EXPECT_NE(text.find("exit paxos"), std::string::npos) << text;
  EXPECT_NE(text.find("assassin"), std::string::npos) << text;
  const auto parsed = fault::FaultPlan::parse(text);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value(), plan);
}

}  // namespace
}  // namespace caa
