// Crash-tolerance extension tests: member exclusion, leader re-election,
// resolver committees (§4.4 "group of objects ... responsible for
// performing resolution"), crash exceptions, and the heartbeat detector.
#include <gtest/gtest.h>

#include "caa/world.h"
#include "rt/heartbeat.h"

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

struct CrashWorld {
  World world;
  std::vector<Participant*> objects;
  const action::ActionDecl* decl = nullptr;
  const action::InstanceInfo* inst = nullptr;

  void build(int n, std::uint32_t committee = 1,
             bool with_crash_exception = false) {
    std::vector<ObjectId> ids;
    for (int i = 0; i < n; ++i) {
      objects.push_back(&world.add_participant("O" + std::to_string(i + 1)));
      ids.push_back(objects.back()->id());
    }
    decl = &world.actions().declare("A", crash_tree());
    inst = &world.actions().create_instance(*decl, ids);
    for (auto* o : objects) {
      auto builder =
          EnterConfig::with(uniform_handlers(
                                decl->tree(),
                                ex::HandlerResult::recovered(100)))
              .committee(committee);
      if (with_crash_exception) {
        builder.on_peer_crash(decl->tree().find("peer_crash"));
      }
      ASSERT_TRUE(o->enter(inst->instance, std::move(builder).build()));
    }
  }

  /// Crashes object `victim`'s node; the World informs the survivors.
  void crash(int victim, sim::Time at) {
    world.at(at, [this, victim] {
      world.crash(objects[victim]->runtime().node());
    });
  }
};

TEST(CaaCrash, SuspendedPeerCrashMidResolutionSurvivorsResolve) {
  // O1 raises; O3 crashes before it can ACK. Without exclusion the raiser
  // would wait for O3's ACK forever; with it, the survivors resolve.
  CrashWorld cw;
  cw.build(3);
  cw.world.at(1000, [&] { cw.objects[0]->raise("app_fault"); });
  cw.crash(2, 1050);  // crashes before O1's Exception reaches it
  cw.world.run();

  ASSERT_EQ(cw.objects[0]->handled().size(), 1u);
  ASSERT_EQ(cw.objects[1]->handled().size(), 1u);
  EXPECT_EQ(cw.objects[0]->handled()[0].resolved,
            cw.decl->tree().find("app_fault"));
  EXPECT_FALSE(cw.objects[0]->in_action());
  EXPECT_FALSE(cw.objects[1]->in_action());
}

TEST(CaaCrash, ResolverCrashWithCommitteeOfTwoSurvives) {
  // O1 and O3 raise; O3 is the designated resolver (largest raiser). O3
  // crashes right after raising. With committee=2, O1 also commits.
  CrashWorld cw;
  cw.build(3, /*committee=*/2);
  cw.world.at(1000, [&] {
    cw.objects[0]->raise("app_fault");
    cw.objects[2]->raise("app_fault");
  });
  cw.crash(2, 1010);  // O3's Exception multicast is already in flight
  cw.world.run();

  ASSERT_EQ(cw.objects[0]->handled().size(), 1u);
  ASSERT_EQ(cw.objects[1]->handled().size(), 1u);
  EXPECT_EQ(cw.objects[0]->handled()[0].resolved,
            cw.decl->tree().find("app_fault"));
  EXPECT_FALSE(cw.objects[0]->in_action());
  EXPECT_FALSE(cw.objects[1]->in_action());
}

TEST(CaaCrash, CommitteeOfTwoSendsOneExtraCommitMulticast) {
  // Fault-free committee ablation: with c=2 and two raisers, both raisers
  // commit: (c-1)(N-1) extra messages, everything else unchanged.
  auto run = [](std::uint32_t committee) {
    CrashWorld cw;
    cw.build(4, committee);
    cw.world.at(1000, [&] {
      cw.objects[0]->raise("app_fault");
      cw.objects[3]->raise("app_fault");
    });
    cw.world.run();
    for (auto* o : cw.objects) {
      EXPECT_EQ(o->handled().size(), 1u);
      EXPECT_FALSE(o->in_action());
    }
    return cw.world.metrics().sent(net::MsgKind::kCommit);
  };
  EXPECT_EQ(run(1), 3);      // (N-1)
  EXPECT_EQ(run(2), 2 * 3);  // 2(N-1)
}

TEST(CaaCrash, LeaderCrashBeforeBarrierReelects) {
  // O1 (the exit-barrier leader) crashes after O2 and O3 sent their Dones
  // to it. On the crash notice, O2 and O3 re-send to the new leader (O2),
  // which completes the barrier for the survivors.
  CrashWorld cw;
  cw.build(3);
  cw.world.at(1000, [&] { cw.objects[1]->complete(); });
  cw.world.at(1000, [&] { cw.objects[2]->complete(); });
  cw.crash(0, 1001);  // leader dies with the Dones in flight
  cw.world.run();

  EXPECT_FALSE(cw.objects[1]->in_action());
  EXPECT_FALSE(cw.objects[2]->in_action());
}

TEST(CaaCrash, CrashExceptionTriggersForwardRecovery) {
  // With crash_exception configured, a peer crash while working raises it:
  // the survivors run coordinated handlers for peer_crash.
  CrashWorld cw;
  cw.build(4, 1, /*with_crash_exception=*/true);
  cw.crash(3, 2000);
  cw.world.run();

  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(cw.objects[i]->handled().size(), 1u) << i;
    EXPECT_EQ(cw.objects[i]->handled()[0].resolved,
              cw.decl->tree().find("peer_crash"))
        << i;
    EXPECT_FALSE(cw.objects[i]->in_action()) << i;
  }
}

TEST(CaaCrash, CrashAfterCommitDoesNotDisturbSurvivors) {
  CrashWorld cw;
  cw.build(3);
  cw.world.at(1000, [&] { cw.objects[1]->raise("app_fault"); });
  // Crash the raiser long after the resolution finished.
  cw.crash(1, 50000);
  cw.world.run();
  for (auto* o : cw.objects) {
    EXPECT_FALSE(o->in_action());
  }
}

TEST(HeartbeatMonitor, DetectsCrashNoFalsePositives) {
  World w;
  rt::HeartbeatMonitor m1, m2, m3;
  const NodeId n1 = w.add_node(), n2 = w.add_node(), n3 = w.add_node();
  w.attach(m1, "hb1", n1);
  w.attach(m2, "hb2", n2);
  w.attach(m3, "hb3", n3);

  std::vector<ObjectId> crashes_seen_by_1;
  rt::HeartbeatMonitor::Config c1;
  c1.on_crash = [&](ObjectId peer) { crashes_seen_by_1.push_back(peer); };
  m1.start({m2.id(), m3.id()}, c1);
  m2.start({m1.id(), m3.id()}, {});
  m3.start({m1.id(), m2.id()}, {});

  // Healthy for a while: no suspicion.
  w.simulator().run_until(10000);
  EXPECT_TRUE(crashes_seen_by_1.empty());
  EXPECT_FALSE(m1.suspects(m2.id()));

  // Kill node 3; within timeout + interval, m1 and m2 suspect it.
  w.network().set_node_up(n3, false);
  w.simulator().run_until(20000);
  ASSERT_EQ(crashes_seen_by_1.size(), 1u);
  EXPECT_EQ(crashes_seen_by_1[0], m3.id());
  EXPECT_TRUE(m2.suspects(m3.id()));
  EXPECT_FALSE(m1.suspects(m2.id()));

  m1.stop();
  m2.stop();
  m3.stop();
  w.run();  // quiesces once monitors are stopped
}

TEST(HeartbeatMonitor, EndToEndCrashDetectionDrivesResolution) {
  // Full pipeline: participants + monitors; a node dies; monitors detect
  // and notify the local participant, which raises the crash exception.
  World w;
  std::vector<Participant*> objects;
  std::vector<rt::HeartbeatMonitor*> monitors;
  static constexpr int kN = 3;
  std::vector<std::unique_ptr<rt::HeartbeatMonitor>> monitor_storage;
  std::vector<ObjectId> ids;
  std::vector<NodeId> nodes;
  for (int i = 0; i < kN; ++i) {
    const NodeId node = w.add_node();
    nodes.push_back(node);
    objects.push_back(
        &w.add_participant("O" + std::to_string(i + 1), node));
    ids.push_back(objects.back()->id());
    monitor_storage.push_back(std::make_unique<rt::HeartbeatMonitor>());
    w.attach(*monitor_storage.back(), "hb" + std::to_string(i + 1), node);
    monitors.push_back(monitor_storage.back().get());
  }
  const auto& decl = w.actions().declare("A", crash_tree());
  const auto& inst = w.actions().create_instance(decl, ids);
  for (auto* o : objects) {
    ASSERT_TRUE(o->enter(
        inst.instance,
        EnterConfig::with(uniform_handlers(decl.tree(),
                                           ex::HandlerResult::recovered(100)))
            .on_peer_crash(decl.tree().find("peer_crash"))));
  }
  // Wire each monitor to its co-located participant; monitor ids map to
  // participant ids by index.
  for (int i = 0; i < kN; ++i) {
    std::vector<ObjectId> peers;
    for (int j = 0; j < kN; ++j) {
      if (j != i) peers.push_back(monitors[j]->id());
    }
    rt::HeartbeatMonitor::Config config;
    config.on_crash = [&, i](ObjectId peer_monitor) {
      for (int j = 0; j < kN; ++j) {
        if (monitors[j]->id() == peer_monitor) {
          objects[i]->notify_peer_crashed(objects[j]->id());
        }
      }
    };
    monitors[i]->start(peers, config);
  }

  w.at(5000, [&] { w.network().set_node_up(nodes[2], false); });
  w.simulator().run_until(60000);

  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(objects[i]->handled().size(), 1u) << i;
    EXPECT_EQ(objects[i]->handled()[0].resolved,
              decl.tree().find("peer_crash"))
        << i;
    EXPECT_FALSE(objects[i]->in_action()) << i;
  }
  for (auto* m : monitors) m->stop();
  w.run();
}

}  // namespace
}  // namespace caa
