// Relay-tree dissemination tests: deterministic tree shape, flat/tree
// behavioural equivalence (same resolved exceptions on the same seed),
// message savings at scale, squelch-backed idempotency, and self-healing
// when relays crash mid-broadcast.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "caa/world.h"
#include "fault/chaos.h"
#include "overlay/relay_tree.h"
#include "scenario/scenarios.h"

namespace caa {
namespace {

using action::EnterConfig;
using action::Participant;
using action::uniform_handlers;
using overlay::OverlayParams;
using overlay::RelayTree;

std::vector<ObjectId> make_members(int n, int first = 0) {
  std::vector<ObjectId> members;
  for (int i = 0; i < n; ++i) {
    members.emplace_back(static_cast<std::uint64_t>(first + i));
  }
  return members;
}

// ---- RelayTree unit tests -------------------------------------------------

// A RelayTree is a view: the member list and exclusion set it reads must
// outlive it.
const std::set<ObjectId> kNoExclusions;

TEST(RelayTree, HeapShapeRootAndNeighbors) {
  // 13 members, fanout 3: implicit heap positions, root = lowest member.
  const std::vector<ObjectId> members = make_members(13);
  const RelayTree tree(members, kNoExclusions, 3);
  EXPECT_EQ(tree.live_count(), 13u);
  EXPECT_EQ(tree.root(), ObjectId(0));
  EXPECT_EQ(tree.depth_of(ObjectId(0)), 0u);
  EXPECT_EQ(tree.depth_of(ObjectId(3)), 1u);
  EXPECT_EQ(tree.depth_of(ObjectId(4)), 2u);

  // Children of position i are 3i+1 .. 3i+3.
  EXPECT_EQ(tree.neighbors_of(ObjectId(0)),
            (std::vector<ObjectId>{ObjectId(1), ObjectId(2), ObjectId(3)}));
  EXPECT_EQ(tree.neighbors_of(ObjectId(1)),
            (std::vector<ObjectId>{ObjectId(0), ObjectId(4), ObjectId(5),
                                   ObjectId(6)}));
  // Position 12 is a leaf: parent only.
  EXPECT_EQ(tree.neighbors_of(ObjectId(12)),
            (std::vector<ObjectId>{ObjectId(3)}));
}

TEST(RelayTree, FingerprintIsDeterministic) {
  const std::vector<ObjectId> members = make_members(64);
  const std::vector<ObjectId> same = make_members(64);
  const std::vector<ObjectId> fewer = make_members(63);
  const RelayTree a(members, kNoExclusions, 8);
  const RelayTree b(same, kNoExclusions, 8);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  // Fanout and membership both feed the digest.
  const RelayTree narrower(members, kNoExclusions, 4);
  EXPECT_NE(a.fingerprint(), narrower.fingerprint());
  const RelayTree smaller(fewer, kNoExclusions, 8);
  EXPECT_NE(a.fingerprint(), smaller.fingerprint());
}

TEST(RelayTree, RebuildMatchesFreshTreeOverSurvivors) {
  // Healing is recomputation: recording exclusions in the set the tree
  // views, one at a time and in any order, must land on exactly the tree a
  // fresh construction over the survivors produces — including when the
  // root itself dies. Excluding a member twice changes nothing.
  const std::vector<ObjectId> members = make_members(20);
  std::set<ObjectId> excluded;
  const RelayTree tree(members, excluded, 3);
  for (int dead : {13, 0, 7, 13}) {
    excluded.insert(ObjectId(static_cast<std::uint64_t>(dead)));
  }
  std::vector<ObjectId> survivors;
  for (int i = 0; i < 20; ++i) {
    if (i == 0 || i == 7 || i == 13) continue;
    survivors.emplace_back(static_cast<std::uint64_t>(i));
  }
  const RelayTree fresh(survivors, kNoExclusions, 3);
  EXPECT_EQ(tree.fingerprint(), fresh.fingerprint());
  EXPECT_EQ(tree.root(), ObjectId(1));
  EXPECT_EQ(tree.live_count(), 17u);
  EXPECT_FALSE(tree.contains(ObjectId(7)));
  EXPECT_TRUE(tree.contains(ObjectId(8)));
}

TEST(RelayTree, NextHopRoutesEveryPair) {
  // Hop-by-hop forwarding along next_hop() must reach every target from
  // every source within the tree diameter.
  const int n = 23;
  const std::vector<ObjectId> members = make_members(n);
  const RelayTree tree(members, kNoExclusions, 3);
  for (int a = 0; a < n; ++a) {
    for (int b = 0; b < n; ++b) {
      if (a == b) continue;
      ObjectId at(static_cast<std::uint64_t>(a));
      const ObjectId target(static_cast<std::uint64_t>(b));
      int hops = 0;
      while (at != target) {
        at = tree.next_hop(at, target);
        ASSERT_LE(++hops, n) << "routing loop " << a << " -> " << b;
      }
      EXPECT_LE(hops,
                static_cast<int>(tree.depth_of(ObjectId(
                    static_cast<std::uint64_t>(a))) +
                                 tree.depth_of(target)));
    }
  }
}

// ---- Flat/tree behavioural equivalence ------------------------------------

struct ModeRun {
  scenario::RunStats stats;
  std::uint64_t resolved = 0;
};

ModeRun run_flat_scenario(scenario::FlatOptions options) {
  scenario::FlatScenario s(options);
  ModeRun run;
  run.stats = s.run();
  run.resolved = scenario::resolved_checksum(s.objects());
  return run;
}

TEST(OverlayDissemination, TreeResolvesSameExceptionsAsFlat) {
  scenario::FlatOptions options;
  options.participants = 24;
  options.raisers = 3;
  options.committee = 2;

  scenario::FlatOptions flat = options;
  flat.world.overlay.mode = OverlayParams::Mode::kFlat;
  scenario::FlatOptions tree = options;
  tree.world.overlay.mode = OverlayParams::Mode::kTree;
  tree.world.overlay.fanout = 3;

  const ModeRun f = run_flat_scenario(flat);
  const ModeRun t = run_flat_scenario(tree);

  ASSERT_TRUE(f.stats.all_handled);
  ASSERT_TRUE(t.stats.all_handled);
  // WHAT resolved is identical; only the wire pattern differs.
  EXPECT_EQ(f.resolved, t.resolved);
  // Tree mode replaces every direct protocol fan-out with relay envelopes:
  // the five §4.4 kinds stop appearing on the wire at all.
  EXPECT_EQ(f.stats.relays, 0);
  EXPECT_GT(t.stats.relays, 0);
  EXPECT_EQ(t.stats.exceptions, 0);
  EXPECT_EQ(t.stats.acks, 0);
  EXPECT_EQ(t.stats.commits, 0);
  // No savings claim at this size: with few raisers and a small committee
  // the per-edge envelope waves cost more than the flat fan-out they
  // replace — which is exactly why kAuto keeps committees below
  // OverlayParams::kTreeThreshold on the flat protocol. The scale win is
  // asserted at N=256 below.
}

TEST(OverlayDissemination, DegenerateFanoutStarStillMatchesFlat) {
  // fanout >= N collapses the tree to a root-centred star: the checksum
  // gate of the issue — tree mode at its degenerate extreme must resolve
  // exactly what flat mode resolves.
  scenario::FlatOptions options;
  options.participants = 16;
  options.raisers = 2;

  scenario::FlatOptions flat = options;
  flat.world.overlay.mode = OverlayParams::Mode::kFlat;
  scenario::FlatOptions star = options;
  star.world.overlay.mode = OverlayParams::Mode::kTree;
  star.world.overlay.fanout = 16;

  const ModeRun f = run_flat_scenario(flat);
  const ModeRun s = run_flat_scenario(star);
  ASSERT_TRUE(f.stats.all_handled);
  ASSERT_TRUE(s.stats.all_handled);
  EXPECT_EQ(f.resolved, s.resolved);
}

TEST(OverlayDissemination, AllMembersComputeIdenticalTree) {
  scenario::FlatOptions options;
  options.participants = 20;
  options.world.overlay.mode = OverlayParams::Mode::kTree;
  options.world.overlay.fanout = 4;
  scenario::FlatScenario s(options);

  const ActionInstanceId scope = s.instance().instance;
  const RelayTree* reference = s.objects()[0]->overlay().tree_of(scope);
  ASSERT_NE(reference, nullptr);
  EXPECT_EQ(reference->fanout(), 4u);
  EXPECT_EQ(reference->live_count(), 20u);
  for (const Participant* o : s.objects()) {
    const RelayTree* tree = o->overlay().tree_of(scope);
    ASSERT_NE(tree, nullptr);
    EXPECT_EQ(tree->fingerprint(), reference->fingerprint());
  }
  const scenario::RunStats stats = s.run();
  EXPECT_TRUE(stats.all_handled);
}

TEST(OverlayDissemination, TreeCutsAllRaiseTrafficAtN256) {
  // §4.4 case 3 (every member raises) is the quadratic worst case:
  // (N-1)(2N+1) messages flat. The tree turns each multicast into one
  // batched envelope per tree edge, so total envelopes must land well
  // under a tenth of the flat bill — the issue's N=1024 gate, checked
  // here at the largest size a unit test can afford.
  scenario::FlatOptions options;
  options.participants = 256;
  options.raisers = 256;

  scenario::FlatOptions flat = options;
  flat.world.overlay.mode = OverlayParams::Mode::kFlat;
  scenario::FlatOptions tree = options;
  tree.world.overlay.mode = OverlayParams::Mode::kTree;
  tree.world.overlay.fanout = 8;

  const ModeRun f = run_flat_scenario(flat);
  const ModeRun t = run_flat_scenario(tree);

  ASSERT_TRUE(f.stats.all_handled);
  ASSERT_TRUE(t.stats.all_handled);
  EXPECT_EQ(f.resolved, t.resolved);
  const std::int64_t n = 256;
  EXPECT_EQ(f.stats.messages, (n - 1) * (2 * n + 1));  // paper closed form
  EXPECT_LE(t.stats.messages * 10, f.stats.messages)
      << "tree sent " << t.stats.messages << " of flat "
      << f.stats.messages;
}

// ---- Paxos 2a batching over shared tree edges (route_multi) ---------------

TEST(OverlayDissemination, PaxosVoteWaveBatchesIntoSharedEnvelopes) {
  // Paxos Commit sends the SAME 2a vote to every acceptor. In tree mode
  // the host hands the whole target set to Disseminator::route_multi, which
  // carries the payload once per shared tree edge with the target list
  // alongside — instead of one routed copy per acceptor.
  scenario::FlatOptions options;
  options.participants = 24;
  options.raisers = 2;
  options.committee = 2;
  options.world.exit_protocol = exit::ExitKind::kPaxos;

  scenario::FlatOptions flat = options;
  flat.world.overlay.mode = OverlayParams::Mode::kFlat;
  scenario::FlatOptions tree = options;
  tree.world.overlay.mode = OverlayParams::Mode::kTree;
  tree.world.overlay.fanout = 3;

  scenario::FlatScenario f(flat);
  const scenario::RunStats fs = f.run();
  scenario::FlatScenario t(tree);
  const scenario::RunStats ts = t.run();

  ASSERT_TRUE(fs.all_handled);
  ASSERT_TRUE(ts.all_handled);
  // Batching is a wire-pattern change only: what resolves is identical.
  EXPECT_EQ(scenario::resolved_checksum(f.objects()),
            scenario::resolved_checksum(t.objects()));
  // Flat mode never groups (plain per-target sends).
  EXPECT_EQ(f.world().metrics().value("overlay.multi_groups"), 0);
  const std::int64_t groups =
      t.world().metrics().value("overlay.multi_groups");
  const std::int64_t targets =
      t.world().metrics().value("overlay.multi_targets");
  EXPECT_GT(groups, 0);
  // Strictly more targets than groups == at least one payload actually
  // shared a tree edge between multiple acceptors.
  EXPECT_GT(targets, groups) << "no 2a payload was shared across an edge";
}

// ---- Healing under relay crashes ------------------------------------------

ex::ExceptionTree crash_tree() {
  ex::ExceptionTree tree;
  tree.declare("app_fault");
  tree.declare("peer_crash");
  tree.freeze();
  return tree;
}

/// CrashWorld (caa_crash_test.cpp) with a configurable world: tree-mode
/// overlay plus the membership-service crash idiom.
struct TreeCrashWorld {
  World world;
  std::vector<Participant*> objects;
  const action::ActionDecl* decl = nullptr;
  const action::InstanceInfo* inst = nullptr;

  explicit TreeCrashWorld(WorldConfig config) : world(config) {}

  void build(int n, std::uint32_t committee = 1) {
    std::vector<ObjectId> ids;
    for (int i = 0; i < n; ++i) {
      objects.push_back(&world.add_participant("O" + std::to_string(i + 1)));
      ids.push_back(objects.back()->id());
    }
    decl = &world.actions().declare("A", crash_tree());
    inst = &world.actions().create_instance(*decl, ids);
    for (auto* o : objects) {
      ASSERT_TRUE(o->enter(
          inst->instance,
          EnterConfig::with(uniform_handlers(
                                decl->tree(),
                                ex::HandlerResult::recovered(100)))
              .committee(committee)));
    }
  }

  /// Crashes object `victim`'s node; the World informs the survivors.
  void crash(int victim, sim::Time at) {
    world.at(at, [this, victim] {
      world.crash(objects[victim]->runtime().node());
    });
  }
};

WorldConfig tree_config(std::uint32_t fanout) {
  WorldConfig config;
  config.overlay.mode = OverlayParams::Mode::kTree;
  config.overlay.fanout = fanout;
  return config;
}

TEST(OverlayHealing, RelayCrashBeforeForwardingStillCoversSubtree) {
  // fanout 2 over 16 members: the raiser is the deepest leaf, so the
  // Exception climbs through interior relays. Object 2 (a child of the
  // root, with a whole subtree behind it) dies before the flood reaches
  // it; its orphans re-parent and must still receive the Exception from
  // their new parent's cache.
  TreeCrashWorld cw(tree_config(2));
  cw.build(16);
  cw.world.at(1000, [&] { cw.objects[15]->raise("app_fault"); });
  cw.crash(1, 1250);  // flood is still climbing: 15 -> 7 -> 3 -> 1 -> 0
  cw.world.run();

  for (int i = 0; i < 16; ++i) {
    if (i == 1) continue;
    ASSERT_EQ(cw.objects[i]->handled().size(), 1u) << "object " << i;
    EXPECT_EQ(cw.objects[i]->handled()[0].resolved,
              cw.decl->tree().find("app_fault"));
    EXPECT_FALSE(cw.objects[i]->in_action()) << "object " << i;
  }
  EXPECT_GT(cw.world.metrics().value("overlay.heals"), 0);
}

TEST(OverlayHealing, RelayCrashDuringAckWaveStillResolves) {
  // Crash an interior relay after it forwarded the Exception but while the
  // aggregated ACK wave is flowing back through it; the re-routed ACK
  // caches must still complete the round for everyone.
  TreeCrashWorld cw(tree_config(2));
  cw.build(16);
  cw.world.at(1000, [&] { cw.objects[15]->raise("app_fault"); });
  cw.crash(2, 1650);
  cw.world.run();

  for (int i = 0; i < 16; ++i) {
    if (i == 2) continue;
    ASSERT_EQ(cw.objects[i]->handled().size(), 1u) << "object " << i;
    EXPECT_FALSE(cw.objects[i]->in_action()) << "object " << i;
  }
  EXPECT_GT(cw.world.metrics().value("overlay.heals"), 0);
}

TEST(OverlayHealing, RelayCrashDuringPaxosVoteWaveStillExits) {
  // Batched 2a envelopes must not weaken healing: an interior relay dies
  // while the scope is resolving/exiting under Paxos Commit in tree mode.
  // Per-target route-cache entries back every MultiItem, so the existing
  // re-offer machinery re-routes each acceptor's share after the rebuild;
  // every survivor must still leave the action.
  WorldConfig config = tree_config(2);
  config.exit_protocol = exit::ExitKind::kPaxos;
  TreeCrashWorld cw(config);
  cw.build(16);
  cw.world.at(1000, [&] { cw.objects[15]->raise("app_fault"); });
  cw.crash(1, 1650);  // interior relay, child of the root
  cw.world.run();

  for (int i = 0; i < 16; ++i) {
    if (i == 1) continue;
    ASSERT_EQ(cw.objects[i]->handled().size(), 1u) << "object " << i;
    EXPECT_FALSE(cw.objects[i]->in_action()) << "object " << i;
  }
  EXPECT_GT(cw.world.metrics().value("overlay.multi_groups"), 0);
  EXPECT_GT(cw.world.metrics().value("overlay.heals"), 0);
}

TEST(OverlayHealing, CrashHeavyN64CommitteeSurvivorsAllResolve) {
  // The issue's N=64 crash-heavy shape: 64 members, fanout 4, committee 2,
  // three relays (two of them children of the root) dying at staggered
  // points of the same resolution. Every survivor must handle exactly one
  // exception and exit cleanly — duplicates from healing re-offers are
  // squelched, re-merged ACK bitmaps must not double-count.
  TreeCrashWorld cw(tree_config(4));
  cw.build(64, /*committee=*/2);
  cw.world.at(1000, [&] {
    cw.objects[0]->raise("app_fault");
    cw.objects[63]->raise("app_fault");
  });
  cw.crash(1, 1150);
  cw.crash(2, 1350);
  cw.crash(17, 1650);
  cw.world.run();

  for (int i = 0; i < 64; ++i) {
    if (i == 1 || i == 2 || i == 17) continue;
    ASSERT_EQ(cw.objects[i]->handled().size(), 1u) << "object " << i;
    EXPECT_EQ(cw.objects[i]->handled()[0].resolved,
              cw.decl->tree().find("app_fault"));
    EXPECT_FALSE(cw.objects[i]->in_action()) << "object " << i;
  }
  EXPECT_GT(cw.world.metrics().value("overlay.heals"), 0);
  EXPECT_GT(cw.world.metrics().value("overlay.envelopes"), 0);
}

TEST(OverlayHealing, CrashHeavyChaosCampaignCleanAtN64Tree) {
  // The generated-fault-plan analogue of the targeted crashes above: 50
  // crash-heavy plans against 64-member committees running entirely over
  // the relay tree (relays die and restart mid-broadcast per plan). Every
  // oracle must hold on every plan.
  fault::ChaosOptions options;
  options.plans = 50;
  options.mix = fault::FaultMix::kCrashHeavy;
  options.min_participants = 64;
  options.max_participants = 64;
  options.overlay.mode = OverlayParams::Mode::kTree;
  options.overlay.fanout = 8;
  const fault::ChaosReport report = fault::run_chaos_campaign(options);
  EXPECT_EQ(report.violations, 0u) << report.failure_report();
}

// ---- Observability --------------------------------------------------------

TEST(OverlayObservability, RelayHopsAppearOnCriticalPaths) {
  // Relayed deliveries must stay inside the cause DAG: the critical path
  // behind a tree-mode resolution crosses kRelay wire records, and
  // caa-inspect renders them by name.
  EXPECT_EQ(std::string(net::kind_name(net::MsgKind::kRelay)), "Relay");

  scenario::FlatOptions options;
  options.participants = 8;
  options.raisers = 2;
  options.world.overlay.mode = OverlayParams::Mode::kTree;
  options.world.overlay.fanout = 2;
  scenario::FlatScenario s(options);
  const scenario::RunStats stats = s.run();
  ASSERT_TRUE(stats.all_handled);

  const std::string report = s.world().critical_path_report();
  ASSERT_FALSE(report.empty());
  EXPECT_NE(report.find("Relay"), std::string::npos) << report;
}

}  // namespace
}  // namespace caa
