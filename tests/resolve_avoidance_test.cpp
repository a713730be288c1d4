// Coordination avoidance: the commutative-exception fast path must skip
// the Exception/ACK exchange entirely on commutative raise sets, fall back
// to the full exchange on conflicts, crashes and busy members, and in every
// case resolve EXACTLY what the unoptimized algorithm resolves on the same
// seed (gated on scenario::resolved_checksum, not on timing).
#include <gtest/gtest.h>

#include "fault/chaos.h"
#include "scenario/scenarios.h"

namespace caa {
namespace {

using action::EnterConfig;
using action::Participant;
using action::uniform_handlers;

scenario::FlatOptions flat_options(int n, int p, int q, bool avoid) {
  scenario::FlatOptions options;
  options.participants = n;
  options.raisers = p;
  options.nested = q;
  options.world.resolve_avoidance = avoid;
  return options;
}

TEST(ResolveAvoidance, CommutativeAllRaiseSkipsExchangeEntirely) {
  // §4.4 all-raise on a star tree: every cover is the root, so the whole
  // raise set commutes. The census must resolve it with ZERO Exception and
  // ZERO ACK messages — and resolve the same exception the full exchange
  // resolves.
  for (const auto& [n, p] : {std::pair{3, 3}, std::pair{6, 6},
                             std::pair{8, 8}, std::pair{6, 2}}) {
    scenario::FlatScenario fast(flat_options(n, p, 0, true));
    const scenario::RunStats stats = fast.run();
    EXPECT_EQ(stats.exceptions, 0) << "N=" << n << " P=" << p;
    EXPECT_EQ(stats.acks, 0) << "N=" << n << " P=" << p;
    EXPECT_EQ(stats.have_nested, 0) << "N=" << n << " P=" << p;
    EXPECT_TRUE(stats.all_handled) << "N=" << n << " P=" << p;
    EXPECT_GE(fast.world().metrics().value("resolve.fast_commits"), 1);
    EXPECT_EQ(fast.world().metrics().value("resolve.fallbacks"), 0);

    scenario::FlatScenario full(flat_options(n, p, 0, false));
    const scenario::RunStats baseline = full.run();
    EXPECT_GT(baseline.exceptions, 0);
    EXPECT_EQ(scenario::resolved_checksum(fast.objects()),
              scenario::resolved_checksum(full.objects()))
        << "N=" << n << " P=" << p;
  }
}

TEST(ResolveAvoidance, AllRaiseCostsAtMostTwoNMessages) {
  // Flat-mode fast-path cost of the §4.4 all-raise: P-1 reports to the
  // leader plus N-1 commit multicasts — 2N-2 <= 2N, versus the full
  // exchange's (N-1)(2P+1).
  const int n = 8;
  scenario::FlatScenario fast(flat_options(n, n, 0, true));
  const scenario::RunStats stats = fast.run();
  EXPECT_LE(stats.messages, 2 * n);
  EXPECT_EQ(stats.fast_covers + stats.commits, stats.messages);
}

TEST(ResolveAvoidance, SingleRaiserUsesCensusProbes) {
  // One raiser among idle members: the census cannot complete on reports
  // alone, so the leader probes and the members promise kNoRaise.
  scenario::FlatScenario fast(flat_options(5, 1, 0, true));
  const scenario::RunStats stats = fast.run();
  EXPECT_EQ(stats.exceptions, 0);
  EXPECT_EQ(stats.acks, 0);
  EXPECT_TRUE(stats.all_handled);
  EXPECT_GE(fast.world().metrics().value("resolve.fast_probes"), 1);
  EXPECT_GE(fast.world().metrics().value("resolve.fast_commits"), 1);

  scenario::FlatScenario full(flat_options(5, 1, 0, false));
  full.run();
  EXPECT_EQ(scenario::resolved_checksum(fast.objects()),
            scenario::resolved_checksum(full.objects()));
}

TEST(ResolveAvoidance, BusyNestedMemberForcesFallback) {
  // Members sitting in nested actions answer the probe with kBusy: the
  // fast round must fall back to the full exchange and still resolve the
  // exact same exceptions (the nested members report HaveNested as ever).
  scenario::FlatScenario fast(flat_options(6, 2, 2, true));
  const scenario::RunStats stats = fast.run();
  EXPECT_TRUE(stats.all_handled);
  EXPECT_GE(fast.world().metrics().value("resolve.fallbacks"), 1);
  EXPECT_GT(stats.exceptions, 0);  // the replayed full exchange
  EXPECT_GT(stats.have_nested, 0);

  scenario::FlatScenario full(flat_options(6, 2, 2, false));
  full.run();
  EXPECT_EQ(scenario::resolved_checksum(fast.objects()),
            scenario::resolved_checksum(full.objects()));
}

// ---------------------------------------------------------------------------
// Hand-built worlds: conflicting covers, disjoint sibling scopes, crashes.

/// The mixed tree: ea/eb commute under "cover"; "solo" is its own cover;
/// "deep" -> "mid" -> "leaf" makes deep non-universal (raising deep itself
/// can never take the fast path).
ex::ExceptionTree mixed_tree() {
  ex::ExceptionTree tree;
  const auto cover = tree.declare("cover");
  tree.declare("ea", cover);
  tree.declare("eb", cover);
  tree.declare("solo");
  const auto deep = tree.declare("deep");
  const auto mid = tree.declare("mid", deep);
  tree.declare("leaf", mid);
  tree.freeze();
  return tree;
}

struct AvoidWorld {
  explicit AvoidWorld(bool avoid, int n = 4) {
    WorldConfig config;
    config.resolve_avoidance = avoid;
    world = std::make_unique<World>(config);
    std::vector<ObjectId> ids;
    for (int i = 0; i < n; ++i) {
      objects.push_back(
          &world->add_participant("O" + std::to_string(i + 1)));
      ids.push_back(objects.back()->id());
    }
    decl = &world->actions().declare("A", mixed_tree());
    inst = &world->actions().create_instance(*decl, ids);
    for (auto* o : objects) {
      EXPECT_TRUE(o->enter(
          inst->instance,
          EnterConfig::with(uniform_handlers(
              decl->tree(), ex::HandlerResult::recovered(100)))));
    }
  }

  /// Crashes object `victim` the way a membership service would: node
  /// down, survivors notified.
  void crash(int victim, sim::Time at) {
    world->at(at, [this, victim] {
      world->network().set_node_up(
          world->directory().address_of(objects[victim]->id()).node, false);
      for (int i = 0; i < static_cast<int>(objects.size()); ++i) {
        if (i == victim) continue;
        objects[i]->notify_peer_crashed(objects[victim]->id());
      }
    });
  }

  std::unique_ptr<World> world;
  std::vector<Participant*> objects;
  const action::ActionDecl* decl = nullptr;
  const action::InstanceInfo* inst = nullptr;
};

TEST(ResolveAvoidance, ConflictingCoversFallBackWithIdenticalResolution) {
  // ea's cover is "cover", solo's cover is itself: both raises are locally
  // fast-eligible, but the census sees the mismatch and falls back. The
  // replayed full exchange must resolve lca(ea, solo) = the root, exactly
  // as with avoidance off.
  auto run = [](bool avoid) {
    AvoidWorld w(avoid);
    w.world->at(1000, [&w] { w.objects[1]->raise("ea"); });
    w.world->at(1000, [&w] { w.objects[2]->raise("solo"); });
    w.world->run();
    return w;
  };
  AvoidWorld fast = run(true);
  AvoidWorld full = run(false);
  EXPECT_GE(fast.world->metrics().value("resolve.fallbacks"), 1);
  EXPECT_EQ(fast.world->metrics().value("resolve.fast_commits"), 0);
  for (auto* o : fast.objects) {
    ASSERT_EQ(o->handled().size(), 1u);
    EXPECT_EQ(o->handled()[0].resolved, fast.decl->tree().root());
  }
  EXPECT_EQ(scenario::resolved_checksum(fast.objects),
            scenario::resolved_checksum(full.objects));
}

TEST(ResolveAvoidance, NonUniversalRaiseTakesSlowPathAndTriggersFallback) {
  // "deep" has no universal cover, so its raiser multicasts Exception the
  // classic way; the concurrent ea fast round hears the slow traffic and
  // falls back before the census can commit.
  auto run = [](bool avoid) {
    AvoidWorld w(avoid);
    w.world->at(1000, [&w] { w.objects[1]->raise("ea"); });
    w.world->at(1000, [&w] { w.objects[3]->raise("deep"); });
    w.world->run();
    return w;
  };
  AvoidWorld fast = run(true);
  AvoidWorld full = run(false);
  EXPECT_EQ(fast.world->metrics().value("resolve.fast_commits"), 0);
  EXPECT_GT(fast.world->metrics().sent(net::MsgKind::kException), 0);
  for (auto* o : fast.objects) {
    ASSERT_EQ(o->handled().size(), 1u);
  }
  EXPECT_EQ(scenario::resolved_checksum(fast.objects),
            scenario::resolved_checksum(full.objects));
}

TEST(ResolveAvoidance, CrashDuringFastRoundFallsBackToExclusionPath) {
  // A member crashes while the census is open (reports in flight, probe
  // not yet fired). Every survivor aborts the fast round on the crash
  // notification; the raiser replays into the engine and the survivors
  // resolve through the normal exclusion machinery — identically to the
  // avoidance-off world under the same crash.
  for (const int victim : {2, 0}) {  // a follower, then the census leader
    auto run = [victim](bool avoid) {
      AvoidWorld w(avoid);
      w.world->at(1000, [&w] { w.objects[1]->raise("ea"); });
      w.crash(victim, 1050);
      w.world->run();
      return w;
    };
    AvoidWorld fast = run(true);
    AvoidWorld full = run(false);
    EXPECT_EQ(fast.world->metrics().value("resolve.fast_commits"), 0)
        << "victim=" << victim;
    // The raiser replays its suppressed raise on the crash notification.
    // (A *fallbacks* census abort only shows when the census had opened —
    // killing the leader before its first report arrives leaves none.)
    EXPECT_GE(fast.world->metrics().value("resolve.fallback_replays"), 1)
        << "victim=" << victim;
    for (int i = 0; i < static_cast<int>(fast.objects.size()); ++i) {
      if (i == victim) continue;
      EXPECT_EQ(fast.objects[i]->handled().size(), 1u)
          << "victim=" << victim << " object=" << i;
    }
    EXPECT_EQ(scenario::resolved_checksum(fast.objects),
              scenario::resolved_checksum(full.objects))
        << "victim=" << victim;
  }
}

TEST(ResolveAvoidance, DisjointSiblingScopesCommitIndependently) {
  // Two nested sibling actions with disjoint member sets: each runs its
  // own census and commits fast; the raise sets never interact and the
  // world sees zero Exception/ACK traffic in total.
  WorldConfig config;
  config.resolve_avoidance = true;
  World w(config);
  std::vector<Participant*> objects;
  std::vector<ObjectId> ids;
  for (int i = 0; i < 6; ++i) {
    objects.push_back(&w.add_participant("O" + std::to_string(i + 1)));
    ids.push_back(objects.back()->id());
  }
  const auto& parent_decl = w.actions().declare("P", ex::shapes::star(1));
  const auto& parent = w.actions().create_instance(parent_decl, ids);
  for (auto* o : objects) {
    ASSERT_TRUE(o->enter(
        parent.instance,
        EnterConfig::with(uniform_handlers(parent_decl.tree(),
                                           ex::HandlerResult::recovered()))));
  }
  const auto& left_decl = w.actions().declare("L", ex::shapes::star(3));
  const auto& right_decl = w.actions().declare("R", ex::shapes::star(3));
  const auto& left = w.actions().create_instance(
      left_decl, {ids[0], ids[1], ids[2]}, parent.instance);
  const auto& right = w.actions().create_instance(
      right_decl, {ids[3], ids[4], ids[5]}, parent.instance);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(objects[i]->enter(
        left.instance,
        EnterConfig::with(uniform_handlers(left_decl.tree(),
                                           ex::HandlerResult::recovered()))));
    ASSERT_TRUE(objects[3 + i]->enter(
        right.instance,
        EnterConfig::with(uniform_handlers(right_decl.tree(),
                                           ex::HandlerResult::recovered()))));
  }
  w.at(1000, [&] { objects[0]->raise("s1"); });
  w.at(1000, [&] { objects[4]->raise("s2"); });
  w.run();

  EXPECT_EQ(w.metrics().sent(net::MsgKind::kException), 0);
  EXPECT_EQ(w.metrics().sent(net::MsgKind::kAck), 0);
  EXPECT_EQ(w.metrics().value("resolve.fast_commits"), 2);
  for (auto* o : objects) {
    EXPECT_EQ(o->handled().size(), 1u);
  }
}

// ---------------------------------------------------------------------------
// Chaos smoke: the fast path must survive every fault-mix profile — all
// fallbacks clean, zero oracle violations — at campaign scale.

class AvoidanceChaosSmoke : public ::testing::TestWithParam<fault::FaultMix> {
};

TEST_P(AvoidanceChaosSmoke, RunsCleanWithAvoidanceOn) {
  fault::ChaosOptions options;
  options.seed = 42;
  options.plans = 300;
  options.threads = 0;
  options.mix = GetParam();
  options.avoid = true;
  const fault::ChaosReport report = fault::run_chaos_campaign(options);
  EXPECT_EQ(report.violations, 0u)
      << fault_mix_name(GetParam()) << ": " << report.failure_report();
  // The campaign must actually exercise the fast path, not just survive it.
  const auto& merged = report.campaign.merged_metrics.counters;
  const auto raises = merged.find("resolve.fast_raises");
  ASSERT_NE(raises, merged.end());
  EXPECT_GT(raises->second, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, AvoidanceChaosSmoke,
    ::testing::Values(fault::FaultMix::kMixed, fault::FaultMix::kCrashHeavy,
                      fault::FaultMix::kNetworkOnly,
                      fault::FaultMix::kResolverHunt),
    [](const ::testing::TestParamInfo<fault::FaultMix>& info) {
      std::string name(fault::fault_mix_name(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace caa
