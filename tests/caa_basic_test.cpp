// Integration tests of the CA-action layer and the resolution protocol on
// flat (non-nested) actions, including the paper's §4.3 Example 1 and the
// §4.4 message-count formulas for the no-nesting cases.
#include <gtest/gtest.h>

#include "caa/world.h"

namespace caa {
namespace {

using action::EnterConfig;
using action::Participant;
using action::uniform_handlers;

ex::ExceptionTree engine_tree() {
  // The paper's §3.2 example hierarchy.
  ex::ExceptionTree tree;
  const auto emergency = tree.declare("emergency_engine_loss_exception");
  tree.declare("left_engine_exception", emergency);
  tree.declare("right_engine_exception", emergency);
  tree.freeze();
  return tree;
}

EnterConfig recovered_config(const ex::ExceptionTree& tree) {
  return EnterConfig::with(
      uniform_handlers(tree, ex::HandlerResult::recovered()));
}

TEST(CaaBasic, SingleRaiseThreeObjects) {
  // §4.4 case 1: one exception, no nested actions, N = 3
  // => 3(N-1) = 6 resolution messages.
  World w;
  auto& o1 = w.add_participant("O1");
  auto& o2 = w.add_participant("O2");
  auto& o3 = w.add_participant("O3");
  const auto& decl = w.actions().declare("A1", engine_tree());
  const auto& a1 =
      w.actions().create_instance(decl, {o1.id(), o2.id(), o3.id()});

  ASSERT_TRUE(o1.enter(a1.instance, recovered_config(decl.tree())));
  ASSERT_TRUE(o2.enter(a1.instance, recovered_config(decl.tree())));
  ASSERT_TRUE(o3.enter(a1.instance, recovered_config(decl.tree())));

  w.at(1000, [&] { o1.raise("left_engine_exception"); });
  w.run();

  // Everyone handled the raised exception itself.
  ASSERT_EQ(o1.handled().size(), 1u);
  ASSERT_EQ(o2.handled().size(), 1u);
  ASSERT_EQ(o3.handled().size(), 1u);
  const ExceptionId left = decl.tree().find("left_engine_exception");
  EXPECT_EQ(o1.handled()[0].resolved, left);
  EXPECT_EQ(o2.handled()[0].resolved, left);
  EXPECT_EQ(o3.handled()[0].resolved, left);

  // Message complexity: (N-1) Exceptions + (N-1) ACKs + (N-1) Commits.
  EXPECT_EQ(w.metrics().sent(net::MsgKind::kException), 2);
  EXPECT_EQ(w.metrics().sent(net::MsgKind::kAck), 2);
  EXPECT_EQ(w.metrics().sent(net::MsgKind::kCommit), 2);
  EXPECT_EQ(w.metrics().resolution_messages(), 6);

  // Handlers recovered, so the action committed and everyone left it.
  EXPECT_FALSE(o1.in_action());
  EXPECT_FALSE(o2.in_action());
  EXPECT_FALSE(o3.in_action());
  EXPECT_TRUE(w.failures().empty());
}

TEST(CaaBasic, Example1TwoConcurrentExceptions) {
  // §4.3 Example 1: O1 raises E1 and O2 raises E2 concurrently; O2 (the
  // bigger name among the raisers) resolves and commits; everyone runs the
  // handler for the resolving exception (here: the LCA of E1 and E2).
  World w;
  auto& o1 = w.add_participant("O1");
  auto& o2 = w.add_participant("O2");
  auto& o3 = w.add_participant("O3");
  const auto& decl = w.actions().declare("A1", engine_tree());
  const auto& a1 =
      w.actions().create_instance(decl, {o1.id(), o2.id(), o3.id()});

  ASSERT_TRUE(o1.enter(a1.instance, recovered_config(decl.tree())));
  ASSERT_TRUE(o2.enter(a1.instance, recovered_config(decl.tree())));
  ASSERT_TRUE(o3.enter(a1.instance, recovered_config(decl.tree())));

  w.at(1000, [&] { o1.raise("left_engine_exception"); });
  w.at(1000, [&] { o2.raise("right_engine_exception"); });
  w.run();

  const ExceptionId cover = decl.tree().find("emergency_engine_loss_exception");
  ASSERT_EQ(o1.handled().size(), 1u);
  ASSERT_EQ(o2.handled().size(), 1u);
  ASSERT_EQ(o3.handled().size(), 1u);
  EXPECT_EQ(o1.handled()[0].resolved, cover);
  EXPECT_EQ(o2.handled()[0].resolved, cover);
  EXPECT_EQ(o3.handled()[0].resolved, cover);

  // §4.4 case 3 with P=2 raisers, Q=0: (N-1)(2P+1) = 2*5 = 10 messages.
  EXPECT_EQ(w.metrics().sent(net::MsgKind::kException), 4);
  EXPECT_EQ(w.metrics().sent(net::MsgKind::kAck), 4);
  EXPECT_EQ(w.metrics().sent(net::MsgKind::kCommit), 2);
  EXPECT_EQ(w.metrics().resolution_messages(), 10);
}

TEST(CaaBasic, AllRaiseSimultaneously) {
  // §4.4 case 3: all N objects raise => (N-1)(2N+1) messages.
  constexpr int kN = 5;
  World w;
  std::vector<Participant*> objects;
  std::vector<ObjectId> ids;
  for (int i = 0; i < kN; ++i) {
    objects.push_back(&w.add_participant("O" + std::to_string(i + 1)));
    ids.push_back(objects.back()->id());
  }
  ex::ExceptionTree tree = ex::shapes::star(kN);
  const auto& decl = w.actions().declare("A1", std::move(tree));
  const auto& a1 = w.actions().create_instance(decl, ids);
  for (auto* o : objects) {
    ASSERT_TRUE(o->enter(a1.instance, recovered_config(decl.tree())));
  }
  w.at(1000, [&] {
    for (int i = 0; i < kN; ++i) {
      objects[i]->raise("s" + std::to_string(i + 1));
    }
  });
  w.run();

  // All raised distinct leaves under the root => resolves to the root.
  for (auto* o : objects) {
    ASSERT_EQ(o->handled().size(), 1u);
    EXPECT_EQ(o->handled()[0].resolved, decl.tree().root());
  }
  EXPECT_EQ(w.metrics().resolution_messages(), (kN - 1) * (2 * kN + 1));
}

TEST(CaaBasic, NoExceptionNoOverhead) {
  // §4.4: "our algorithm ... will have no overhead if an exception is not
  // raised".
  World w;
  auto& o1 = w.add_participant("O1");
  auto& o2 = w.add_participant("O2");
  const auto& decl = w.actions().declare("A1", engine_tree());
  const auto& a1 = w.actions().create_instance(decl, {o1.id(), o2.id()});
  ASSERT_TRUE(o1.enter(a1.instance, recovered_config(decl.tree())));
  ASSERT_TRUE(o2.enter(a1.instance, recovered_config(decl.tree())));
  w.at(1000, [&] { o1.complete(); });
  w.at(1200, [&] { o2.complete(); });
  w.run();

  EXPECT_EQ(w.metrics().resolution_messages(), 0);
  EXPECT_FALSE(o1.in_action());
  EXPECT_FALSE(o2.in_action());
  EXPECT_TRUE(o1.handled().empty());
}

TEST(CaaBasic, HandlerSignalFailsOutermostAction) {
  // Handlers that cannot recover signal a failure exception; for an
  // outermost action that surfaces as a World failure.
  World w;
  auto& o1 = w.add_participant("O1");
  auto& o2 = w.add_participant("O2");
  const auto& decl = w.actions().declare("A1", engine_tree());
  const auto& a1 = w.actions().create_instance(decl, {o1.id(), o2.id()});

  auto signalling_config = [&] {
    return EnterConfig::with(uniform_handlers(
        decl.tree(),
        ex::HandlerResult::signalling(decl.tree().root(), /*duration=*/50)));
  };
  ASSERT_TRUE(o1.enter(a1.instance, signalling_config()));
  ASSERT_TRUE(o2.enter(a1.instance, signalling_config()));
  w.at(1000, [&] { o2.raise("right_engine_exception"); });
  w.run();

  ASSERT_EQ(w.failures().size(), 1u);
  EXPECT_EQ(w.failures()[0].instance, a1.instance);
  EXPECT_EQ(w.failures()[0].signal, decl.tree().root());
  EXPECT_FALSE(o1.in_action());
  EXPECT_FALSE(o2.in_action());
}

TEST(CaaBasic, RaiseAfterSuspensionIsSuperseded) {
  // An object that has learned of a peer's exception is Suspended and can
  // no longer raise; its late raise is superseded, not a second round.
  World w;
  auto& o1 = w.add_participant("O1");
  auto& o2 = w.add_participant("O2");
  const auto& decl = w.actions().declare("A1", engine_tree());
  const auto& a1 = w.actions().create_instance(decl, {o1.id(), o2.id()});
  ASSERT_TRUE(o1.enter(a1.instance, recovered_config(decl.tree())));
  ASSERT_TRUE(o2.enter(a1.instance, recovered_config(decl.tree())));
  w.at(1000, [&] { o1.raise("left_engine_exception"); });
  // Links have a fixed 100-tick latency: at t=1150 O2 has received O1's
  // Exception (t=1100) but the Commit has not arrived yet (t=1300) — O2 is
  // Suspended and its raise must be superseded.
  w.at(1150, [&] { o2.raise("right_engine_exception"); });
  w.run();

  ASSERT_EQ(o2.handled().size(), 1u);
  EXPECT_EQ(o2.handled()[0].resolved, decl.tree().find("left_engine_exception"));
  EXPECT_EQ(w.metrics().value("caa.raise_superseded"), 1);
}

TEST(CaaBasic, BackwardRecoveryRetriesThenSucceeds) {
  // Conversation-style backward recovery (§2.2): acceptance failure rolls
  // every participant back to its checkpoint and runs the next alternate.
  // Both exit protocols decide the restore.
  for (const exit::ExitKind kind :
       {exit::ExitKind::kBarrier, exit::ExitKind::kPaxos}) {
    SCOPED_TRACE(exit::exit_kind_name(kind));
    WorldConfig config;
    config.exit_protocol = kind;
    World w(config);
    auto& o1 = w.add_participant("O1");
    auto& o2 = w.add_participant("O2");
    const auto& decl = w.actions().declare("A1", engine_tree());
    const auto& a1 = w.actions().create_instance(decl, {o1.id(), o2.id()});

    int o1_state = 0;
    int o1_checkpoint = -1;
    int restores = 0;
    auto config_for = [&](Participant& p, bool failing_first) {
      return EnterConfig::with(
                 uniform_handlers(decl.tree(), ex::HandlerResult::recovered()))
          .retries(3)
          .checkpoints([&] { o1_checkpoint = o1_state; },
                       [&] {
                         o1_state = o1_checkpoint;
                         ++restores;
                       })
          .body([&p, failing_first](std::uint32_t attempt) {
            // First attempt fails its acceptance test; the retry passes.
            p.complete(/*acceptance_ok=*/!(failing_first && attempt == 0));
          })
          .build();
    };
    ASSERT_TRUE(o1.enter(a1.instance, config_for(o1, true)));
    ASSERT_TRUE(o2.enter(a1.instance, config_for(o2, false)));
    w.run();

    EXPECT_EQ(restores, 2);  // both participants restored once
    EXPECT_FALSE(o1.in_action());
    EXPECT_FALSE(o2.in_action());
    EXPECT_TRUE(w.failures().empty());
    // Backward recovery uses no resolution messages at all.
    EXPECT_EQ(w.metrics().resolution_messages(), 0);
  }
}

TEST(CaaBasic, AttemptsExhaustedSignalsFailure) {
  World w;
  auto& o1 = w.add_participant("O1");
  auto& o2 = w.add_participant("O2");
  const auto& decl = w.actions().declare("A1", engine_tree());
  const auto& a1 = w.actions().create_instance(decl, {o1.id(), o2.id()});

  auto config_for = [&](Participant& p) {
    return EnterConfig::with(
               uniform_handlers(decl.tree(), ex::HandlerResult::recovered()))
        .retries(2)
        .body([&p](std::uint32_t) { p.complete(/*acceptance_ok=*/false); })
        .build();
  };
  ASSERT_TRUE(o1.enter(a1.instance, config_for(o1)));
  ASSERT_TRUE(o2.enter(a1.instance, config_for(o2)));
  w.run();

  ASSERT_EQ(w.failures().size(), 1u);
  EXPECT_FALSE(w.failures()[0].signal.valid());  // no failure_signal set
  EXPECT_FALSE(o1.in_action());
}

}  // namespace
}  // namespace caa
