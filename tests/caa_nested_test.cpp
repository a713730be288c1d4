// Nested CA actions: the paper's §4.3 Example 2 (Figure 4), the Figure 3
// structure, abortion ordering, belated participants, abort-chain
// retargeting and exception signalling between nested actions.
#include <gtest/gtest.h>

#include "caa/world.h"

namespace caa {
namespace {

using action::EnterConfig;
using action::Participant;
using action::uniform_handlers;

/// A1's tree for the Example-2 scenarios: E1 and E3 under a common parent.
ex::ExceptionTree a1_tree() {
  ex::ExceptionTree tree;
  const auto combo = tree.declare("combo_exception");
  tree.declare("E1", combo);
  tree.declare("E3", combo);
  tree.freeze();
  return tree;
}

ex::ExceptionTree small_tree(std::initializer_list<const char*> names) {
  ex::ExceptionTree tree;
  for (const char* n : names) tree.declare(n);
  tree.freeze();
  return tree;
}

EnterConfig plain(const ex::ExceptionTree& tree) {
  return EnterConfig::with(
      uniform_handlers(tree, ex::HandlerResult::recovered()));
}

TEST(CaaNested, Example2Figure4) {
  // Four objects. A1 = {O1,O2,O3,O4}; A2 = {O2,O3,O4} nested in A1;
  // A3 = {O2,O3} nested in A2. O3 is belated for A3. O1 raises E1 in A1
  // while O2 raises E2 in A3. O2's abortion handler for A2 signals E3.
  World w;
  auto& o1 = w.add_participant("O1");
  auto& o2 = w.add_participant("O2");
  auto& o3 = w.add_participant("O3");
  auto& o4 = w.add_participant("O4");

  const auto& d1 = w.actions().declare("A1", a1_tree());
  const auto& d2 = w.actions().declare("A2", small_tree({"A2_fail"}));
  const auto& d3 = w.actions().declare("A3", small_tree({"E2"}));

  const auto& a1 = w.actions().create_instance(
      d1, {o1.id(), o2.id(), o3.id(), o4.id()});
  const auto& a2 = w.actions().create_instance(d2, {o2.id(), o3.id(), o4.id()},
                                               a1.instance);
  const auto& a3 =
      w.actions().create_instance(d3, {o2.id(), o3.id()}, a2.instance);

  // Everyone enters A1, then the A2 members enter A2, then O2 enters A3.
  ASSERT_TRUE(o1.enter(a1.instance, plain(d1.tree())));
  ASSERT_TRUE(o2.enter(a1.instance, plain(d1.tree())));
  ASSERT_TRUE(o3.enter(a1.instance, plain(d1.tree())));
  ASSERT_TRUE(o4.enter(a1.instance, plain(d1.tree())));

  const EnterConfig a2_config_for_o2 =
      EnterConfig::with(
          uniform_handlers(d2.tree(), ex::HandlerResult::recovered()))
          .abortion([&] {
            return ex::AbortResult::signalling(d1.tree().find("E3"),
                                               /*duration=*/20);
          });
  ASSERT_TRUE(o2.enter(a2.instance, a2_config_for_o2));
  ASSERT_TRUE(o3.enter(a2.instance, plain(d2.tree())));
  ASSERT_TRUE(o4.enter(a2.instance, plain(d2.tree())));
  ASSERT_TRUE(o2.enter(a3.instance, plain(d3.tree())));

  // Concurrent raises: E1 in A1 (by O1) and E2 in A3 (by O2).
  w.at(1000, [&] { o1.raise("E1"); });
  w.at(1000, [&] { o2.raise("E2"); });
  // O3 tries to enter A3 after the resolution already started: belated.
  bool o3_entered_a3 = true;
  w.at(1150, [&] { o3_entered_a3 = o3.enter(a3.instance, plain(d3.tree())); });
  w.run();

  EXPECT_FALSE(o3_entered_a3);

  // Resolution of A1 covers E1 and the signalled E3 => combo_exception.
  const ExceptionId combo = d1.tree().find("combo_exception");
  for (Participant* o : {&o1, &o2, &o3, &o4}) {
    ASSERT_EQ(o->handled().size(), 1u) << o->name();
    EXPECT_EQ(o->handled()[0].resolved, combo) << o->name();
    EXPECT_EQ(o->handled()[0].instance, a1.instance) << o->name();
    EXPECT_FALSE(o->in_action()) << o->name();
  }

  // O2 aborted A3 then A2, innermost first; only A2's abortion signalled.
  ASSERT_EQ(o2.aborts().size(), 2u);
  EXPECT_EQ(o2.aborts()[0].instance, a3.instance);
  EXPECT_EQ(o2.aborts()[1].instance, a2.instance);
  EXPECT_FALSE(o2.aborts()[0].signalled.valid());
  EXPECT_EQ(o2.aborts()[1].signalled, d1.tree().find("E3"));
  // O3 and O4 aborted only A2 (O3 never entered A3).
  ASSERT_EQ(o3.aborts().size(), 1u);
  EXPECT_EQ(o3.aborts()[0].instance, a2.instance);
  ASSERT_EQ(o4.aborts().size(), 1u);
  EXPECT_EQ(o4.aborts()[0].instance, a2.instance);
  // O1 had nothing nested.
  EXPECT_TRUE(o1.aborts().empty());

  // Message accounting, from first principles (N=4):
  //   O1's Exception: 3;   O2's superseded A3 Exception: 1
  //   HaveNested: 3 objects x 3 = 9;   NestedCompleted: 9
  //   ACKs: 3 (for O1's Exception) + 9 (for the NestedCompleteds) = 12
  //   Commit: 3
  EXPECT_EQ(w.metrics().sent(net::MsgKind::kException), 4);
  EXPECT_EQ(w.metrics().sent(net::MsgKind::kHaveNested), 9);
  EXPECT_EQ(w.metrics().sent(net::MsgKind::kNestedCompleted), 9);
  EXPECT_EQ(w.metrics().sent(net::MsgKind::kAck), 12);
  EXPECT_EQ(w.metrics().sent(net::MsgKind::kCommit), 3);
  EXPECT_EQ(w.metrics().resolution_messages(), 37);
}

TEST(CaaNested, Figure3AbortionOrdering) {
  // Figure 3: O0..O3 in A1; O2,O3 in A2 and then A3 (both nested); O1 was
  // expected in A2 but never entered (belated). O1 raises an exception in
  // A1; A3 must be aborted before A2 in both O2 and O3, without waiting
  // for O1.
  World w;
  auto& o0 = w.add_participant("O0");
  auto& o1 = w.add_participant("O1");
  auto& o2 = w.add_participant("O2");
  auto& o3 = w.add_participant("O3");

  const auto& d1 = w.actions().declare("A1", small_tree({"boom"}));
  const auto& d2 = w.actions().declare("A2", small_tree({"a2x"}));
  const auto& d3 = w.actions().declare("A3", small_tree({"a3x"}));

  const auto& a1 = w.actions().create_instance(
      d1, {o0.id(), o1.id(), o2.id(), o3.id()});
  // O1 is declared in A2 but never enters it.
  const auto& a2 = w.actions().create_instance(
      d2, {o1.id(), o2.id(), o3.id()}, a1.instance);
  const auto& a3 =
      w.actions().create_instance(d3, {o2.id(), o3.id()}, a2.instance);

  for (Participant* o : {&o0, &o1, &o2, &o3}) {
    ASSERT_TRUE(o->enter(a1.instance, plain(d1.tree())));
  }
  ASSERT_TRUE(o2.enter(a2.instance, plain(d2.tree())));
  ASSERT_TRUE(o3.enter(a2.instance, plain(d2.tree())));
  ASSERT_TRUE(o2.enter(a3.instance, plain(d3.tree())));
  ASSERT_TRUE(o3.enter(a3.instance, plain(d3.tree())));

  w.at(1000, [&] { o1.raise("boom"); });
  w.run();

  for (Participant* o : {&o2, &o3}) {
    ASSERT_EQ(o->aborts().size(), 2u) << o->name();
    EXPECT_EQ(o->aborts()[0].instance, a3.instance) << o->name();
    EXPECT_EQ(o->aborts()[1].instance, a2.instance) << o->name();
    EXPECT_LE(o->aborts()[0].at, o->aborts()[1].at) << o->name();
  }
  for (Participant* o : {&o0, &o1, &o2, &o3}) {
    ASSERT_EQ(o->handled().size(), 1u) << o->name();
    EXPECT_EQ(o->handled()[0].resolved, d1.tree().find("boom")) << o->name();
    EXPECT_FALSE(o->in_action()) << o->name();
  }
}

TEST(CaaNested, AbortChainRetargetToOuterResolution) {
  // A resolution in A2 starts aborting O1's nested A3; while the abortion
  // handler runs, a resolution in A1 supersedes it (§3.3 point 4): the
  // chain is retargeted and A2 itself is aborted; the A2 resolution dies.
  World w;
  auto& o1 = w.add_participant("O1");
  auto& o2 = w.add_participant("O2");
  auto& o3 = w.add_participant("O3");

  const auto& d1 = w.actions().declare("A1", small_tree({"outer_x"}));
  const auto& d2 = w.actions().declare("A2", small_tree({"mid_x"}));
  const auto& d3 = w.actions().declare("A3", small_tree({"inner_x"}));

  const auto& a1 =
      w.actions().create_instance(d1, {o1.id(), o2.id(), o3.id()});
  const auto& a2 =
      w.actions().create_instance(d2, {o1.id(), o2.id()}, a1.instance);
  const auto& a3 = w.actions().create_instance(d3, {o1.id()}, a2.instance);

  for (Participant* o : {&o1, &o2, &o3}) {
    ASSERT_TRUE(o->enter(a1.instance, plain(d1.tree())));
  }
  const EnterConfig slow_abort =
      EnterConfig::with(
          uniform_handlers(d3.tree(), ex::HandlerResult::recovered()))
          .abortion([] { return ex::AbortResult::none(/*duration=*/500); });
  ASSERT_TRUE(o1.enter(a2.instance, plain(d2.tree())));
  ASSERT_TRUE(o2.enter(a2.instance, plain(d2.tree())));
  ASSERT_TRUE(o1.enter(a3.instance, slow_abort));

  // t=1000: O2 raises in A2 -> O1 receives at 1100, starts aborting A3
  // (until 1600). t=1200: O3 raises in A1 -> O1 receives at 1300 and must
  // retarget the abort chain to A1.
  w.at(1000, [&] { o2.raise("mid_x"); });
  w.at(1200, [&] { o3.raise("outer_x"); });
  w.run();

  // O1 aborted A3 then A2 (innermost first), despite the retarget.
  ASSERT_EQ(o1.aborts().size(), 2u);
  EXPECT_EQ(o1.aborts()[0].instance, a3.instance);
  EXPECT_EQ(o1.aborts()[1].instance, a2.instance);
  // O2 aborted A2 as part of the A1 resolution.
  ASSERT_EQ(o2.aborts().size(), 1u);
  EXPECT_EQ(o2.aborts()[0].instance, a2.instance);

  // Everyone handled the A1 resolution (the A2 one was superseded: O2's
  // mid_x never produced a handler run).
  for (Participant* o : {&o1, &o2, &o3}) {
    ASSERT_EQ(o->handled().size(), 1u) << o->name();
    EXPECT_EQ(o->handled()[0].instance, a1.instance) << o->name();
    EXPECT_EQ(o->handled()[0].resolved, d1.tree().find("outer_x"))
        << o->name();
    EXPECT_FALSE(o->in_action()) << o->name();
  }
}

TEST(CaaNested, NestedSignalRaisesInContainingAction) {
  // A nested action whose handlers cannot recover signals a failure
  // exception to the containing action (§3.1); the containing action then
  // resolves and handles it in ALL its participants.
  World w;
  auto& o1 = w.add_participant("O1");
  auto& o2 = w.add_participant("O2");
  auto& o3 = w.add_participant("O3");

  const auto& d1 = w.actions().declare("A1", small_tree({"nested_failed"}));
  const auto& d2 = w.actions().declare("A2", small_tree({"glitch"}));

  const auto& a1 =
      w.actions().create_instance(d1, {o1.id(), o2.id(), o3.id()});
  const auto& a2 =
      w.actions().create_instance(d2, {o1.id(), o2.id()}, a1.instance);

  for (Participant* o : {&o1, &o2, &o3}) {
    ASSERT_TRUE(o->enter(a1.instance, plain(d1.tree())));
  }
  const EnterConfig signalling = EnterConfig::with(uniform_handlers(
      d2.tree(),
      ex::HandlerResult::signalling(d1.tree().find("nested_failed"), 10)));
  ASSERT_TRUE(o1.enter(a2.instance, signalling));
  ASSERT_TRUE(o2.enter(a2.instance, signalling));

  w.at(1000, [&] { o2.raise("glitch"); });
  w.run();

  // The A2 resolution handled "glitch" in O1 and O2; both signalled
  // nested_failed; the leader (O1) raised it in A1; A1's resolution handled
  // it in all three objects.
  ASSERT_EQ(o1.handled().size(), 2u);
  ASSERT_EQ(o2.handled().size(), 2u);
  ASSERT_EQ(o3.handled().size(), 1u);
  EXPECT_EQ(o1.handled()[0].instance, a2.instance);
  EXPECT_EQ(o1.handled()[0].resolved, d2.tree().find("glitch"));
  EXPECT_EQ(o1.handled()[1].instance, a1.instance);
  EXPECT_EQ(o1.handled()[1].resolved, d1.tree().find("nested_failed"));
  EXPECT_EQ(o3.handled()[0].resolved, d1.tree().find("nested_failed"));
  for (Participant* o : {&o1, &o2, &o3}) {
    EXPECT_FALSE(o->in_action()) << o->name();
  }
  EXPECT_TRUE(w.failures().empty());  // A1's handlers recovered
}

TEST(CaaNested, NestedCompletesNormallyInvisibleToContainer) {
  // A nested action that completes normally consumes no resolution
  // messages and leaves the containing action undisturbed.
  World w;
  auto& o1 = w.add_participant("O1");
  auto& o2 = w.add_participant("O2");
  auto& o3 = w.add_participant("O3");

  const auto& d1 = w.actions().declare("A1", small_tree({"x1"}));
  const auto& d2 = w.actions().declare("A2", small_tree({"x2"}));
  const auto& a1 =
      w.actions().create_instance(d1, {o1.id(), o2.id(), o3.id()});
  const auto& a2 =
      w.actions().create_instance(d2, {o1.id(), o2.id()}, a1.instance);

  for (Participant* o : {&o1, &o2, &o3}) {
    ASSERT_TRUE(o->enter(a1.instance, plain(d1.tree())));
  }
  ASSERT_TRUE(o1.enter(a2.instance, plain(d2.tree())));
  ASSERT_TRUE(o2.enter(a2.instance, plain(d2.tree())));

  w.at(1000, [&] { o1.complete(); });
  w.at(1100, [&] { o2.complete(); });
  // After the nested action completes, everyone completes A1.
  w.at(5000, [&] { o1.complete(); });
  w.at(5000, [&] { o2.complete(); });
  w.at(5000, [&] { o3.complete(); });
  w.run();

  EXPECT_EQ(w.metrics().resolution_messages(), 0);
  for (Participant* o : {&o1, &o2, &o3}) {
    EXPECT_FALSE(o->in_action()) << o->name();
    EXPECT_TRUE(o->handled().empty()) << o->name();
  }
}

TEST(CaaNested, SingletonNestedActionsAbortCleanly) {
  // §4.4 case 2 shape: one raiser, every other object sits in its own
  // singleton nested action. N=4 => 3N(N-1) = 36 messages.
  World w;
  std::vector<Participant*> objects;
  std::vector<ObjectId> ids;
  for (int i = 0; i < 4; ++i) {
    objects.push_back(&w.add_participant("O" + std::to_string(i + 1)));
    ids.push_back(objects.back()->id());
  }
  const auto& d1 = w.actions().declare("A1", small_tree({"boom"}));
  const auto& a1 = w.actions().create_instance(d1, ids);
  for (auto* o : objects) {
    ASSERT_TRUE(o->enter(a1.instance, plain(d1.tree())));
  }
  std::vector<const action::InstanceInfo*> nested;
  for (int i = 1; i < 4; ++i) {
    const auto& dn = w.actions().declare("N" + std::to_string(i),
                                         small_tree({"nx"}));
    const auto& an = w.actions().create_instance(dn, {objects[i]->id()},
                                                 a1.instance);
    nested.push_back(&an);
    ASSERT_TRUE(objects[i]->enter(an.instance, plain(dn.tree())));
  }
  w.at(1000, [&] { objects[0]->raise("boom"); });
  w.run();

  for (int i = 1; i < 4; ++i) {
    ASSERT_EQ(objects[i]->aborts().size(), 1u);
    EXPECT_EQ(objects[i]->aborts()[0].instance, nested[i - 1]->instance);
  }
  for (auto* o : objects) {
    ASSERT_EQ(o->handled().size(), 1u);
    EXPECT_EQ(o->handled()[0].resolved, d1.tree().find("boom"));
  }
  EXPECT_EQ(w.metrics().resolution_messages(), 3 * 4 * (4 - 1));
}

}  // namespace
}  // namespace caa
