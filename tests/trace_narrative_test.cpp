// Trace-narrative tests: the protocol traces of the paper's §4.3 examples,
// asserted message by message against the world's flight-recorder sends and
// deliveries.
#include <gtest/gtest.h>

#include <map>

#include "caa/world.h"

namespace caa {
namespace {

using action::EnterConfig;
using action::uniform_handlers;

/// "O1 send Exception to O2" / "O2 recv ACK from O1" lines, one per
/// flight-recorder send or delivery, in record order. Wire records name
/// nodes; every participant here sits on its own node.
std::vector<std::string> net_lines(World& world) {
  std::map<std::uint32_t, std::string> names;
  for (const auto& p : world.participants()) {
    names[p->runtime().node().value()] = p->name();
  }
  EXPECT_EQ(world.recorder().overwritten(), 0u);
  std::vector<std::string> out;
  for (const obs::FlightRecord& r : world.recorder().snapshot()) {
    const std::string kind(net::kind_name(static_cast<net::MsgKind>(r.code)));
    if (r.type == obs::RecType::kSend) {
      out.push_back(names.at(r.actor) + " send " + kind + " to " +
                    names.at(r.peer));
    } else if (r.type == obs::RecType::kDeliver) {
      out.push_back(names.at(r.actor) + " recv " + kind + " from " +
                    names.at(r.peer));
    }
  }
  return out;
}

int count_of(const std::vector<std::string>& lines, const std::string& what) {
  int n = 0;
  for (const auto& l : lines) {
    if (l.find(what) != std::string::npos) ++n;
  }
  return n;
}

TEST(TraceNarrative, Example1FollowsThePaper) {
  // §4.3 Example 1, O1 and O2 raise concurrently. The narrative:
  //  O1: sends Exception to O2,O3; receives ACKs; receives Exception from
  //      O2 and ACKs it; waits for Commit.
  //  O2: sends Exception to O1,O3; receives ACKs; resolves (bigger name);
  //      sends Commit to O1,O3.
  //  O3: receives both Exceptions, ACKs both, receives Commit.
  World w;
  auto& o1 = w.add_participant("O1");
  auto& o2 = w.add_participant("O2");
  auto& o3 = w.add_participant("O3");
  ex::ExceptionTree tree;
  const auto parent = tree.declare("E");
  tree.declare("E1", parent);
  tree.declare("E2", parent);
  const auto& decl = w.actions().declare("A1", std::move(tree));
  const auto& a1 =
      w.actions().create_instance(decl, {o1.id(), o2.id(), o3.id()});
  for (auto* o : {&o1, &o2, &o3}) {
    ASSERT_TRUE(o->enter(
        a1.instance,
        EnterConfig::with(
            uniform_handlers(decl.tree(), ex::HandlerResult::recovered()))));
  }
  w.at(1000, [&] { o1.raise("E1"); });
  w.at(1000, [&] { o2.raise("E2"); });
  w.run();

  const auto lines = net_lines(w);
  // O1's Exception multicast to O2 and O3.
  EXPECT_EQ(count_of(lines, "O1 send Exception to O2"), 1);
  EXPECT_EQ(count_of(lines, "O1 send Exception to O3"), 1);
  // O2's Exception multicast.
  EXPECT_EQ(count_of(lines, "O2 send Exception to O1"), 1);
  EXPECT_EQ(count_of(lines, "O2 send Exception to O3"), 1);
  // Mutual ACKs between the raisers, plus O3's ACKs to both.
  EXPECT_EQ(count_of(lines, "O1 send ACK to O2"), 1);
  EXPECT_EQ(count_of(lines, "O2 send ACK to O1"), 1);
  EXPECT_EQ(count_of(lines, "O3 send ACK to O1"), 1);
  EXPECT_EQ(count_of(lines, "O3 send ACK to O2"), 1);
  // Only O2 commits (name(O2) > name(O1)).
  EXPECT_EQ(count_of(lines, "O2 send Commit to O1"), 1);
  EXPECT_EQ(count_of(lines, "O2 send Commit to O3"), 1);
  EXPECT_EQ(count_of(lines, "O1 send Commit"), 0);
  EXPECT_EQ(count_of(lines, "O3 send Commit"), 0);

  // Ordering: O2's Commit is sent only after O2 received both ACKs.
  std::size_t last_ack_to_o2 = 0, first_commit = lines.size();
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].find("recv ACK from") != std::string::npos &&
        lines[i].rfind("O2 ", 0) == 0) {
      last_ack_to_o2 = i;
    }
    if (lines[i].find("O2 send Commit") != std::string::npos) {
      first_commit = std::min(first_commit, i);
    }
  }
  EXPECT_LT(last_ack_to_o2, first_commit);
}

TEST(TraceNarrative, Example2HaveNestedPrecedesNestedCompleted) {
  // In the Figure-4 scenario, each nested object sends HaveNested before
  // its NestedCompleted, and O2 sends its NestedCompleted only after its
  // abortion handlers ran.
  World w;
  auto& o1 = w.add_participant("O1");
  auto& o2 = w.add_participant("O2");
  auto& o3 = w.add_participant("O3");
  ex::ExceptionTree t1;
  const auto combo = t1.declare("combo");
  t1.declare("E1", combo);
  t1.declare("E3", combo);
  const auto& d1 = w.actions().declare("A1", std::move(t1));
  ex::ExceptionTree t2;
  t2.declare("E2");
  const auto& d2 = w.actions().declare("A2", std::move(t2));
  const auto& a1 =
      w.actions().create_instance(d1, {o1.id(), o2.id(), o3.id()});
  const auto& a2 =
      w.actions().create_instance(d2, {o2.id(), o3.id()}, a1.instance);

  auto plain = [&](const action::ActionDecl& d) {
    return EnterConfig::with(
               uniform_handlers(d.tree(), ex::HandlerResult::recovered()))
        .build();
  };
  for (auto* o : {&o1, &o2, &o3}) {
    ASSERT_TRUE(o->enter(a1.instance, plain(d1)));
  }
  const EnterConfig c2 =
      EnterConfig::with(
          uniform_handlers(d2.tree(), ex::HandlerResult::recovered()))
          .abortion([&] {
            return ex::AbortResult::signalling(d1.tree().find("E3"), 100);
          });
  ASSERT_TRUE(o2.enter(a2.instance, c2));
  ASSERT_TRUE(o3.enter(a2.instance, plain(d2)));
  w.at(1000, [&] { o1.raise("E1"); });
  w.run();

  const auto lines = net_lines(w);
  auto first_index = [&](const std::string& what) {
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].find(what) != std::string::npos) return i;
    }
    return lines.size();
  };
  // Per-object ordering (O2): HaveNested < NestedCompleted < ACK to O1.
  EXPECT_LT(first_index("O2 send HaveNested"),
            first_index("O2 send NestedCompleted"));
  EXPECT_LT(first_index("O2 send NestedCompleted"),
            first_index("O2 send ACK to O1"));
  // Same for O3.
  EXPECT_LT(first_index("O3 send HaveNested"),
            first_index("O3 send NestedCompleted"));
  // O2 resolves (it signalled E3, making it the biggest raiser).
  EXPECT_EQ(count_of(lines, "O2 send Commit to O1"), 1);
}

}  // namespace
}  // namespace caa
