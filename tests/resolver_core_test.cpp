// Unit tests of the pure §4.2 resolution state machine, driven directly
// through its hooks — no network, no simulator. A tiny in-memory bus
// shuttles encoded messages between engines in FIFO order.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <set>

#include "resolve/resolver_core.h"

namespace caa::resolve {
namespace {

using State = ResolverCore::State;

/// Synchronous FIFO bus between N engines (ids 0..N-1).
struct Bus {
  struct Wire {
    ObjectId from;
    ObjectId to;  // invalid => multicast to all but from
    net::MsgKind kind;
    net::Bytes payload;
  };

  // The group list and exclusion set every engine reads by reference
  // (nobody crashes on this bus). Declared first: they outlive the engines.
  std::vector<ObjectId> members;
  std::set<ObjectId> excluded;
  std::vector<std::unique_ptr<ResolverCore>> engines;
  std::deque<Wire> queue;
  std::vector<ExceptionId> handled;      // resolved per engine (by index)
  std::vector<int> aborted;              // abort_nested calls per engine
  ExceptionId abort_signal;              // what abortion handlers signal

  explicit Bus(std::size_t n, const ex::ExceptionTree* tree,
               ActionInstanceId scope = ActionInstanceId(1),
               std::uint32_t round = 0) {
    handled.assign(n, ExceptionId::invalid());
    aborted.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) members.push_back(ObjectId(i));
    for (std::size_t i = 0; i < n; ++i) {
      ResolverCore::Hooks hooks;
      const ObjectId self(i);
      hooks.multicast = [this, self](net::MsgKind kind, net::Bytes payload) {
        queue.push_back(Wire{self, ObjectId::invalid(), kind,
                             std::move(payload)});
      };
      hooks.ack = [this, self, scope](ObjectId to, std::uint32_t round) {
        queue.push_back(Wire{self, to, net::MsgKind::kAck,
                             encode(AckMsg{scope, round, self})});
      };
      hooks.abort_nested = [this, i](std::function<void(ExceptionId)> done) {
        ++aborted[i];
        done(abort_signal);
      };
      hooks.start_handler = [this, i](ExceptionId resolved) {
        handled[i] = resolved;
      };
      engines.push_back(std::make_unique<ResolverCore>(
          self, members, excluded, tree, scope, round, std::move(hooks)));
    }
  }

  void deliver_one() {
    Wire w = std::move(queue.front());
    queue.pop_front();
    auto dispatch = [&](ResolverCore& engine) {
      const auto m = decode_protocol(w.kind, w.payload);
      ASSERT_TRUE(m.is_ok()) << "unexpected kind";
      engine.on_message(m.value());
    };
    if (w.to.valid()) {
      dispatch(*engines[w.to.value()]);
    } else {
      for (std::size_t i = 0; i < engines.size(); ++i) {
        if (ObjectId(i) != w.from) dispatch(*engines[i]);
      }
    }
  }

  void run() {
    while (!queue.empty()) deliver_one();
  }

  /// run(), returning the wires in delivery order.
  std::vector<Wire> drain() {
    std::vector<Wire> delivered;
    while (!queue.empty()) {
      delivered.push_back(queue.front());
      deliver_one();
    }
    return delivered;
  }
};

std::size_t count_kind(const std::vector<Bus::Wire>& wires,
                       net::MsgKind kind) {
  return static_cast<std::size_t>(
      std::count_if(wires.begin(), wires.end(),
                    [kind](const Bus::Wire& w) { return w.kind == kind; }));
}

TEST(ResolverCore, SingleMemberResolvesImmediately) {
  ex::ExceptionTree tree = ex::shapes::star(2);
  Bus bus(1, &tree);
  bus.engines[0]->raise(tree.find("s1"));
  EXPECT_EQ(bus.engines[0]->state(), State::kHandling);
  EXPECT_EQ(bus.handled[0], tree.find("s1"));
  // The multicast hooks fired but there are no peers: delivering the queued
  // wires reaches nobody and changes nothing.
  bus.run();
  EXPECT_EQ(bus.engines[0]->state(), State::kHandling);
}

TEST(ResolverCore, TwoMembersSingleRaise) {
  ex::ExceptionTree tree = ex::shapes::star(2);
  Bus bus(2, &tree);
  bus.engines[0]->raise(tree.find("s1"));
  EXPECT_EQ(bus.engines[0]->state(), State::kExceptional);
  bus.run();
  EXPECT_EQ(bus.handled[0], tree.find("s1"));
  EXPECT_EQ(bus.handled[1], tree.find("s1"));
  EXPECT_EQ(bus.engines[1]->state(), State::kHandling);
}

TEST(ResolverCore, StateTransitionsFollowThePaper) {
  ex::ExceptionTree tree = ex::shapes::star(2);
  Bus bus(2, &tree);
  EXPECT_EQ(bus.engines[0]->state(), State::kNormal);
  EXPECT_EQ(bus.engines[1]->state(), State::kNormal);
  bus.engines[0]->raise(tree.find("s1"));
  // Deliver the Exception to engine 1: N -> S, and it ACKs.
  bus.deliver_one();
  EXPECT_EQ(bus.engines[1]->state(), State::kSuspended);
  // Deliver the ACK to engine 0: X -> R, and being the only raiser it is
  // the max raiser: it commits and starts handling.
  bus.deliver_one();
  EXPECT_EQ(bus.engines[0]->state(), State::kHandling);
}

TEST(ResolverCore, ConcurrentRaisesResolveToLca) {
  ex::ExceptionTree tree;
  const auto parent = tree.declare("engine_loss");
  const auto left = tree.declare("left", parent);
  const auto right = tree.declare("right", parent);
  tree.freeze();

  Bus bus(3, &tree);
  bus.engines[0]->raise(left);
  bus.engines[1]->raise(right);
  bus.run();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(bus.handled[i], parent) << "engine " << i;
  }
}

TEST(ResolverCore, BiggestRaiserCommits) {
  ex::ExceptionTree tree = ex::shapes::star(3);
  Bus bus(3, &tree);
  bus.engines[0]->raise(tree.find("s1"));
  bus.engines[2]->raise(tree.find("s3"));
  // Count commits: exactly one Commit multicast must appear, from engine 2.
  int commits_from_2 = 0, commits_other = 0;
  while (!bus.queue.empty()) {
    if (bus.queue.front().kind == net::MsgKind::kCommit) {
      if (bus.queue.front().from == ObjectId(2)) {
        ++commits_from_2;
      } else {
        ++commits_other;
      }
    }
    bus.deliver_one();
  }
  EXPECT_EQ(commits_from_2, 1);
  EXPECT_EQ(commits_other, 0);
}

TEST(ResolverCore, NestedTriggerAbortsAndSignals) {
  ex::ExceptionTree tree = ex::shapes::star(3);
  Bus bus(2, &tree);
  bus.abort_signal = tree.find("s2");
  // Engine 1 is (conceptually) inside a nested action; engine 0 raises.
  bus.engines[0]->raise(tree.find("s1"));
  // Route the Exception as a *trigger* to engine 1.
  Bus::Wire w = std::move(bus.queue.front());
  bus.queue.pop_front();
  ASSERT_EQ(w.kind, net::MsgKind::kException);
  bus.engines[1]->on_trigger_while_nested(decode_exception(w.payload).value());
  EXPECT_EQ(bus.aborted[1], 1);
  // Engine 1 signalled s2 from its abortion handlers => Exceptional.
  EXPECT_EQ(bus.engines[1]->state(), State::kExceptional);
  bus.run();
  // Raisers are {0 (s1), 1 (s2)}; max is 1; the resolution covers both.
  EXPECT_EQ(bus.handled[0], tree.root());
  EXPECT_EQ(bus.handled[1], tree.root());
}

TEST(ResolverCore, NestedTriggerWithoutSignalSuspends) {
  ex::ExceptionTree tree = ex::shapes::star(2);
  Bus bus(2, &tree);
  bus.engines[0]->raise(tree.find("s1"));
  Bus::Wire w = std::move(bus.queue.front());
  bus.queue.pop_front();
  bus.engines[1]->on_trigger_while_nested(decode_exception(w.payload).value());
  EXPECT_EQ(bus.engines[1]->state(), State::kSuspended);
  bus.run();
  EXPECT_EQ(bus.handled[0], tree.find("s1"));
  EXPECT_EQ(bus.handled[1], tree.find("s1"));
}

TEST(ResolverCore, HaveNestedTriggerAlsoAborts) {
  ex::ExceptionTree tree = ex::shapes::star(2);
  Bus bus(2, &tree);
  // Simulate engine 1 receiving a HaveNested as the first thing it learns.
  const HaveNestedMsg hn{ActionInstanceId(1), 0, ObjectId(0)};
  bus.engines[1]->on_trigger_while_nested(hn);
  EXPECT_EQ(bus.aborted[1], 1);
  EXPECT_EQ(bus.engines[1]->state(), State::kSuspended);
  // It must have multicast HaveNested and NestedCompleted.
  ASSERT_EQ(bus.queue.size(), 2u);
  EXPECT_EQ(bus.queue[0].kind, net::MsgKind::kHaveNested);
  EXPECT_EQ(bus.queue[1].kind, net::MsgKind::kNestedCompleted);
}

TEST(ResolverCore, ResolverWaitsForNestedCompletion) {
  ex::ExceptionTree tree = ex::shapes::star(3);
  Bus bus(2, &tree);
  bus.engines[0]->raise(tree.find("s1"));
  // Engine 1 announces nested activity (HaveNested) but has not completed.
  bus.engines[0]->on_message(
      HaveNestedMsg{ActionInstanceId(1), 0, ObjectId(1)});
  // Even with the ACK, engine 0 must not reach Ready while LO has a
  // pending entry.
  bus.engines[0]->on_message(AckMsg{ActionInstanceId(1), 0, ObjectId(1)});
  EXPECT_EQ(bus.engines[0]->state(), State::kExceptional);
  bus.engines[0]->on_message(
      NestedCompletedMsg{ActionInstanceId(1), 0, ObjectId(1),
                         ExceptionId::invalid()});
  // Now: all ACKs + all nested completed => Ready => max raiser => commit.
  EXPECT_EQ(bus.engines[0]->state(), State::kHandling);
  EXPECT_EQ(bus.handled[0], tree.find("s1"));
}

TEST(ResolverCore, CommitHeldUntilReady) {
  ex::ExceptionTree tree = ex::shapes::star(3);
  Bus bus(3, &tree);
  // Engines 0 and 2 raise; engine 0 receives the commit from 2 before its
  // own ACKs are complete: it must hold the commit until Ready.
  bus.engines[0]->raise(tree.find("s1"));
  bus.engines[0]->on_message(
      ExceptionMsg{ActionInstanceId(1), 0, ObjectId(2), tree.find("s3")});
  bus.engines[0]->on_message(
      CommitMsg{ActionInstanceId(1), 0, ObjectId(2), tree.root()});
  EXPECT_EQ(bus.engines[0]->state(), State::kExceptional);  // held
  bus.engines[0]->on_message(AckMsg{ActionInstanceId(1), 0, ObjectId(1)});
  EXPECT_EQ(bus.engines[0]->state(), State::kExceptional);  // one ACK missing
  bus.engines[0]->on_message(AckMsg{ActionInstanceId(1), 0, ObjectId(2)});
  EXPECT_EQ(bus.engines[0]->state(), State::kHandling);
  EXPECT_EQ(bus.handled[0], tree.root());
}

// ---- One engine per scope: rounds open in the same engine ----------------

TEST(ResolverCoreRounds, NextRoundResolvesLikeAFreshEngine) {
  ex::ExceptionTree tree = ex::shapes::star(3);
  Bus reused(3, &tree);
  reused.engines[0]->raise(tree.find("s1"));
  reused.engines[1]->raise(tree.find("s2"));
  reused.run();
  for (auto& engine : reused.engines) {
    ASSERT_EQ(engine->state(), State::kHandling);
    engine->next_round(1);
    EXPECT_EQ(engine->state(), State::kNormal);
    EXPECT_EQ(engine->round(), 1u);
    EXPECT_TRUE(engine->exceptions().empty());
  }
  // The same second raise set, in the reused engines and in engines built
  // at round 1, must produce the same wires, byte for byte.
  Bus fresh(3, &tree, ActionInstanceId(1), 1);
  for (Bus* bus : {&reused, &fresh}) {
    bus->engines[2]->raise(tree.find("s3"));
    bus->engines[0]->raise(tree.find("s1"));
  }
  const std::vector<Bus::Wire> again = reused.drain();
  const std::vector<Bus::Wire> first = fresh.drain();
  EXPECT_EQ(count_kind(again, net::MsgKind::kCommit), 1u);
  EXPECT_EQ(count_kind(again, net::MsgKind::kAck), 4u);
  EXPECT_EQ(count_kind(first, net::MsgKind::kCommit), 1u);
  EXPECT_EQ(count_kind(first, net::MsgKind::kAck), 4u);
  ASSERT_EQ(again.size(), first.size());
  for (std::size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again[i].from, first[i].from) << "wire " << i;
    EXPECT_EQ(again[i].to, first[i].to) << "wire " << i;
    EXPECT_EQ(again[i].kind, first[i].kind) << "wire " << i;
    EXPECT_EQ(again[i].payload, first[i].payload) << "wire " << i;
  }
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(reused.handled[i], tree.root()) << "engine " << i;
    EXPECT_EQ(fresh.handled[i], tree.root()) << "engine " << i;
  }
}

TEST(ResolverCoreDeathTest, NextRoundOnAnUnsettledRoundDies) {
  ex::ExceptionTree tree = ex::shapes::star(2);
  Bus bus(2, &tree);
  bus.engines[0]->raise(tree.find("s1"));
  ASSERT_EQ(bus.engines[0]->state(), State::kExceptional);
  EXPECT_DEATH(bus.engines[0]->next_round(1), "not settled");
}

TEST(ResolverCoreRounds, CrashSyncBarrierWithholdsCommitsAcrossRounds) {
  ex::ExceptionTree tree = ex::shapes::star(3);
  Bus bus(3, &tree);
  ResolverCore& engine = *bus.engines[2];
  engine.await_sync(ObjectId(0));
  engine.await_sync(ObjectId(1));
  EXPECT_TRUE(engine.syncing());
  // Round 0: applying a commit someone else made stays allowed while
  // syncing.
  bus.engines[0]->raise(tree.find("s1"));
  bus.run();
  EXPECT_EQ(engine.state(), State::kHandling);
  EXPECT_EQ(bus.handled[2], tree.find("s1"));
  for (auto& e : bus.engines) e->next_round(1);
  EXPECT_TRUE(engine.syncing());  // the barrier survives the round

  // Round 1: engine 2, the only raiser and so the committee, gets every
  // ACK but withholds its Commit while the barrier waits.
  engine.raise(tree.find("s3"));
  const std::vector<Bus::Wire> wires = bus.drain();
  EXPECT_EQ(count_kind(wires, net::MsgKind::kAck), 2u);
  EXPECT_EQ(count_kind(wires, net::MsgKind::kCommit), 0u);
  EXPECT_EQ(engine.state(), State::kReady);

  EXPECT_FALSE(engine.sync_heard(ObjectId(0)));  // member 1 still awaited
  EXPECT_FALSE(engine.sync_heard(ObjectId(0)));  // no longer awaited
  EXPECT_EQ(engine.state(), State::kReady);
  EXPECT_TRUE(engine.sync_heard(ObjectId(1)));  // drains: Commit released
  EXPECT_FALSE(engine.syncing());
  EXPECT_EQ(engine.state(), State::kHandling);
  ASSERT_EQ(bus.queue.size(), 1u);
  EXPECT_EQ(bus.queue.front().kind, net::MsgKind::kCommit);
  bus.run();
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(bus.handled[i], tree.find("s3")) << "engine " << i;
  }
}

TEST(ResolverCoreRounds, KnownCommitIsTheHeldOneThenTheLastApplied) {
  ex::ExceptionTree tree = ex::shapes::star(3);
  Bus bus(3, &tree);
  ResolverCore& engine = *bus.engines[0];
  EXPECT_FALSE(engine.known_commit().has_value());
  engine.raise(tree.find("s1"));
  engine.on_message(
      ExceptionMsg{ActionInstanceId(1), 0, ObjectId(2), tree.find("s3")});
  engine.on_message(
      CommitMsg{ActionInstanceId(1), 0, ObjectId(2), tree.root()});
  ASSERT_EQ(engine.state(), State::kExceptional);  // held until Ready
  ASSERT_TRUE(engine.known_commit().has_value());
  EXPECT_EQ(engine.known_commit()->resolver, ObjectId(2));
  EXPECT_EQ(engine.known_commit()->resolved, tree.root());

  engine.on_message(AckMsg{ActionInstanceId(1), 0, ObjectId(1)});
  engine.on_message(AckMsg{ActionInstanceId(1), 0, ObjectId(2)});
  ASSERT_EQ(engine.state(), State::kHandling);
  engine.next_round(1);
  // Nothing is held in round 1: the status advertises round 0's commit.
  ASSERT_TRUE(engine.known_commit().has_value());
  EXPECT_EQ(engine.known_commit()->round, 0u);
  EXPECT_EQ(engine.known_commit()->resolver, ObjectId(2));
  EXPECT_EQ(engine.known_commit()->resolved, tree.root());
}

TEST(ResolverCore, MessagesRoundTripThroughWireFormat) {
  const ExceptionMsg e{ActionInstanceId(7), 3, ObjectId(2), ExceptionId(5)};
  const auto decoded = decode_exception(encode(e));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().scope, e.scope);
  EXPECT_EQ(decoded.value().round, 3u);
  EXPECT_EQ(decoded.value().raiser, e.raiser);
  EXPECT_EQ(decoded.value().exception, e.exception);

  const NestedCompletedMsg nc{ActionInstanceId(9), 1, ObjectId(4),
                              ExceptionId::invalid()};
  const auto nc2 = decode_nested_completed(encode(nc));
  ASSERT_TRUE(nc2.is_ok());
  EXPECT_FALSE(nc2.value().signalled.valid());

  const auto sr = peek_scope_round(encode(e));
  ASSERT_TRUE(sr.is_ok());
  EXPECT_EQ(sr.value().scope, ActionInstanceId(7));
  EXPECT_EQ(sr.value().round, 3u);
}

TEST(ResolverCore, MalformedMessagesRejected) {
  net::Bytes junk{std::byte{1}, std::byte{2}};
  EXPECT_FALSE(decode_exception(junk).is_ok());
  EXPECT_FALSE(decode_commit(junk).is_ok());
  EXPECT_FALSE(peek_scope_round(junk).is_ok());
  EXPECT_FALSE(decode_protocol(net::MsgKind::kException, junk).is_ok());
  // A well-formed body under a kind that is not one of the five.
  const net::Bytes ack = encode(AckMsg{ActionInstanceId(1), 0, ObjectId(0)});
  EXPECT_TRUE(decode_protocol(net::MsgKind::kAck, ack).is_ok());
  EXPECT_FALSE(decode_protocol(net::MsgKind::kFastCover, ack).is_ok());
}

}  // namespace
}  // namespace caa::resolve
