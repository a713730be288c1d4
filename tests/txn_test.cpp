// Tests of the transaction substrate: strict 2PL lock manager with
// wait-die, atomic-object hosts with before-images, nested transactions,
// and two-phase commit across hosts.
#include <gtest/gtest.h>

#include "caa/world.h"
#include "txn/atomic_object.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"

namespace caa::txn {
namespace {

TEST(LockManager, SharedLocksAreCompatible) {
  int wakes = 0;
  LockManager lm([&](const std::string&, TxnId, LockMode) { ++wakes; });
  const TxnId t1(10), t2(20);
  EXPECT_EQ(lm.acquire("x", t1, t1, LockMode::kShared), LockOutcome::kGranted);
  EXPECT_EQ(lm.acquire("x", t2, t2, LockMode::kShared), LockOutcome::kGranted);
  EXPECT_TRUE(lm.holds("x", t1, LockMode::kShared));
  EXPECT_TRUE(lm.holds("x", t2, LockMode::kShared));
  EXPECT_EQ(wakes, 0);
}

TEST(LockManager, ExclusiveConflictsWaitDie) {
  LockManager lm([](const std::string&, TxnId, LockMode) {});
  const TxnId older(10), younger(20);
  EXPECT_EQ(lm.acquire("x", younger, younger, LockMode::kExclusive),
            LockOutcome::kGranted);
  // Older requester waits...
  EXPECT_EQ(lm.acquire("x", older, older, LockMode::kExclusive),
            LockOutcome::kQueued);
  // ...while a younger one (vs the holder 'younger'... here older holder
  // comparison) dies.
  const TxnId youngest(30);
  EXPECT_EQ(lm.acquire("x", youngest, youngest, LockMode::kExclusive),
            LockOutcome::kDied);
}

TEST(LockManager, ReleaseWakesFifoQueue) {
  std::vector<TxnId> woken;
  LockManager lm(
      [&](const std::string&, TxnId txn, LockMode) { woken.push_back(txn); });
  const TxnId holder(30), w1(10), w2(20);
  EXPECT_EQ(lm.acquire("x", holder, holder, LockMode::kExclusive),
            LockOutcome::kGranted);
  EXPECT_EQ(lm.acquire("x", w1, w1, LockMode::kExclusive),
            LockOutcome::kQueued);
  EXPECT_EQ(lm.acquire("x", w2, w2, LockMode::kShared),
            LockOutcome::kQueued);
  lm.release_all(holder);
  // FIFO: w1 (exclusive) is granted; w2 must keep waiting behind it.
  ASSERT_EQ(woken.size(), 1u);
  EXPECT_EQ(woken[0], w1);
  lm.release_all(w1);
  ASSERT_EQ(woken.size(), 2u);
  EXPECT_EQ(woken[1], w2);
}

TEST(LockManager, UpgradeSharedToExclusive) {
  LockManager lm([](const std::string&, TxnId, LockMode) {});
  const TxnId t1(10);
  EXPECT_EQ(lm.acquire("x", t1, t1, LockMode::kShared), LockOutcome::kGranted);
  EXPECT_EQ(lm.acquire("x", t1, t1, LockMode::kExclusive),
            LockOutcome::kGranted);
  EXPECT_TRUE(lm.holds("x", t1, LockMode::kExclusive));
}

TEST(LockManager, SameFamilyDoesNotConflict) {
  LockManager lm([](const std::string&, TxnId, LockMode) {});
  const TxnId top(10), child(40);
  EXPECT_EQ(lm.acquire("x", top, top, LockMode::kExclusive),
            LockOutcome::kGranted);
  EXPECT_EQ(lm.acquire("x", child, top, LockMode::kExclusive),
            LockOutcome::kGranted);
}

TEST(LockManager, TransferMergesChildIntoParent) {
  LockManager lm([](const std::string&, TxnId, LockMode) {});
  const TxnId parent(10), child(11);
  EXPECT_EQ(lm.acquire("x", child, parent, LockMode::kExclusive),
            LockOutcome::kGranted);
  EXPECT_EQ(lm.acquire("y", parent, parent, LockMode::kShared),
            LockOutcome::kGranted);
  lm.transfer(child, parent);
  EXPECT_TRUE(lm.holds("x", parent, LockMode::kExclusive));
  EXPECT_FALSE(lm.holds("x", child, LockMode::kShared));
}

// ---------------------------------------------------------------------------
// Host + client integration over the simulated network.
// ---------------------------------------------------------------------------

struct TxnWorld {
  World world;
  AtomicObjectHost host;
  AtomicObjectHost host2;
  TxnClient client;
  TxnClient client2;

  TxnWorld() {
    const NodeId n1 = world.add_node();
    const NodeId n2 = world.add_node();
    const NodeId n3 = world.add_node();
    const NodeId n4 = world.add_node();
    world.attach(host, "host1", n1);
    world.attach(host2, "host2", n2);
    world.attach(client, "client1", n3);
    world.attach(client2, "client2", n4);
    host.put_initial("a", 100);
    host.put_initial("b", 200);
    host2.put_initial("c", 300);
  }
};

TEST(TxnIntegration, ReadWriteCommit) {
  TxnWorld t;
  const TxnId txn = t.client.begin();
  Status commit_status = Status::internal("unset");
  std::int64_t read_value = -1;
  t.world.at(0, [&] {
    t.client.write(txn, t.host.id(), "a", 111, [&](Status s) {
      ASSERT_TRUE(s.is_ok());
      t.client.read(txn, t.host.id(), "a", [&](Result<std::int64_t> v) {
        ASSERT_TRUE(v.is_ok());
        read_value = v.value();
        t.client.commit(txn, [&](Status s2) { commit_status = s2; });
      });
    });
  });
  t.world.run();
  EXPECT_EQ(read_value, 111);
  EXPECT_TRUE(commit_status.is_ok());
  EXPECT_EQ(t.host.peek("a"), 111);
  EXPECT_FALSE(t.host.has_locks(txn));
  EXPECT_EQ(t.client.commits(), 1);
}

TEST(TxnIntegration, AbortRestoresBeforeImages) {
  TxnWorld t;
  const TxnId txn = t.client.begin();
  t.world.at(0, [&] {
    t.client.write(txn, t.host.id(), "a", 999, [&](Status s) {
      ASSERT_TRUE(s.is_ok());
      t.client.add(txn, t.host.id(), "b", 50, [&](Result<std::int64_t> v) {
        ASSERT_TRUE(v.is_ok());
        EXPECT_EQ(v.value(), 250);
        t.client.abort(txn, [](Status) {});
      });
    });
  });
  t.world.run();
  EXPECT_EQ(t.host.peek("a"), 100);
  EXPECT_EQ(t.host.peek("b"), 200);
  EXPECT_FALSE(t.host.has_locks(txn));
  EXPECT_EQ(t.client.aborts(), 1);
}

TEST(TxnIntegration, NestedChildCommitVisibleToParentOnly) {
  TxnWorld t;
  const TxnId parent = t.client.begin();
  bool done = false;
  t.world.at(0, [&] {
    t.client.write(parent, t.host.id(), "a", 1, [&](Status s) {
      ASSERT_TRUE(s.is_ok());
      const TxnId child = t.client.begin(parent);
      t.client.write(child, t.host.id(), "b", 2, [&, child](Status s2) {
        ASSERT_TRUE(s2.is_ok());
        t.client.commit(child, [&](Status s3) {
          ASSERT_TRUE(s3.is_ok());
          // Child's write is applied but uncommitted globally; aborting the
          // parent must roll BOTH writes back.
          t.client.abort(parent, [&](Status) { done = true; });
        });
      });
    });
  });
  t.world.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(t.host.peek("a"), 100);
  EXPECT_EQ(t.host.peek("b"), 200);
}

TEST(TxnIntegration, NestedChildAbortKeepsParentWrites) {
  TxnWorld t;
  const TxnId parent = t.client.begin();
  Status commit_status = Status::internal("unset");
  t.world.at(0, [&] {
    t.client.write(parent, t.host.id(), "a", 1, [&](Status s) {
      ASSERT_TRUE(s.is_ok());
      const TxnId child = t.client.begin(parent);
      t.client.write(child, t.host.id(), "b", 2, [&, child](Status s2) {
        ASSERT_TRUE(s2.is_ok());
        t.client.abort(child, [&](Status s3) {
          ASSERT_TRUE(s3.is_ok());
          t.client.commit(parent, [&](Status s4) { commit_status = s4; });
        });
      });
    });
  });
  t.world.run();
  EXPECT_TRUE(commit_status.is_ok());
  EXPECT_EQ(t.host.peek("a"), 1);    // parent write committed
  EXPECT_EQ(t.host.peek("b"), 200);  // child write undone
}

TEST(TxnIntegration, WaitDieYoungerVictimAborts) {
  TxnWorld t;
  // client1's txn is older (smaller object id => smaller txn id).
  const TxnId older = t.client.begin();
  const TxnId younger = t.client2.begin();
  Status younger_status = Status::ok();
  t.world.at(0, [&] {
    t.client.write(older, t.host.id(), "a", 1, [](Status s) {
      ASSERT_TRUE(s.is_ok());
    });
  });
  t.world.at(500, [&] {
    t.client2.write(younger, t.host.id(), "a", 2, [&](Status s) {
      younger_status = s;
      if (!s.is_ok()) t.client2.abort(younger, [](Status) {});
    });
  });
  t.world.at(5000, [&] { t.client.commit(older, [](Status) {}); });
  t.world.run();
  EXPECT_EQ(younger_status.code(), StatusCode::kConflict);
  EXPECT_EQ(t.host.peek("a"), 1);
  EXPECT_EQ(t.world.metrics().value("txn.wait_die_victims"), 1);
}

// A wait-die victim that commits anyway aborts: the write it made before it
// died is undone, and the commit reports the conflict.
TEST(TxnIntegration, WaitDieVictimThatCommitsAborts) {
  TxnWorld t;
  const TxnId older = t.client.begin();
  const TxnId younger = t.client2.begin();
  Status younger_commit = Status::internal("unset");
  t.world.at(0, [&] {
    t.client.write(older, t.host.id(), "a", 1, [](Status s) {
      ASSERT_TRUE(s.is_ok());
    });
  });
  t.world.at(500, [&] {
    t.client2.write(younger, t.host.id(), "b", 2, [&](Status s) {
      ASSERT_TRUE(s.is_ok());
      t.client2.write(younger, t.host.id(), "a", 3, [&](Status died) {
        EXPECT_EQ(died.code(), StatusCode::kConflict);
        t.client2.commit(younger, [&](Status s2) { younger_commit = s2; });
      });
    });
  });
  t.world.at(5000, [&] { t.client.commit(older, [](Status) {}); });
  t.world.run();
  EXPECT_EQ(younger_commit.code(), StatusCode::kConflict);
  EXPECT_EQ(t.host.peek("a"), 1);
  EXPECT_EQ(t.host.peek("b"), 200);
  EXPECT_FALSE(t.host.has_locks(younger));
  EXPECT_EQ(t.client2.commits(), 0);
  EXPECT_EQ(t.client2.aborts(), 1);
}

TEST(TxnIntegration, OlderWaitsUntilYoungerFinishes) {
  TxnWorld t;
  const TxnId older = t.client.begin();
  const TxnId younger = t.client2.begin();
  std::int64_t older_read = -1;
  t.world.at(0, [&] {
    t.client2.write(younger, t.host.id(), "a", 7, [](Status s) {
      ASSERT_TRUE(s.is_ok());
    });
  });
  t.world.at(500, [&] {
    // Older requester: queued until 'younger' commits, then reads 7.
    t.client.read(older, t.host.id(), "a", [&](Result<std::int64_t> v) {
      ASSERT_TRUE(v.is_ok());
      older_read = v.value();
      t.client.commit(older, [](Status) {});
    });
  });
  t.world.at(5000, [&] { t.client2.commit(younger, [](Status) {}); });
  t.world.run();
  EXPECT_EQ(older_read, 7);
  EXPECT_EQ(t.world.metrics().value("txn.waits"), 1);
}

TEST(TxnIntegration, TwoPhaseCommitAcrossHosts) {
  TxnWorld t;
  const TxnId txn = t.client.begin();
  Status commit_status = Status::internal("unset");
  t.world.at(0, [&] {
    t.client.add(txn, t.host.id(), "a", -30, [&](Result<std::int64_t> v) {
      ASSERT_TRUE(v.is_ok());
      t.client.add(txn, t.host2.id(), "c", 30, [&](Result<std::int64_t> v2) {
        ASSERT_TRUE(v2.is_ok());
        t.client.commit(txn, [&](Status s) { commit_status = s; });
      });
    });
  });
  t.world.run();
  EXPECT_TRUE(commit_status.is_ok());
  EXPECT_EQ(t.host.peek("a"), 70);
  EXPECT_EQ(t.host2.peek("c"), 330);
  // 2PC traffic: prepare + vote + decision + ack per host.
  EXPECT_EQ(t.world.metrics().sent(net::MsgKind::kTxnPrepare), 2);
  EXPECT_EQ(t.world.metrics().sent(net::MsgKind::kTxnVote), 2);
  EXPECT_EQ(t.world.metrics().sent(net::MsgKind::kTxnDecision), 2);
  EXPECT_EQ(t.world.metrics().sent(net::MsgKind::kTxnDecisionAck), 2);
}

TEST(TxnIntegration, CreateIsUndoneOnAbort) {
  TxnWorld t;
  const TxnId txn = t.client.begin();
  t.world.at(0, [&] {
    t.client.create(txn, t.host.id(), "fresh", 5, [&](Status s) {
      ASSERT_TRUE(s.is_ok());
      t.client.abort(txn, [](Status) {});
    });
  });
  t.world.run();
  EXPECT_FALSE(t.host.peek("fresh").has_value());
}

TEST(TxnIntegration, SerializedIncrementsSumUp) {
  // Two clients each add 10 x +1 to "a" under separate transactions with
  // retry-on-conflict; the final value must reflect every increment.
  TxnWorld t;
  int done = 0;
  std::function<void(TxnClient&, int)> run_one = [&](TxnClient& c, int left) {
    if (left == 0) {
      ++done;
      return;
    }
    const TxnId txn = c.begin();
    c.add(txn, t.host.id(), "a", 1, [&, txn, left](Result<std::int64_t> v) {
      if (!v.is_ok()) {
        c.abort(txn, [&, left](Status) {
          // retry later
          t.world.simulator().schedule_after(
              700, [&, left] { run_one(c, left); });
        });
        return;
      }
      c.commit(txn, [&, left](Status s) {
        ASSERT_TRUE(s.is_ok());
        run_one(c, left - 1);
      });
    });
  };
  t.world.at(0, [&] { run_one(t.client, 10); });
  t.world.at(50, [&] { run_one(t.client2, 10); });
  t.world.run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(t.host.peek("a"), 120);
}

}  // namespace
}  // namespace caa::txn
