// Unit tests for the invariant oracle (src/fault/oracle.h): one test per
// invariant, each planting the smallest state that should trip it, plus a
// clean-world control. The explorer and the chaos campaign both lean on
// this oracle; these tests pin down exactly what it can and cannot see.
#include <gtest/gtest.h>

#include <string>

#include "caa/world.h"
#include "fault/oracle.h"
#include "txn/atomic_object.h"
#include "txn/txn_manager.h"

namespace caa::fault {
namespace {

using action::EnterConfig;
using action::uniform_handlers;

ex::ExceptionTree engine_tree() {
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

bool any_violation_contains(const OracleReport& report,
                            const std::string& needle) {
  for (const std::string& v : report.violations) {
    if (v.find(needle) != std::string::npos) return true;
  }
  return false;
}

// A completed Example-1-style run satisfies every invariant.
TEST(Oracle, CleanWorldPassesEveryInvariant) {
  World w;
  auto& o1 = w.add_participant("O1");
  auto& o2 = w.add_participant("O2");
  const auto& decl = w.actions().declare("A1", engine_tree());
  const auto& a1 = w.actions().create_instance(decl, {o1.id(), o2.id()});
  ASSERT_TRUE(o1.enter(a1.instance, recovered_config(decl.tree())));
  ASSERT_TRUE(o2.enter(a1.instance, recovered_config(decl.tree())));
  w.at(1000, [&] { o1.raise("left_engine_exception"); });
  w.run();

  OracleOptions options;
  options.deadline = w.simulator().now();
  const OracleReport report = check_invariants(w, options);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(report.summary(), "");
}

// Quiescence: an event still pending at the deadline is a violation.
TEST(Oracle, DetectsNonQuiescentWorld) {
  World w;
  w.add_participant("O1");
  w.at(5000, [] {});  // never executed: the world is not run

  const OracleReport report = check_invariants(w, {});
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(any_violation_contains(report, "not quiescent"))
      << report.summary();
}

// Stuck survivor: a live participant still inside an action at the end.
TEST(Oracle, DetectsStuckSurvivor) {
  World w;
  auto& o1 = w.add_participant("O1");
  auto& o2 = w.add_participant("O2");
  const auto& decl = w.actions().declare("A1", engine_tree());
  const auto& a1 = w.actions().create_instance(decl, {o1.id(), o2.id()});
  ASSERT_TRUE(o1.enter(a1.instance, recovered_config(decl.tree())));
  ASSERT_TRUE(o2.enter(a1.instance, recovered_config(decl.tree())));
  w.run();  // nobody raises, nobody completes: both wedge inside A1

  OracleOptions options;
  options.deadline = w.simulator().now();
  const OracleReport report = check_invariants(w, options);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(any_violation_contains(report, "O1 stuck in action"))
      << report.summary();
  EXPECT_TRUE(any_violation_contains(report, "O2 stuck in action"));
  // The stuck check is scoped to live nodes: quiescence itself is fine.
  EXPECT_FALSE(any_violation_contains(report, "not quiescent"));
}

// Survivor agreement: two live participants with different resolved
// exceptions for the same (action, round) is a disagreement.
TEST(Oracle, DetectsSurvivorDisagreement) {
  World w;
  auto& o1 = w.add_participant("O1");
  auto& o2 = w.add_participant("O2");
  const auto& decl = w.actions().declare("A1", engine_tree());
  const auto& a1 = w.actions().create_instance(decl, {o1.id(), o2.id()});
  ASSERT_TRUE(o1.enter(a1.instance, recovered_config(decl.tree())));
  ASSERT_TRUE(o2.enter(a1.instance, recovered_config(decl.tree())));
  w.at(1000, [&] { o1.raise("left_engine_exception"); });
  w.run();
  ASSERT_EQ(o1.handled().size(), 1u);
  ASSERT_EQ(o2.handled().size(), 1u);

  // Rewrite O2's record of the same round to a different exception — the
  // smallest possible divergence.
  action::HandledRecord forged = o2.handled().back();
  forged.resolved = decl.tree().find("emergency_engine_loss_exception");
  ASSERT_NE(forged.resolved, o2.handled().back().resolved);
  o2.debug_inject_handled(forged);

  OracleOptions options;
  options.deadline = w.simulator().now();
  const OracleReport report = check_invariants(w, options);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(any_violation_contains(report, "resolution disagreement"))
      << report.summary();
}

// Crashed participants are exempt from the stuck and agreement checks: a
// commit applied right before a fail-stop crash is unknowable, not wrong.
TEST(Oracle, SkipsCrashedNodesInStuckAndAgreement) {
  World w;
  auto& o1 = w.add_participant("O1");
  auto& o2 = w.add_participant("O2");
  const auto& decl = w.actions().declare("A1", engine_tree());
  const auto& a1 = w.actions().create_instance(decl, {o1.id(), o2.id()});
  ASSERT_TRUE(o1.enter(a1.instance, recovered_config(decl.tree())));
  ASSERT_TRUE(o2.enter(a1.instance, recovered_config(decl.tree())));
  w.at(1000, [&] { o1.raise("left_engine_exception"); });
  w.run();
  ASSERT_EQ(o2.handled().size(), 1u);

  action::HandledRecord forged = o2.handled().back();
  forged.resolved = decl.tree().find("emergency_engine_loss_exception");
  o2.debug_inject_handled(forged);
  w.network().set_node_up(o2.runtime().node(), false);

  OracleOptions options;
  options.deadline = w.simulator().now();
  const OracleReport report = check_invariants(w, options);
  EXPECT_FALSE(any_violation_contains(report, "resolution disagreement"))
      << report.summary();
  EXPECT_FALSE(any_violation_contains(report, "stuck in action"));
}

// Conservation: per message kind, sent + duplicated == delivered + dropped.
// Bumping a sent counter without a matching delivery breaks exactly one
// kind's books, for every kind the network accounts for.
TEST(Oracle, DetectsConservationBreak) {
  World w;
  auto& o1 = w.add_participant("O1");
  auto& o2 = w.add_participant("O2");
  const auto& decl = w.actions().declare("A1", engine_tree());
  const auto& a1 = w.actions().create_instance(decl, {o1.id(), o2.id()});
  ASSERT_TRUE(o1.enter(a1.instance, recovered_config(decl.tree())));
  ASSERT_TRUE(o2.enter(a1.instance, recovered_config(decl.tree())));
  w.at(1000, [&] { o1.raise("left_engine_exception"); });
  w.run();

  OracleOptions options;
  options.deadline = w.simulator().now();
  ASSERT_TRUE(check_invariants(w, options).ok());

  for (const net::MsgKind kind : net::all_kinds()) {
    SCOPED_TRACE(std::string(net::kind_name(kind)));
    // Phantom send: one packet the network never accounted for.
    const CounterId sent = net::kind_counters(kind).sent;
    w.metrics().counters().add(sent);
    const OracleReport report = check_invariants(w, options);
    EXPECT_EQ(report.violations.size(), 1u) << report.summary();
    EXPECT_TRUE(any_violation_contains(
        report, "conservation broken for " +
                    std::string(net::kind_name(kind)) + ":"))
        << report.summary();
    w.metrics().counters().add(sent, -1);
  }
}

// Transactional leaks: a transaction that acquired locks and wrote but
// never committed leaves a held lock, an open undo log and a dangling
// client transaction — three distinct violations.
TEST(Oracle, DetectsTxnLockUndoAndClientLeaks) {
  World w;
  txn::AtomicObjectHost host;
  txn::TxnClient client;
  w.attach(host, "host1", w.add_node());
  w.attach(client, "client1", w.add_node());
  host.put_initial("a", 100);

  const TxnId txn = client.begin();
  w.at(0, [&] {
    client.write(txn, host.id(), "a", 111,
                 [](Status s) { ASSERT_TRUE(s.is_ok()); });
  });
  w.run();  // write applied under the txn; commit never issued
  ASSERT_GT(host.total_locks_held(), 0u);

  OracleOptions options;
  options.deadline = w.simulator().now();
  options.hosts.push_back(&host);
  options.clients.push_back(&client);
  const OracleReport report = check_invariants(w, options);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(any_violation_contains(report, "leaked")) << report.summary();
  EXPECT_TRUE(any_violation_contains(report, "open undo log"));
  EXPECT_TRUE(any_violation_contains(report, "dangling transaction"));

  // Unregistered hosts are invisible to the oracle — leaks are only
  // audited where the caller asked for them.
  const OracleReport unaudited = check_invariants(w, {});
  EXPECT_FALSE(any_violation_contains(unaudited, "leaked"));
}

}  // namespace
}  // namespace caa::fault
