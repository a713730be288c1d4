// Reusable invariant oracle, run against a world after (attempted)
// quiescence.
//
// The paper's safety claims, stated as machine-checkable invariants:
//   * quiescence   — the simulator drained within the virtual-time budget;
//   * stuck        — no participant on a live node is still inside an
//                    action (completion was driven by the scenario, so a
//                    leftover context means the protocol wedged, e.g.
//                    suspended outside N after a Commit it never saw);
//   * agreement    — across ALL participants (crashed ones included:
//                    commits applied before a crash are final), every
//                    (action, round) resolved to one exception (§4.2);
//   * membership   — no participant on a live node believes a participant
//                    on a live node crashed (a restart re-admits it, and a
//                    stale crash report must not strike it down again);
//   * conservation — per message kind, sent + duplicated ==
//                    delivered + dropped: the network neither loses nor
//                    invents packets beyond its declared faults;
//   * txn leaks    — optional: no lock held, no waiter queued, no undo log
//                    open on any registered atomic-object host, and no
//                    transaction still active on any registered client.
//
// Violations are strings ready for a campaign failure report; the caller
// attaches seed / plan / dump-path context.
#pragma once

#include <string>
#include <vector>

#include "caa/world.h"
#include "txn/atomic_object.h"
#include "txn/txn_manager.h"

namespace caa::fault {

struct OracleOptions {
  /// Virtual-time deadline the run was given; quiescence is checked as
  /// "queue empty once the clock reached this".
  sim::Time deadline = 0;
  /// Atomic-object hosts / transaction clients to audit for leaks
  /// (optional; worlds without transactions leave these empty).
  std::vector<const txn::AtomicObjectHost*> hosts;
  std::vector<const txn::TxnClient*> clients;
};

struct OracleReport {
  std::vector<std::string> violations;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  /// All violations on one line, "; "-separated ("" when ok()).
  [[nodiscard]] std::string summary() const;
};

/// Runs every invariant against `world` as it stands. Call after the run.
[[nodiscard]] OracleReport check_invariants(World& world,
                                            const OracleOptions& options);

}  // namespace caa::fault
