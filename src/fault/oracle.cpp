#include "fault/oracle.h"

#include <map>
#include <utility>

#include "net/message.h"

namespace caa::fault {

std::string OracleReport::summary() const {
  std::string out;
  for (const std::string& v : violations) {
    if (!out.empty()) out += "; ";
    out += v;
  }
  return out;
}

OracleReport check_invariants(World& world, const OracleOptions& options) {
  OracleReport report;
  auto violate = [&report](std::string msg) {
    report.violations.push_back(std::move(msg));
  };

  // Quiescence within the budget.
  if (!world.simulator().idle()) {
    violate("not quiescent: " + std::to_string(world.simulator().pending_events()) +
            " events still pending at t=" +
            std::to_string(world.simulator().now()) +
            (options.deadline > 0
                 ? " (deadline " + std::to_string(options.deadline) + ")"
                 : ""));
  }

  // No live participant stuck inside an action.
  for (const auto& p : world.participants()) {
    if (!world.network().node_up(p->runtime().node())) continue;
    if (p->in_action()) {
      violate(p->name() + " stuck in action (depth " +
              std::to_string(p->nesting_depth()) + ", resolver state " +
              std::to_string(static_cast<int>(p->resolver_state())) + ")");
    }
  }

  // Survivor agreement on the resolved exception, per (action, round).
  // Fail-stop scoping: a participant that is down at the end, or that
  // abandoned the scope in a restart, may have applied a commit in its
  // final instants that no survivor can ever learn of (the crash wiped the
  // only copy, and survivors uniformly discard the dead object's in-flight
  // messages). Its records are unknowable, not disagreeing — only records
  // of participants still standing in the scope are compared.
  std::map<std::pair<std::uint64_t, std::uint32_t>, ExceptionId> seen;
  for (const auto& p : world.participants()) {
    if (!world.network().node_up(p->runtime().node())) continue;
    for (const action::HandledRecord& h : p->handled()) {
      if (p->abandoned_scopes().contains(h.instance)) continue;
      const auto key = std::make_pair(h.instance.value(), h.round);
      auto [it, inserted] = seen.emplace(key, h.resolved);
      if (!inserted && it->second != h.resolved) {
        violate("resolution disagreement in action " +
                std::to_string(h.instance.value()) + " round " +
                std::to_string(h.round) + " at " + p->name());
      }
    }
  }

  // Membership agreement: a participant on a live node believes no
  // participant on a live node down.
  for (const auto& p : world.participants()) {
    if (!world.network().node_up(p->runtime().node())) continue;
    for (const ObjectId peer : p->membership().down()) {
      if (world.network().node_up(world.directory().address_of(peer).node)) {
        violate(p->name() + " believes " + world.directory().name_of(peer) +
                " crashed, but its node is up");
      }
    }
  }

  // Packet conservation per kind, relay envelopes included.
  const obs::Metrics& metrics = world.metrics();
  for (const net::MsgKind kind : net::all_kinds()) {
    const net::KindCounters& kc = net::kind_counters(kind);
    const std::int64_t sent = metrics.value(kc.sent);
    const std::int64_t duplicated = metrics.value(kc.duplicated);
    const std::int64_t delivered = metrics.value(kc.delivered);
    const std::int64_t dropped = metrics.value(kc.dropped);
    if (sent + duplicated != delivered + dropped) {
      violate("conservation broken for " + std::string(net::kind_name(kind)) +
              ": sent " + std::to_string(sent) + " + duplicated " +
              std::to_string(duplicated) + " != delivered " +
              std::to_string(delivered) + " + dropped " +
              std::to_string(dropped));
    }
  }

  // Transactional leaks on registered hosts / clients.
  for (const txn::AtomicObjectHost* host : options.hosts) {
    if (host->total_locks_held() > 0) {
      violate(host->name() + " leaked " +
              std::to_string(host->total_locks_held()) + " lock(s)");
    }
    if (host->queued_lock_waiters() > 0) {
      violate(host->name() + " has " +
              std::to_string(host->queued_lock_waiters()) +
              " stuck lock waiter(s)");
    }
    if (host->open_undo_logs() > 0) {
      violate(host->name() + " has " +
              std::to_string(host->open_undo_logs()) + " open undo log(s)");
    }
  }
  for (const txn::TxnClient* client : options.clients) {
    if (client->active_txns() > 0) {
      violate(client->name() + " has " +
              std::to_string(client->active_txns()) +
              " dangling transaction(s)");
    }
  }
  return report;
}

}  // namespace caa::fault
