#include "fault/injector.h"

#include <utility>

#include "util/check.h"

namespace caa::fault {

FaultInjector::FaultInjector(World& world, FaultPlan plan)
    : world_(world), plan_(std::move(plan)) {
  const Status status = plan_.validate(world_.node_count());
  CAA_CHECK_MSG(status.is_ok(), "fault plan failed validation");
  arm();
}

void FaultInjector::arm() {
  sim::Simulator& simulator = world_.simulator();
  net::Network& network = world_.network();
  for (const FaultEvent& e : plan_.events) {
    switch (e.kind) {
      case FaultKind::kCrash:
        simulator.schedule_at(e.at, [this, node = NodeId(e.a)] {
          world_.crash(node);
        });
        break;
      case FaultKind::kRestart:
        simulator.schedule_at(e.at, [&network, node = NodeId(e.a)] {
          // No-op when up (shrunk plans); the up-transition fires the
          // World's node hook, which drives participant restart handling.
          if (!network.node_up(node)) network.set_node_up(node, true);
        });
        break;
      case FaultKind::kPartition:
        simulator.schedule_at(e.at, [&network, a = NodeId(e.a),
                                     b = NodeId(e.b)] {
          network.set_partitioned(a, b, true);
        });
        simulator.schedule_at(e.until, [&network, a = NodeId(e.a),
                                        b = NodeId(e.b)] {
          network.set_partitioned(a, b, false);
        });
        break;
      case FaultKind::kDropBurst:
        simulator.schedule_at(e.at, [&network, e] {
          network.set_drop_window(NodeId(e.a), NodeId(e.b), e.until,
                                  e.permille);
          network.set_drop_window(NodeId(e.b), NodeId(e.a), e.until,
                                  e.permille);
        });
        break;
      case FaultKind::kLatencySpike:
        simulator.schedule_at(e.at, [&network, e] {
          network.set_latency_window(NodeId(e.a), NodeId(e.b), e.until,
                                     e.extra);
          network.set_latency_window(NodeId(e.b), NodeId(e.a), e.until,
                                     e.extra);
        });
        break;
      case FaultKind::kResolverCrash:
        resolver_delay_ = e.extra;
        break;
      case FaultKind::kExitAssassin:
        assassin_delay_ = e.extra;
        break;
    }
  }
  if (!resolver_delay_.has_value() && !assassin_delay_.has_value()) return;
  // The Network has ONE send tap, so the trigger faults share it. The tap
  // fires inside Network::send() with participant frames on the stack: only
  // *schedule* the crashes, never apply them here.
  network.set_send_tap([this](const net::Packet& p) {
    // A fast round's kFastCover report is the avoidance path's analogue of
    // the first Exception send — count it so the resolver hunt still aims
    // at raisers when coordination avoidance suppresses the broadcast.
    if (resolver_delay_.has_value() && !trigger_fired_ &&
        (p.kind == net::MsgKind::kException ||
         p.kind == net::MsgKind::kFastCover)) {
      trigger_fired_ = true;
      world_.simulator().schedule_at(
          world_.simulator().now() + *resolver_delay_,
          [this, node = p.src.node] { world_.crash(node); });
    }
    if (assassin_delay_.has_value() && !assassin_fired_ &&
        (p.kind == net::MsgKind::kActionDone ||
         p.kind == net::MsgKind::kPaxosVote)) {
      // The committee has started exiting: take out the coordinator. The
      // victim is chosen at crash time — the lowest live node hosts the
      // lowest live member, i.e. whoever leads the exit at that moment.
      assassin_fired_ = true;
      world_.simulator().schedule_at(
          world_.simulator().now() + *assassin_delay_, [this] {
            net::Network& network = world_.network();
            for (std::uint32_t n = 0; n < world_.node_count(); ++n) {
              if (network.node_up(NodeId(n))) {
                world_.crash(NodeId(n));
                return;
              }
            }
          });
    }
  });
}

}  // namespace caa::fault
