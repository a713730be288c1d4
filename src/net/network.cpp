#include "net/network.h"

#include "util/check.h"

namespace caa::net {
namespace {

CounterId bytes_sent_id() {
  static const CounterId id = CounterId::of("net.bytes_sent");
  return id;
}

}  // namespace

Network::Network(sim::Simulator& simulator, std::uint64_t seed)
    : simulator_(simulator),
      seed_(seed),
      delay_hist_(simulator.obs().metrics().histogram("net.delivery_delay")),
      bytes_hist_(simulator.obs().metrics().histogram("net.packet_bytes")) {}

Network::NodeState* Network::node_state(NodeId node) {
  if (!node.valid() || node.value() >= nodes_.size()) return nullptr;
  NodeState& state = nodes_[node.value()];
  return state.registered ? &state : nullptr;
}

const Network::NodeState* Network::node_state(NodeId node) const {
  if (!node.valid() || node.value() >= nodes_.size()) return nullptr;
  const NodeState& state = nodes_[node.value()];
  return state.registered ? &state : nullptr;
}

void Network::add_node(NodeId node) {
  CAA_CHECK_MSG(node.valid(), "invalid node id");
  if (node.value() >= nodes_.size()) nodes_.resize(node.value() + 1);
  NodeState& state = nodes_[node.value()];
  CAA_CHECK_MSG(!state.registered, "node already registered");
  state.registered = true;
}

void Network::set_endpoint(NodeId node, Handler handler) {
  NodeState* state = node_state(node);
  CAA_CHECK_MSG(state != nullptr, "set_endpoint: unknown node");
  state->handler = std::move(handler);
}

void Network::set_link(NodeId src, NodeId dst, LinkParams params) {
  channel(src, dst).params = params;
}

void Network::set_node_up(NodeId node, bool up) {
  NodeState* state = node_state(node);
  CAA_CHECK_MSG(state != nullptr, "set_node_up: unknown node");
  const bool was_up = state->up;
  state->up = up;
  if (was_up != up && node_hook_) node_hook_(node, up);
}

bool Network::node_up(NodeId node) const {
  const NodeState* state = node_state(node);
  CAA_CHECK_MSG(state != nullptr, "node_up: unknown node");
  return state->up;
}

void Network::set_partitioned(NodeId a, NodeId b, bool partitioned) {
  channel(a, b).partitioned = partitioned;
  channel(b, a).partitioned = partitioned;
}

void Network::set_drop_window(NodeId src, NodeId dst, sim::Time until,
                              std::uint32_t permille) {
  ChannelState& ch = channel(src, dst);
  ch.drop_until = until;
  ch.drop_permille = permille > 1000 ? 1000 : permille;
}

void Network::set_latency_window(NodeId src, NodeId dst, sim::Time until,
                                 sim::Time extra) {
  ChannelState& ch = channel(src, dst);
  ch.latency_until = until;
  ch.latency_extra = extra;
}

ChannelState& Network::channel(NodeId src, NodeId dst) {
  const std::size_t s = src.value();
  const std::size_t d = dst.value();
  if (s >= channels_.size()) {
    channels_.resize(s + 1);
    channels_init_.resize(s + 1);
  }
  std::vector<ChannelState>& row = channels_[s];
  std::vector<bool>& init = channels_init_[s];
  if (d >= row.size()) {
    // Plain d+1 growth: capacity still doubles under the hood, and sparse
    // traffic patterns (a flat action's ACKs all target one raiser) only pay
    // for the destinations a row actually reaches — eagerly sizing rows to
    // the node count would construct N states per source up front.
    row.resize(d + 1);
    init.resize(d + 1, false);
  }
  ChannelState& state = row[d];
  if (!init[d]) [[unlikely]] {
    init[d] = true;
    state.params = default_params_;
    // Seed deterministically from the pair so behaviour does not depend on
    // channel creation order.
    const std::uint64_t mix =
        seed_ ^ (static_cast<std::uint64_t>(src.value()) << 32) ^
        (static_cast<std::uint64_t>(dst.value()) + 0x9e3779b97f4a7c15ULL);
    state.rng = Rng(mix);
  }
  return state;
}

void Network::count(CounterId id, std::int64_t bytes) {
  simulator_.counters().add(id);
  if (bytes >= 0) simulator_.counters().add(bytes_sent_id(), bytes);
}

void Network::send(Packet packet) {
  const NodeState* src = node_state(packet.src.node);
  CAA_CHECK_MSG(src != nullptr, "send: unknown src node");
  CAA_CHECK_MSG(node_state(packet.dst.node) != nullptr,
                "send: unknown dst node");
  if (send_tap_) send_tap_(packet);
  const KindCounters& kc = kind_counters(packet.kind);
  count(kc.sent, static_cast<std::int64_t>(packet.size_on_wire()));
  obs::FlightRecorder& recorder = simulator_.obs().recorder();
  if (recorder.enabled()) {
    // The send's cause is whatever is executing right now (typically the
    // delivery that triggered it); the packet carries the send record's id
    // so the eventual delivery can name it as parent.
    packet.cause = recorder.record_send(
        static_cast<std::uint16_t>(packet.kind), packet.src.node.value(),
        packet.dst.node.value());
  }

  if (!src->up) {
    count(kc.dropped);
    recorder.record_drop(static_cast<std::uint16_t>(packet.kind),
                         packet.src.node.value(), packet.cause);
    BytesPool::local().recycle(std::move(packet.payload));
    return;  // a crashed node cannot send
  }

  if (managed_) {
    // Park for the external scheduler instead of sampling a delivery time.
    // A destination that is already down drops now (counted) — the explorer
    // eagerly drops in-flight packets to a crash victim, so nothing
    // addressed to a down node may linger in the buffer.
    if (!node_state(packet.dst.node)->up) {
      count(kc.dropped);
      recorder.record_drop(static_cast<std::uint16_t>(packet.kind),
                           packet.dst.node.value(), packet.cause);
      BytesPool::local().recycle(std::move(packet.payload));
      return;
    }
    parked_.push_back(
        Parked{next_managed_id_++, simulator_.now(), std::move(packet)});
    simulator_.obs().health().add(obs::Gauge::kNetInFlight, 1);
    return;
  }

  ChannelState& ch = channel(packet.src.node, packet.dst.node);
  if (ch.partitioned || ch.rng.chance(ch.params.drop_probability) ||
      ch.burst_dropped(simulator_.now())) {
    count(kc.dropped);
    recorder.record_drop(static_cast<std::uint16_t>(packet.kind),
                         packet.src.node.value(), packet.cause);
    BytesPool::local().recycle(std::move(packet.payload));
    return;
  }

  const bool duplicate = ch.rng.chance(ch.params.duplicate_probability);
  const sim::Time at = ch.sample_delivery_time(simulator_.now(),
                                               packet.size_on_wire());
  if (obs::Observability& o = simulator_.obs(); o.enabled()) {
    // The channel knows the delivery time at send; sampling here avoids
    // carrying a send timestamp in every in-flight packet.
    o.metrics().record(delay_hist_, at - simulator_.now());
    o.metrics().record(bytes_hist_,
                       static_cast<std::int64_t>(packet.size_on_wire()));
  }
  if (duplicate) {
    count(kc.duplicated);
    Packet copy = packet;
    copy.payload = BytesPool::local().copy_of(packet.payload);
    const sim::Time at2 = ch.sample_delivery_time(simulator_.now(),
                                                  copy.size_on_wire());
    simulator_.schedule_at(at2, [this, p = std::move(copy)]() mutable {
      deliver(std::move(p));
    });
  }
  simulator_.schedule_at(at, [this, p = std::move(packet)]() mutable {
    deliver(std::move(p));
  });
  simulator_.obs().health().add(obs::Gauge::kNetInFlight, duplicate ? 2 : 1);
}

void Network::managed_in_flight(std::vector<ManagedPacket>& out) const {
  out.clear();
  out.reserve(parked_.size());
  for (const Parked& p : parked_) {
    out.push_back(ManagedPacket{p.id, p.packet.src.node, p.packet.dst.node,
                                p.packet.kind, p.sent_at});
  }
}

bool Network::managed_deliver(std::uint64_t id) {
  for (auto it = parked_.begin(); it != parked_.end(); ++it) {
    if (it->id != id) continue;
    Packet packet = std::move(it->packet);
    parked_.erase(it);
    deliver(std::move(packet));  // does the in-flight gauge -1 + accounting
    return true;
  }
  return false;
}

bool Network::managed_drop(std::uint64_t id) {
  for (auto it = parked_.begin(); it != parked_.end(); ++it) {
    if (it->id != id) continue;
    simulator_.obs().health().add(obs::Gauge::kNetInFlight, -1);
    count(kind_counters(it->packet.kind).dropped);
    simulator_.obs().recorder().record_drop(
        static_cast<std::uint16_t>(it->packet.kind),
        it->packet.src.node.value(), it->packet.cause);
    BytesPool::local().recycle(std::move(it->packet.payload));
    parked_.erase(it);
    return true;
  }
  return false;
}

void Network::deliver(Packet&& packet) {
  NodeState* dst = node_state(packet.dst.node);
  CAA_CHECK(dst != nullptr);
  simulator_.obs().health().add(obs::Gauge::kNetInFlight, -1);
  const KindCounters& kc = kind_counters(packet.kind);
  obs::FlightRecorder& recorder = simulator_.obs().recorder();
  if (!dst->up) {
    count(kc.dropped);
    recorder.record_drop(static_cast<std::uint16_t>(packet.kind),
                         packet.dst.node.value(), packet.cause);
    BytesPool::local().recycle(std::move(packet.payload));
    return;  // destination crashed while the packet was in flight
  }
  CAA_CHECK_MSG(static_cast<bool>(dst->handler),
                "deliver: node has no endpoint");
  count(kc.delivered);
  ++delivered_total_;
  // Everything the handler does — records it pushes, packets it sends,
  // events it schedules — descends from this delivery in the causal DAG.
  std::uint64_t saved_cause = 0;
  const bool recording = recorder.enabled();
  if (recording) {
    const std::uint64_t delivery = recorder.record_delivery(
        static_cast<std::uint16_t>(packet.kind), packet.dst.node.value(),
        packet.src.node.value(), packet.cause);
    saved_cause = recorder.current_cause();
    recorder.set_current_cause(delivery);
  }
  dst->handler(std::move(packet));
  if (recording) recorder.set_current_cause(saved_cause);
  // Whatever payload storage the handler did not move out of the packet goes
  // back to the pool; a handler that kept the bytes leaves an empty husk
  // here, which recycle() ignores. This closes the send->deliver loop at
  // zero heap allocations per packet in steady state.
  BytesPool::local().recycle(std::move(packet.payload));
}

}  // namespace caa::net
