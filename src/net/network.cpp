#include "net/network.h"

#include "util/check.h"

namespace caa::net {
namespace {

CounterId bytes_sent_id() {
  static const CounterId id = CounterId::of("net.bytes_sent");
  return id;
}

/// The slot holding `dst` in a channel row, or the free slot where it goes.
ChannelState& probe(std::vector<ChannelState>& row, std::uint32_t dst) {
  const std::size_t mask = row.size() - 1;
  std::size_t i = dst & mask;
  while (row[i].dst != dst && row[i].dst != ChannelState::kFree) {
    i = (i + 1) & mask;
  }
  return row[i];
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
  state.channels.resize(8);
}

void Network::set_endpoint(NodeId node, Handler handler) {
  NodeState* state = node_state(node);
  CAA_CHECK_MSG(state != nullptr, "set_endpoint: unknown node");
  state->handler = std::move(handler);
}

void Network::set_default_link(LinkParams params) {
  for (const NodeState& node : nodes_) {
    CAA_CHECK_MSG(node.channel_count == 0, "set_default_link: channels exist");
  }
  links_[0].params = params;
}

void Network::set_link(NodeId src, NodeId dst, LinkParams params) {
  link(src, dst).params = params;
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
  link(a, b).partitioned = partitioned;
  link(b, a).partitioned = partitioned;
}

void Network::set_drop_window(NodeId src, NodeId dst, sim::Time until,
                              std::uint32_t permille) {
  LinkState& ls = link(src, dst);
  ls.drop_until = until;
  ls.drop_permille = permille > 1000 ? 1000 : permille;
}

void Network::set_latency_window(NodeId src, NodeId dst, sim::Time until,
                                 sim::Time extra) {
  LinkState& ls = link(src, dst);
  ls.latency_until = until;
  ls.latency_extra = extra;
}

ChannelState& Network::channel(NodeState& node, NodeId src, NodeId dst) {
  const std::uint32_t d = dst.value();
  ChannelState* ch = &probe(node.channels, d);
  if (ch->dst == d) [[likely]] return *ch;
  if (4 * ++node.channel_count > 3 * node.channels.size()) {
    std::vector<ChannelState> grown(2 * node.channels.size());
    for (const ChannelState& used : node.channels) {
      if (used.dst != ChannelState::kFree) probe(grown, used.dst) = used;
    }
    node.channels.swap(grown);
    ch = &probe(node.channels, d);
  }
  ch->dst = d;
  // Seed deterministically from the pair so behaviour does not depend on
  // channel creation order.
  ch->rng = Rng(seed_ ^ (static_cast<std::uint64_t>(src.value()) << 32) ^
                (static_cast<std::uint64_t>(d) + 0x9e3779b97f4a7c15ULL));
  return *ch;
}

LinkState& Network::link(NodeId src, NodeId dst) {
  NodeState* node = node_state(src);
  CAA_CHECK_MSG(node != nullptr && node_state(dst) != nullptr,
                "link: unknown node");
  ChannelState& ch = channel(*node, src, dst);
  if (ch.link == 0) {
    ch.link = static_cast<std::uint32_t>(links_.size());
    links_.push_back(links_[0]);
  }
  return links_[ch.link];
}

void Network::count(CounterId id, std::int64_t bytes) {
  simulator_.counters().add(id);
  if (bytes >= 0) simulator_.counters().add(bytes_sent_id(), bytes);
}

void Network::send(Packet packet) {
  NodeState* src = node_state(packet.src.node);
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

  ChannelState& ch = channel(*src, packet.src.node, packet.dst.node);
  const LinkState& ls = links_[ch.link];
  if (ls.partitioned || ch.rng.chance(ls.params.drop_probability) ||
      ch.burst_dropped(ls, simulator_.now())) {
    count(kc.dropped);
    recorder.record_drop(static_cast<std::uint16_t>(packet.kind),
                         packet.src.node.value(), packet.cause);
    BytesPool::local().recycle(std::move(packet.payload));
    return;
  }

  const bool duplicate = ch.rng.chance(ls.params.duplicate_probability);
  const sim::Time at = ch.sample_delivery_time(ls, simulator_.now(),
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
    const sim::Time at2 = ch.sample_delivery_time(ls, simulator_.now(),
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
