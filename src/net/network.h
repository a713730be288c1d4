// The simulated network: nodes, FIFO channels, fault injection, accounting.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "net/channel.h"
#include "net/message.h"
#include "sim/simulator.h"

namespace caa::net {

/// Moves packets between node endpoints over per-pair FIFO channels with
/// configurable latency and faults. All sends are asynchronous: the packet
/// is delivered (or dropped) by a simulator event.
///
/// Accounting: counters in the simulator are updated per kind —
///   net.sent.<Kind>, net.delivered.<Kind>, net.dropped.<Kind>,
///   net.duplicated.<Kind>, net.bytes_sent.
class Network {
 public:
  using Handler = std::function<void(Packet&&)>;

  explicit Network(sim::Simulator& simulator, std::uint64_t seed = 42);

  /// Registers a node. Nodes start up.
  void add_node(NodeId node);

  /// Installs the packet handler for a node (its transport endpoint).
  void set_endpoint(NodeId node, Handler handler);

  /// Default parameters for channels created lazily.
  void set_default_link(LinkParams params) { default_params_ = params; }

  /// Overrides parameters of one directed channel.
  void set_link(NodeId src, NodeId dst, LinkParams params);

  /// Crashes / restarts a node. Packets to or from a down node are dropped.
  /// On a transition the node hook (if any) fires — the fault engine and the
  /// World use the up-transition as the restart signal.
  void set_node_up(NodeId node, bool up);
  [[nodiscard]] bool node_up(NodeId node) const;

  /// Cuts / heals both directions between two nodes.
  void set_partitioned(NodeId a, NodeId b, bool partitioned);

  // ---- Fault-engine hooks (src/fault/) --------------------------------

  /// Observer of node up/down *transitions* (not redundant set_node_up
  /// calls). The World installs one to drive participant restart handling;
  /// it runs after the node state has changed.
  using NodeHook = std::function<void(NodeId, bool up)>;
  void set_node_hook(NodeHook hook) { node_hook_ = std::move(hook); }

  /// Tap invoked for every packet entering send(), before any fault
  /// decision. Fault plans use it for triggered events ("crash the sender
  /// of the first Exception message"); the tap must not re-enter send().
  using SendTap = std::function<void(const Packet&)>;
  void set_send_tap(SendTap tap) { send_tap_ = std::move(tap); }

  /// Windowed drop burst on the directed channel src->dst: until virtual
  /// time `until`, packets are dropped with an additional `permille`/1000
  /// probability (on top of the channel's static drop_probability).
  void set_drop_window(NodeId src, NodeId dst, sim::Time until,
                       std::uint32_t permille);

  /// Windowed latency spike on the directed channel src->dst: packets sent
  /// before `until` pay `extra` additional ticks of delivery latency.
  void set_latency_window(NodeId src, NodeId dst, sim::Time until,
                          sim::Time extra);

  /// Sends a packet. The source node must be up; delivery is scheduled per
  /// the channel's latency model unless a fault drops the packet.
  void send(Packet packet);

  // ---- Managed delivery (src/explore/) --------------------------------
  //
  // In managed mode the network stops sampling latency, faults and
  // duplicates: send() parks each packet in an in-flight buffer and an
  // external scheduler (the DPOR explorer) decides which parked packet is
  // delivered — or, for crashed senders, dropped — next. Send-side
  // accounting, the send tap and flight-recorder records are unchanged, so
  // the oracles and causal traces read identically to the sampled mode.
  // Per-channel FIFO is the scheduler's obligation: it must only deliver a
  // channel's lowest-id parked packet.

  /// Descriptor of one parked packet — everything the scheduler needs to
  /// compute enabled transitions without touching payload bytes.
  struct ManagedPacket {
    std::uint64_t id = 0;  // birth order; deterministic across replays
    NodeId src;
    NodeId dst;
    MsgKind kind = MsgKind::kAppData;
    sim::Time sent_at = 0;
  };

  void set_managed(bool on) { managed_ = on; }
  [[nodiscard]] bool managed() const { return managed_; }

  /// Overwrites `out` with a descriptor per parked packet, in birth order.
  void managed_in_flight(std::vector<ManagedPacket>& out) const;
  [[nodiscard]] std::size_t managed_in_flight_count() const {
    return parked_.size();
  }

  /// Delivers the parked packet `id` now (invokes the destination handler
  /// synchronously). Returns false if no such packet is parked.
  bool managed_deliver(std::uint64_t id);

  /// Drops the parked packet `id`, counted like a fault-engine drop.
  /// Returns false if no such packet is parked.
  bool managed_drop(std::uint64_t id);

  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }

  /// Total packets delivered since construction (all kinds).
  [[nodiscard]] std::int64_t delivered_total() const {
    return delivered_total_;
  }

 private:
  struct NodeState {
    Handler handler;
    bool up = true;
    bool registered = false;
  };

  ChannelState& channel(NodeId src, NodeId dst);
  /// nullptr when the node was never add_node()ed.
  [[nodiscard]] NodeState* node_state(NodeId node);
  [[nodiscard]] const NodeState* node_state(NodeId node) const;
  void deliver(Packet&& packet);
  void count(CounterId id, std::int64_t bytes = -1);

  sim::Simulator& simulator_;
  std::uint64_t seed_;
  NodeHook node_hook_;
  SendTap send_tap_;
  // Interned once at construction; recorded only while observability is on.
  obs::HistogramId delay_hist_;
  obs::HistogramId bytes_hist_;
  LinkParams default_params_ = LinkParams::lan();
  // Direct-indexed by node id (Worlds assign dense sequential ids); every
  // packet probes src and dst state, so this was three hash lookups per
  // message as an unordered_map.
  std::vector<NodeState> nodes_;
  // Channel state, direct-indexed [src][dst] by node id. Resolution rounds
  // touch all ordered pairs, so the former std::map<pair, ChannelState>
  // paid an O(log N^2) pointer-chasing lookup on every packet — at N=1024
  // that lookup alone was ~37% of simulator wall time. Rows grow lazily;
  // the parallel bitset distinguishes "never used" entries so lazily
  // created channels still get their deterministic per-pair RNG seed.
  std::vector<std::vector<ChannelState>> channels_;
  std::vector<std::vector<bool>> channels_init_;
  std::int64_t delivered_total_ = 0;
  // Managed-mode in-flight buffer (empty and untouched in sampled mode).
  struct Parked {
    std::uint64_t id;
    sim::Time sent_at;
    Packet packet;
  };
  bool managed_ = false;
  std::uint64_t next_managed_id_ = 0;
  std::deque<Parked> parked_;
};

}  // namespace caa::net
