// Link parameterization: latency and fault models for point-to-point
// channels.
//
// §2 of the paper: "the time of message passing is not negligible" and both
// transient network errors and node crashes are in the fault model. Channels
// therefore have configurable base latency, jitter, per-byte cost, and
// probabilistic drop/duplicate faults, all driven by deterministic RNG.
#pragma once

#include <cstdint>

#include "sim/event_queue.h"
#include "util/rng.h"

namespace caa::net {

struct LinkParams {
  sim::Time latency_base = 100;    // ticks
  sim::Time latency_jitter = 0;    // uniform [0, jitter]
  sim::Time per_byte = 0;          // additional ticks per payload byte
  double drop_probability = 0.0;   // transient loss
  double duplicate_probability = 0.0;

  /// A conventional LAN-ish profile used by most tests and benches.
  static LinkParams lan() { return LinkParams{100, 20, 0, 0.0, 0.0}; }
  /// A zero-jitter, loss-free profile for message-count benches: makes
  /// traces fully deterministic irrespective of seeds.
  static LinkParams ideal() { return LinkParams{100, 0, 0, 0.0, 0.0}; }
  /// A lossy profile for exercising the reliable transport (E12).
  static LinkParams lossy(double p) { return LinkParams{100, 20, 0, p, 0.0}; }
};

/// How one directed channel behaves: its LinkParams, the partition flag, and
/// *windowed* fault overrides (src/fault/ chaos engine): until `drop_until`,
/// packets are additionally dropped with `drop_permille`/1000 probability;
/// until `latency_until`, every delivery pays `latency_extra` extra ticks.
/// The drop boost is an integer permille so fault plans serialize and
/// re-parse without floating-point round-trip drift.
struct LinkState {
  LinkParams params;
  bool partitioned = false;
  sim::Time drop_until = 0;
  std::uint32_t drop_permille = 0;
  sim::Time latency_until = 0;
  sim::Time latency_extra = 0;
};

/// What a packet advances on its ordered pair: the pair's RNG and the FIFO
/// clamp (a delivery is never scheduled earlier than the previous one).
/// `link` names the pair's LinkState; 0 is the shared defaults.
struct ChannelState {
  static constexpr std::uint32_t kFree = ~std::uint32_t{0};
  Rng rng{0};
  sim::Time last_delivery = 0;
  std::uint32_t dst = kFree;  // destination node id; kFree marks a free slot
  std::uint32_t link = 0;

  /// True when the drop-burst window additionally claims this packet.
  bool burst_dropped(const LinkState& ls, sim::Time now) {
    return now < ls.drop_until && ls.drop_permille > 0 &&
           rng.chance(static_cast<double>(ls.drop_permille) / 1000.0);
  }

  /// Samples the delivery time for a packet of `bytes` sent at `now`,
  /// advancing FIFO state.
  sim::Time sample_delivery_time(const LinkState& ls, sim::Time now,
                                 std::size_t bytes) {
    sim::Time lat = ls.params.latency_base;
    if (ls.params.latency_jitter > 0) {
      lat += static_cast<sim::Time>(rng.below(
          static_cast<std::uint64_t>(ls.params.latency_jitter) + 1));
    }
    lat += ls.params.per_byte * static_cast<sim::Time>(bytes);
    if (now < ls.latency_until) lat += ls.latency_extra;  // latency spike
    sim::Time at = now + lat;
    if (at < last_delivery) at = last_delivery;  // FIFO clamp
    last_delivery = at;
    return at;
  }
};

}  // namespace caa::net
