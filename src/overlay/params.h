// Overlay dissemination knobs.
//
// The paper's resolution algorithm (§4.2) and the exit barrier multicast
// all-to-all, which is O(N²) messages per round and caps committee size.
// The overlay layer (relay_tree.h, disseminator.h) replaces the physical
// fan-out with a deterministic fanout-k spanning tree over the committee;
// these parameters decide per action instance whether that happens and with
// what shape. They live in their own header so caa/ can stamp them onto an
// InstanceInfo without pulling in the overlay machinery.
#pragma once

#include <cstddef>
#include <cstdint>

namespace caa::overlay {

struct OverlayParams {
  /// kFlat: always direct all-to-all (the paper's literal reading).
  /// kTree: always relay over the spanning tree.
  /// kAuto: tree once the committee reaches kTreeThreshold members —
  ///        small committees keep the flat protocol (fewer hops, identical
  ///        wire behaviour with every earlier PR).
  enum class Mode : std::uint8_t { kAuto = 0, kFlat = 1, kTree = 2 };

  /// kAuto switches to the tree at this member count.
  static constexpr std::uint32_t kTreeThreshold = 128;

  /// Per-scope relay-cache budget (items) for crash healing. Re-flooding
  /// after a relay dies needs the items seen so far; beyond this many the
  /// cache stops growing (counted under overlay.cache_overflow) and healing
  /// becomes best-effort. Chaos worlds never get near it.
  static constexpr std::uint32_t kHealCacheLimit = 65536;

  Mode mode = Mode::kAuto;

  /// Relay fan-out k: each tree position has up to k children. 8 keeps a
  /// 4096-member committee at depth 4.
  std::uint32_t fanout = 8;

  /// Decision for a committee of `members` objects. Trees need at least
  /// three members to differ from direct sends.
  [[nodiscard]] bool tree_for(std::size_t members) const {
    switch (mode) {
      case Mode::kFlat:
        return false;
      case Mode::kTree:
        return members >= 2;
      case Mode::kAuto:
        return members >= kTreeThreshold;
    }
    return false;
  }
};

}  // namespace caa::overlay
