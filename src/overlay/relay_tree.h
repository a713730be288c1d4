// Deterministic fanout-k relay tree over a committee.
//
// Shape: sort the live members (the §4.1 total order all participants
// already share), lay them out as an implicit k-ary heap — children of
// position i are k·i+1 .. k·i+k — and root the tree at the lowest live
// member, which is exactly the exit-barrier leader every participant
// already tracks. The tree is a pure function of (member list, excluded
// set, fanout): every member computes the same one locally from shared
// state, with no tree-construction protocol and nothing extra to agree on.
// Self-healing is recomputation — excluding a crashed member re-packs the
// live list and every survivor lands on the same repaired tree (rippled's
// squelched relay mesh converges the same way, by deterministic re-selection
// rather than repair messages).
#pragma once

#include <cstdint>
#include <vector>

#include "util/ids.h"

namespace caa::overlay {

class RelayTree {
 public:
  RelayTree() = default;
  /// `members` must be sorted and duplicate-free (InstanceInfo order).
  RelayTree(const std::vector<ObjectId>& members, std::uint32_t fanout);

  /// Removes `member` from the live layout (no-op when it is not live).
  /// Exclusion only grows, so excluding members one at a time gives the
  /// same tree as building one over the survivors.
  void exclude(ObjectId member);

  [[nodiscard]] bool contains(ObjectId member) const;
  [[nodiscard]] std::size_t live_count() const { return live_.size(); }
  [[nodiscard]] std::uint32_t fanout() const { return fanout_; }
  [[nodiscard]] ObjectId root() const;

  /// Tree neighbors (parent + children) of a live member.
  [[nodiscard]] std::vector<ObjectId> neighbors_of(ObjectId member) const;

  /// The neighbor to forward to next on the unique tree path from `self`
  /// towards `target`. Both must be live and distinct.
  [[nodiscard]] ObjectId next_hop(ObjectId self, ObjectId target) const;

  /// Hop distance from the root to `member` (root = 0).
  [[nodiscard]] std::uint32_t depth_of(ObjectId member) const;

  /// FNV-1a digest of the live layout (members, order, fanout): two
  /// replicas agree on the tree iff their fingerprints match.
  [[nodiscard]] std::uint64_t fingerprint() const;

 private:
  [[nodiscard]] std::size_t position_of(ObjectId member) const;

  std::vector<ObjectId> live_;  // sorted live members; index = heap position
  std::uint32_t fanout_ = 8;
};

}  // namespace caa::overlay
