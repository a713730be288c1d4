// Deterministic fanout-k relay tree over a committee.
//
// Shape: sort the live members (the §4.1 total order all participants
// already share), lay them out as an implicit k-ary heap — children of
// position i are k·i+1 .. k·i+k — and root the tree at the lowest live
// member, which is exactly the exit-barrier leader every participant
// already tracks. The tree is a view of (member list, exclusion set,
// fanout), read by reference: every member computes the same one locally
// from shared state, with no tree-construction protocol. Self-healing is
// recording the crash in the exclusion set — every survivor lands on the
// same repaired tree (rippled's squelched relay mesh converges the same
// way, by deterministic re-selection rather than repair messages).
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "util/ids.h"

namespace caa::overlay {

class RelayTree {
 public:
  /// `members` is an InstanceInfo's list (sorted and duplicate-free, not
  /// re-checked); `exclusions` may hold members only. Both must outlive
  /// the tree.
  RelayTree(const std::vector<ObjectId>& members,
            const std::set<ObjectId>& exclusions, std::uint32_t fanout);

  [[nodiscard]] const std::vector<ObjectId>& members() const {
    return members_;
  }
  [[nodiscard]] bool contains(ObjectId member) const;
  [[nodiscard]] std::size_t live_count() const {
    return members_.size() - exclusions_.size();
  }
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
  /// Heap position of a live member: its rank minus the excluded members
  /// ranked below it. O(|exclusions|).
  [[nodiscard]] std::size_t position_of(ObjectId member) const;
  /// The live member at heap position `pos`. O(|exclusions|).
  [[nodiscard]] ObjectId live_at(std::size_t pos) const;

  const std::vector<ObjectId>& members_;
  const std::set<ObjectId>& exclusions_;
  std::uint32_t fanout_;
};

}  // namespace caa::overlay
