#include "overlay/relay_tree.h"

#include <algorithm>
#include <iterator>

#include "util/check.h"
#include "util/hash.h"
#include "util/members.h"

namespace caa::overlay {

RelayTree::RelayTree(const std::vector<ObjectId>& members,
                     const std::set<ObjectId>& exclusions,
                     std::uint32_t fanout)
    : members_(members), exclusions_(exclusions), fanout_(fanout) {
  CAA_CHECK_MSG(fanout_ >= 1, "RelayTree: fanout must be >= 1");
  CAA_CHECK_MSG(std::is_sorted(members_.begin(), members_.end()),
                "RelayTree: members must be sorted");
}

bool RelayTree::contains(ObjectId member) const {
  return rank_in(members_, member).has_value() &&
         !exclusions_.contains(member);
}

ObjectId RelayTree::root() const {
  CAA_CHECK_MSG(live_count() > 0, "RelayTree: no live members");
  return live_at(0);
}

std::size_t RelayTree::position_of(ObjectId member) const {
  const std::optional<std::size_t> rank = rank_in(members_, member);
  CAA_CHECK_MSG(rank.has_value() && !exclusions_.contains(member),
                "RelayTree: member not live");
  return *rank - static_cast<std::size_t>(std::distance(
                     exclusions_.begin(), exclusions_.lower_bound(member)));
}

ObjectId RelayTree::live_at(std::size_t pos) const {
  // Every excluded member at or below the candidate pushes it one rank on.
  std::size_t rank = pos;
  for (ObjectId excluded : exclusions_) {
    if (excluded > members_[rank]) break;
    ++rank;
  }
  return members_[rank];
}

std::vector<ObjectId> RelayTree::neighbors_of(ObjectId member) const {
  const std::size_t pos = position_of(member);
  std::vector<ObjectId> out;
  if (pos != 0) out.push_back(live_at((pos - 1) / fanout_));
  const std::size_t first_child = pos * fanout_ + 1;
  for (std::size_t c = first_child;
       c < first_child + fanout_ && c < live_count(); ++c) {
    out.push_back(live_at(c));
  }
  return out;
}

ObjectId RelayTree::next_hop(ObjectId self, ObjectId target) const {
  CAA_CHECK_MSG(self != target, "RelayTree: next_hop to self");
  const std::size_t self_pos = position_of(self);
  // Walk the target's ancestor chain towards the root; if it passes through
  // `self`, the hop is the chain link just below us (descend into the right
  // subtree), otherwise the path goes through our own parent first.
  std::size_t cur = position_of(target);
  while (cur != 0) {
    const std::size_t parent = (cur - 1) / fanout_;
    if (parent == self_pos) return live_at(cur);
    cur = parent;
  }
  CAA_CHECK_MSG(self_pos != 0, "RelayTree: root is an ancestor of everyone");
  return live_at((self_pos - 1) / fanout_);
}

std::uint32_t RelayTree::depth_of(ObjectId member) const {
  std::size_t pos = position_of(member);
  std::uint32_t depth = 0;
  while (pos != 0) {
    pos = (pos - 1) / fanout_;
    ++depth;
  }
  return depth;
}

std::uint64_t RelayTree::fingerprint() const {
  std::uint64_t h = fnv1a64_mix(kFnv1a64Offset, fanout_);
  for (ObjectId m : members_) {
    if (!exclusions_.contains(m)) h = fnv1a64_mix(h, m.value());
  }
  return h;
}

}  // namespace caa::overlay
