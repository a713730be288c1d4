#include "overlay/relay_tree.h"

#include <algorithm>

#include "util/check.h"
#include "util/hash.h"
#include "util/members.h"

namespace caa::overlay {

RelayTree::RelayTree(const std::vector<ObjectId>& members,
                     std::uint32_t fanout)
    : live_(members), fanout_(fanout) {
  CAA_CHECK_MSG(fanout_ >= 1, "RelayTree: fanout must be >= 1");
  CAA_CHECK_MSG(std::is_sorted(live_.begin(), live_.end()),
                "RelayTree: members must be sorted");
}

void RelayTree::exclude(ObjectId member) {
  if (const auto pos = rank_in(live_, member); pos.has_value()) {
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(*pos));
  }
}

bool RelayTree::contains(ObjectId member) const {
  return rank_in(live_, member).has_value();
}

ObjectId RelayTree::root() const {
  CAA_CHECK_MSG(!live_.empty(), "RelayTree: no live members");
  return live_.front();
}

std::size_t RelayTree::position_of(ObjectId member) const {
  const std::optional<std::size_t> pos = rank_in(live_, member);
  CAA_CHECK_MSG(pos.has_value(), "RelayTree: member not live");
  return *pos;
}

std::vector<ObjectId> RelayTree::neighbors_of(ObjectId member) const {
  const std::size_t pos = position_of(member);
  std::vector<ObjectId> out;
  if (pos != 0) out.push_back(live_[(pos - 1) / fanout_]);
  const std::size_t first_child = pos * fanout_ + 1;
  for (std::size_t c = first_child;
       c < first_child + fanout_ && c < live_.size(); ++c) {
    out.push_back(live_[c]);
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
    if (parent == self_pos) return live_[cur];
    cur = parent;
  }
  CAA_CHECK_MSG(self_pos != 0, "RelayTree: root is an ancestor of everyone");
  return live_[(self_pos - 1) / fanout_];
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
  for (ObjectId m : live_) h = fnv1a64_mix(h, m.value());
  return h;
}

}  // namespace caa::overlay
