// Rank and membership over a sorted member list. Every action instance has
// one, InstanceInfo::members (the §4.1 order); the resolution engine, the
// overlay, the relay tree and Paxos Commit rank members through this one
// function instead of keeping their own copies and lookups.
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <vector>

#include "util/ids.h"

namespace caa {

/// Position of `member` in `members` (sorted, duplicate-free), or nullopt
/// when it is not in the list. Worlds usually number their objects
/// consecutively, so the common list is contiguous and ranks by subtraction.
[[nodiscard]] inline std::optional<std::size_t> rank_in(
    const std::vector<ObjectId>& members, ObjectId member) {
  if (members.empty()) return std::nullopt;
  const auto first = members.front().value();
  if (members.back().value() - first == members.size() - 1) {
    if (member.value() < first || member.value() - first >= members.size()) {
      return std::nullopt;
    }
    return member.value() - first;
  }
  const auto it = std::lower_bound(members.begin(), members.end(), member);
  if (it == members.end() || *it != member) return std::nullopt;
  return static_cast<std::size_t>(it - members.begin());
}

}  // namespace caa
