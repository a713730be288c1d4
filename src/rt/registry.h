// Global object directory (name service).
//
// Maps object ids to hosting nodes and human-readable names. In a real
// deployment this is a name service; the simulation gives every node a
// consistent view of it, which the paper implicitly assumes ("each
// participating object knows all other participating objects", §4.1).
#pragma once

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "net/message.h"
#include "util/ids.h"

namespace caa::rt {

class Directory {
 public:
  /// Registers an object on `node` and assigns the next ObjectId.
  /// Ids are assigned in registration order; callers that care about the
  /// §4.1 participant ordering register objects in the intended order.
  ObjectId register_object(std::string name, NodeId node);

  [[nodiscard]] net::Address address_of(ObjectId object) const;
  [[nodiscard]] const std::string& name_of(ObjectId object) const;

  /// Looks a name up; returns ObjectId::invalid() when absent.
  [[nodiscard]] ObjectId find(std::string_view name) const;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string name;
    NodeId node;
  };
  std::vector<Entry> entries_;
  // Name -> id, so the duplicate-name check does not scan every entry.
  std::unordered_map<std::string, ObjectId> index_;
};

}  // namespace caa::rt
