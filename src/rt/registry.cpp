#include "rt/registry.h"

#include "util/check.h"

namespace caa::rt {

ObjectId Directory::register_object(std::string name, NodeId node) {
  const ObjectId id(static_cast<std::uint32_t>(entries_.size()));
  const bool fresh = index_.try_emplace(name, id).second;
  CAA_CHECK_MSG(fresh, "duplicate object name");
  entries_.push_back(Entry{std::move(name), node});
  return id;
}

net::Address Directory::address_of(ObjectId object) const {
  CAA_CHECK_MSG(object.value() < entries_.size(), "unknown object id");
  return net::Address{entries_[object.value()].node, object};
}

const std::string& Directory::name_of(ObjectId object) const {
  CAA_CHECK_MSG(object.value() < entries_.size(), "unknown object id");
  return entries_[object.value()].name;
}

ObjectId Directory::find(std::string_view name) const {
  const auto it = index_.find(std::string(name));
  return it == index_.end() ? ObjectId::invalid() : it->second;
}

}  // namespace caa::rt
