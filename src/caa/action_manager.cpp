#include "caa/action_manager.h"

#include <algorithm>

#include "util/check.h"

namespace caa::action {

const ActionDecl& ActionManager::declare(std::string name,
                                         ex::ExceptionTree tree) {
  CAA_CHECK_MSG(find(name) == nullptr, "duplicate action name");
  decls_.push_back(std::make_unique<ActionDecl>(
      ActionId(next_action_++), std::move(name), std::move(tree)));
  return *decls_.back();
}

const ActionDecl* ActionManager::find(std::string_view name) const {
  for (const auto& d : decls_) {
    if (d->name() == name) return d.get();
  }
  return nullptr;
}

const InstanceInfo& ActionManager::create_instance(const ActionDecl& decl,
                                                   std::vector<ObjectId>
                                                       members,
                                                   ActionInstanceId parent) {
  CAA_CHECK_MSG(!members.empty(), "instance needs members");
  std::sort(members.begin(), members.end());
  CAA_CHECK_MSG(std::adjacent_find(members.begin(), members.end()) ==
                    members.end(),
                "duplicate instance member");
  if (parent.valid()) {
    const InstanceInfo& p = info(parent);
    for (ObjectId m : members) {
      CAA_CHECK_MSG(p.is_member(m),
                    "nested action member not in containing action (§3.1)");
    }
  }
  auto inst = std::make_unique<InstanceInfo>();
  inst->instance = ActionInstanceId(next_instance_++);
  inst->decl = &decl;
  inst->members = std::move(members);
  inst->parent = parent;
  inst->overlay = overlay_defaults_;
  inst->use_tree = overlay_defaults_.tree_for(inst->members.size());
  inst->exit = exit_default_;
  inst->resolve_avoidance = resolve_avoidance_;
  const InstanceInfo& ref = *inst;
  instances_.emplace(inst->instance, std::move(inst));
  return ref;
}

const InstanceInfo& ActionManager::info(ActionInstanceId instance) const {
  auto it = instances_.find(instance);
  CAA_CHECK_MSG(it != instances_.end(), "unknown action instance");
  return *it->second;
}

}  // namespace caa::action
