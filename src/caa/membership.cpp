#include "caa/membership.h"

#include "exit/exit_protocol.h"

namespace caa::action {

std::set<ObjectId>& Membership::contact(const InstanceInfo& info) {
  auto [it, fresh] = scopes_.try_emplace(info.instance, Scope{&info, {}});
  std::set<ObjectId>& excluded = it->second.excluded;
  if (fresh) {
    for (ObjectId peer : down_) {
      if (info.is_member(peer)) excluded.insert(peer);
    }
  }
  return excluded;
}

Membership::Effects Membership::detected(ObjectId peer) {
  readmitted_.erase(peer);
  Effects effects;
  effects.newly_down = down_.insert(peer).second;
  if (!effects.newly_down) return effects;
  for (auto& [scope, s] : scopes_) strike(peer, scope, s, effects);
  return effects;
}

Membership::Effects Membership::reported(ObjectId peer,
                                         ActionInstanceId scope) {
  if (!readmitted_.contains(peer)) return detected(peer);
  Effects effects;
  if (const auto it = scopes_.find(scope); it != scopes_.end()) {
    strike(peer, scope, it->second, effects);
  }
  return effects;
}

void Membership::restarted(ObjectId peer) {
  if (down_.erase(peer) > 0) readmitted_.insert(peer);
}

void Membership::strike(ObjectId peer, ActionInstanceId scope, Scope& s,
                        Effects& effects) {
  if (!s.info->is_member(peer) || s.excluded.contains(peer)) return;
  effects.lost.push_back(Loss{scope, exit::live_leader(*s.info, s.excluded)});
  s.excluded.insert(peer);
}

}  // namespace caa::action
