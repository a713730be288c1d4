#include "rt/runtime.h"

#include "util/check.h"

namespace caa::rt {
namespace {
const caa::CounterId kDroppedNoObject = caa::CounterId::of("rt.dropped_no_object");
}  // namespace


Runtime::Runtime(sim::Simulator& simulator, Directory& directory, NodeId node,
                 std::unique_ptr<net::Transport> transport)
    : simulator_(simulator),
      directory_(directory),
      node_(node),
      transport_(std::move(transport)) {
  CAA_CHECK_MSG(transport_ != nullptr, "runtime needs a transport");
  transport_->set_handler([this](net::Packet&& p) { dispatch(std::move(p)); });
}

ManagedObject* Runtime::local(ObjectId id) const {
  for (const auto& [local_id, object] : locals_) {
    if (local_id == id) return object;
  }
  return nullptr;
}

ObjectId Runtime::attach(ManagedObject& object, std::string name) {
  CAA_CHECK_MSG(!object.attached(), "object already attached");
  const ObjectId id = directory_.register_object(std::move(name), node_);
  object.runtime_ = this;
  object.id_ = id;
  locals_.emplace_back(id, &object);
  return id;
}

void Runtime::detach(ObjectId id) {
  for (auto it = locals_.begin(); it != locals_.end(); ++it) {
    if (it->first == id) {
      it->second->runtime_ = nullptr;
      locals_.erase(it);
      return;
    }
  }
  CAA_CHECK_MSG(false, "detach: not a local object");
}

void Runtime::send(ObjectId from, ObjectId to, net::MsgKind kind,
                   net::Bytes payload) {
  CAA_CHECK_MSG(local(from) != nullptr, "send: sender not local");
  net::Packet packet;
  packet.src = net::Address{node_, from};
  packet.dst = directory_.address_of(to);
  packet.kind = kind;
  packet.payload = std::move(payload);
  transport_->send(std::move(packet));
}

void Runtime::dispatch(net::Packet&& packet) {
  CAA_CHECK_MSG(packet.dst.node == node_, "dispatch: foreign packet");
  ManagedObject* object = local(packet.dst.object);
  if (object == nullptr) {
    // The object was detached (or never existed here): count and drop.
    simulator_.counters().add(kDroppedNoObject);
    return;
  }
  object->on_message(packet.src.object, packet.kind, packet.payload);
}

}  // namespace caa::rt
