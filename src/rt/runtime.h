// Per-node object runtime.
//
// Hosts the objects of one node, owns the node's transport endpoint and
// dispatches inbound packets to local objects. One Runtime == one address
// space in the paper's system model.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "net/reliable_link.h"
#include "rt/managed_object.h"
#include "rt/registry.h"
#include "sim/simulator.h"

namespace caa::rt {

class Runtime {
 public:
  /// Creates the runtime for `node`, wiring `transport` as its endpoint.
  Runtime(sim::Simulator& simulator, Directory& directory, NodeId node,
          std::unique_ptr<net::Transport> transport);

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }
  [[nodiscard]] Directory& directory() { return directory_; }

  /// Registers `object` under `name`; the directory assigns its id.
  /// The caller keeps ownership and must outlive the runtime's use.
  ObjectId attach(ManagedObject& object, std::string name);

  /// Removes a local object (no further dispatch).
  void detach(ObjectId id);

  /// Sends from a local object to any object in the system.
  void send(ObjectId from, ObjectId to, net::MsgKind kind,
            net::Bytes payload);

 private:
  void dispatch(net::Packet&& packet);
  [[nodiscard]] ManagedObject* local(ObjectId id) const;

  sim::Simulator& simulator_;
  Directory& directory_;
  NodeId node_;
  std::unique_ptr<net::Transport> transport_;
  // A node hosts a handful of objects, and every inbound packet resolves
  // its destination here: a linear scan over a small vector beats hashing.
  std::vector<std::pair<ObjectId, ManagedObject*>> locals_;
};

}  // namespace caa::rt
