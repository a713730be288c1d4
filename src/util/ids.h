// Strongly typed identifiers used across the library.
//
// Every entity in the system (nodes, objects, actions, action *instances*,
// transactions, exceptions) is referred to by a small integer id wrapped in a
// distinct type so that ids of different kinds cannot be mixed up silently.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>

namespace caa {

/// CRTP-free strong id: a thin wrapper over an integer with a phantom Tag.
/// Ids are totally ordered; the resolution algorithm relies on the order of
/// participant ids to deterministically pick the resolving object (§4.1:
/// "all objects are ordered ... the chosen object will be responsible for
/// exception resolution").
template <typename Tag, typename Rep = std::uint32_t>
class StrongId {
 public:
  using rep_type = Rep;

  constexpr StrongId() = default;
  constexpr explicit StrongId(Rep value) : value_(value) {}

  [[nodiscard]] constexpr Rep value() const { return value_; }
  [[nodiscard]] constexpr bool valid() const { return value_ != kInvalid; }

  static constexpr StrongId invalid() { return StrongId(); }

  friend constexpr bool operator==(StrongId, StrongId) = default;
  friend constexpr auto operator<=>(StrongId, StrongId) = default;

  friend std::ostream& operator<<(std::ostream& os, StrongId id) {
    if (!id.valid()) return os << "<invalid>";
    return os << id.value();
  }

 private:
  static constexpr Rep kInvalid = std::numeric_limits<Rep>::max();
  Rep value_ = kInvalid;
};

struct NodeIdTag {};
struct ObjectIdTag {};
struct ActionIdTag {};
struct ActionInstanceIdTag {};
struct TxnIdTag {};
struct ExceptionIdTag {};
struct EventIdTag {};

/// Identifies a physical node (one address space) of the simulated network.
using NodeId = StrongId<NodeIdTag>;
/// Identifies a distributed object, unique across the whole system.
/// Object ids double as the participant ordering of §4.1.
using ObjectId = StrongId<ObjectIdTag>;
/// Identifies a *declared* CA action (its static declaration).
using ActionId = StrongId<ActionIdTag>;
/// Identifies one runtime *instance* of a CA action. Nested actions and
/// retries create fresh instances; resolution messages are scoped to an
/// instance so that messages of aborted instances can be discarded (§4.2
/// "clean up messages related to nested actions").
using ActionInstanceId = StrongId<ActionInstanceIdTag, std::uint64_t>;
/// Identifies a transaction (top-level or nested).
using TxnId = StrongId<TxnIdTag, std::uint64_t>;
/// Identifies an exception class interned in an ExceptionSpace.
using ExceptionId = StrongId<ExceptionIdTag>;
/// Identifies a scheduled simulator event (for cancellation).
using EventId = StrongId<EventIdTag, std::uint64_t>;

}  // namespace caa

namespace std {
template <typename Tag, typename Rep>
struct hash<caa::StrongId<Tag, Rep>> {
  size_t operator()(const caa::StrongId<Tag, Rep>& id) const noexcept {
    return std::hash<Rep>{}(id.value());
  }
};
}  // namespace std
