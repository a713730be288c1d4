// Atomic-object host: a node-resident server of named atomic objects.
//
// Atomic objects (§3) are the externally shared state CA actions operate
// on. Each host serves read/write/add/create operations under strict 2PL
// (LockManager), keeps per-transaction before-images for abort, supports
// nested-transaction merge (commit-child) and participates in two-phase
// commit for top-level transactions.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "rt/managed_object.h"
#include "txn/lock_manager.h"
#include "txn/transaction.h"

namespace caa::txn {

class AtomicObjectHost : public rt::ManagedObject {
 public:
  AtomicObjectHost();

  /// Creates an object outside any transaction (world setup).
  void put_initial(std::string name, std::int64_t value);

  /// Committed (or in-place, under an active transaction) value.
  [[nodiscard]] std::optional<std::int64_t> peek(
      const std::string& name) const;

  /// True if the transaction currently holds any lock here.
  [[nodiscard]] bool has_locks(TxnId txn) const {
    return locks_.held_count(txn) > 0;
  }

  // Oracle introspection (src/fault/): all three must read zero once the
  // world is quiescent, otherwise some transaction leaked state here.
  [[nodiscard]] std::size_t total_locks_held() const {
    return locks_.total_held();
  }
  [[nodiscard]] std::size_t queued_lock_waiters() const {
    return locks_.total_queued();
  }
  [[nodiscard]] std::size_t open_undo_logs() const { return undo_.size(); }

  void on_message(ObjectId from, net::MsgKind kind,
                  const net::Bytes& payload) override;

 private:
  struct UndoEntry {
    std::string object;
    std::optional<std::int64_t> old_value;  // nullopt => object did not exist
  };
  struct Parked {
    ObjectId client;
    TxnOpRequest request;
  };

  void handle_op(ObjectId from, const TxnOpRequest& request);
  void execute_granted(ObjectId from, const TxnOpRequest& request);
  void record_undo(TxnId txn, const std::string& object);
  void undo_and_release(TxnId txn);
  void commit_release(TxnId txn);
  void merge_child(TxnId child, TxnId parent);
  void reply(ObjectId to, std::uint64_t request_id, TxnReplyStatus status,
             std::int64_t value = 0);
  void on_wake(const std::string& name, TxnId txn, LockMode mode);

  LockManager locks_;
  std::map<std::string, std::int64_t> values_;
  std::map<TxnId, std::vector<UndoEntry>> undo_;
  std::map<TxnId, std::vector<Parked>> parked_;
  std::set<TxnId> aborted_;  // wait-die victims and aborted txns
};

}  // namespace caa::txn
