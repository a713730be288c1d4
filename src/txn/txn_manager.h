// Transaction client / coordinator.
//
// A TxnClient runs on some node and coordinates transactions over
// AtomicObjectHosts: it allocates transaction ids, tracks which hosts each
// transaction touched, drives nested-transaction merge on child commit and
// two-phase commit for top-level transactions, and aborts everywhere on a
// wait-die conflict. All operations are asynchronous with callbacks —
// everything is messages underneath (§2).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>

#include "obs/obs.h"
#include "rt/managed_object.h"
#include "txn/transaction.h"

namespace caa::txn {

class TxnClient : public rt::ManagedObject {
 public:
  using DoneCb = std::function<void(Status)>;
  using ValueCb = std::function<void(Result<std::int64_t>)>;

  /// Starts a transaction; `parent` makes it a nested transaction of an
  /// active one coordinated by this client.
  TxnId begin(TxnId parent = TxnId::invalid());

  [[nodiscard]] bool active(TxnId txn) const;

  /// Asynchronous operations against an object hosted by `host`.
  void read(TxnId txn, ObjectId host, std::string object, ValueCb cb);
  void write(TxnId txn, ObjectId host, std::string object, std::int64_t value,
             DoneCb cb);
  void add(TxnId txn, ObjectId host, std::string object, std::int64_t delta,
           ValueCb cb);
  void create(TxnId txn, ObjectId host, std::string object,
              std::int64_t initial, DoneCb cb);

  /// Commits: a nested transaction merges into its parent; a top-level one
  /// runs two-phase commit over every touched host.
  void commit(TxnId txn, DoneCb cb);

  /// Aborts the transaction at every touched host.
  void abort(TxnId txn, DoneCb cb);

  void on_message(ObjectId from, net::MsgKind kind,
                  const net::Bytes& payload) override;

  [[nodiscard]] std::int64_t commits() const { return commits_; }
  [[nodiscard]] std::int64_t aborts() const { return aborts_; }

  /// Transactions begun but not yet committed/aborted (records are erased
  /// on every terminal outcome). Non-zero at quiescence means a dangling
  /// transaction — a fault-engine oracle invariant.
  [[nodiscard]] std::size_t active_txns() const { return txns_.size(); }

 private:
  enum class TxnState : std::uint8_t { kActive, kCommitting, kAborting };

  struct TxnRecord {
    TxnId parent;
    TxnId top;
    TxnState state = TxnState::kActive;
    std::set<ObjectId> hosts;  // touched atomic-object hosts
    // 2PC / fan-out bookkeeping.
    std::size_t awaiting = 0;
    bool all_yes = true;
    DoneCb finish;
    sim::Time began = 0;  // when observed: start of the txn.latency sample
  };

  struct PendingOp {
    TxnId txn;
    ValueCb value_cb;  // or
    DoneCb done_cb;
  };

  void send_op(TxnId txn, ObjectId host, TxnOp op, std::string object,
               std::int64_t value, PendingOp pending);
  void fan_out_abort(TxnId txn, DoneCb cb);
  void finish_op(const TxnOpReply& reply);
  TxnRecord& record(TxnId txn);
  [[nodiscard]] obs::Observability* observing() const;
  /// When observed: records the transaction's outcome (its span ends
  /// there, see obs/chrome_trace.h) and its commit/abort latency. Must run
  /// before the record is erased.
  void note_txn_finished(TxnId txn, const TxnRecord& rec, bool committed);

  std::map<TxnId, TxnRecord> txns_;
  std::map<std::uint64_t, PendingOp> pending_;
  std::uint32_t next_seq_ = 1;
  std::uint64_t next_request_ = 1;
  std::int64_t commits_ = 0;
  std::int64_t aborts_ = 0;
};

}  // namespace caa::txn
