// Always-on causal flight recorder: the typed protocol-event stream of one
// world and its post-mortem black box.
//
// The FlightRecorder records a fixed-size ring of binary records — sends,
// deliveries, drops, raises, state transitions, aborts, resolutions — so a
// world that dies (job exception, CAA_CHECK trip) leaves behind the last N
// things that happened, dumpable to a compact binary file and decodable by
// tools/caa-inspect. An observed world (WorldConfig::observe) also records
// its scope and transaction lifecycle (enter, Done, handlers, abortion
// handlers, Leave, txn begin/end) and keeps every record instead of
// wrapping; obs/chrome_trace.h pairs that whole record into spans.
//
// Causality: every record carries the id of the record that *caused* it.
// A send's cause is whatever record was active when the send happened
// (usually the delivery that triggered it); a delivery's cause is the send.
// The simulator threads the active cause through its event queue, so chains
// stay connected across scheduled continuations (timer-driven handler
// bodies, abort steps, zero-delay dispatches). Walking parents backwards
// from a kResolved record therefore reconstructs exactly the §4.4 message
// chain that determined when that resolution completed — see obs/causal.h.
//
// Cost contract: in an unobserved world recording is allocation-free after
// the ring is built (one vector reservation on the first record), and each
// record is a few stores. An observed world keeps every record, so its
// vector grows. Nothing here touches counters — behaviour checksums are
// byte-identical with the recorder on or off. -DCAA_OBS_DISABLED turns
// enabled() into constexpr false and the optimizer deletes every site.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/wire.h"
#include "sim/event_queue.h"
#include "util/status.h"

namespace caa::obs {

/// What one flight record describes.
enum class RecType : std::uint8_t {
  kSend = 1,      // packet entered the network   actor=src node, peer=dst
  kDeliver = 2,   // packet handed to an endpoint actor=dst node, peer=src
  kDrop = 3,      // packet lost (crash/partition/loss) actor=owning node
  kRaise = 4,     // local exception raise        actor=object, code=exception
  kState = 5,     // resolver state transition    actor=object, code=State
  kAbort = 6,     // nested action aborted        actor=object, code=signal
  kResolved = 7,  // commit processed, handler starting; code=exception
  // Scope and transaction lifecycle: observed worlds only (the span view).
  kEnter = 8,          // action entered             actor=object
  kDone = 9,           // Done sent, barrier opens   code=ok
  kTakeover = 10,      // resolved handler takes over the barrier wait and
                       // any running handler; round=the resolved round
  kHandler = 11,       // resolved handler starts    code=exception
  kHandlerEnd = 12,    // that round's handler ends
  kAbortHandler = 13,  // abortion handler ran       code=signal
  kLeave = 14,         // exit outcome applied       code=LeaveOutcome,
                       // peer=the new attempt when restored
  kTxnBegin = 15,      // actor=client, scope=txn id, code=seq, peer=nested
  kTxnEnd = 16,        // actor=client, scope=txn id, code=committed
};

[[nodiscard]] std::string_view rec_type_name(RecType type);
/// Lifecycle records exist only in observed worlds.
[[nodiscard]] constexpr bool is_lifecycle(RecType type) {
  return type >= RecType::kEnter;
}

/// One entry of the ring. Fixed-size POD; never owns memory.
struct FlightRecord {
  /// "No action scope": transport records are not tied to one action.
  static constexpr std::uint64_t kNoScope = ~0ULL;

  std::uint64_t id = 0;      // monotonic from 1; 0 is "no record"
  std::uint64_t cause = 0;   // id of the causing record; 0 = spontaneous
  std::uint64_t scope = kNoScope;  // ActionInstanceId value for protocol recs
  sim::Time time = 0;        // virtual clock at recording
  std::uint32_t actor = 0;   // node id (wire records) / object id (protocol)
  std::uint32_t peer = 0;    // the other endpoint for wire records
  std::uint32_t code = 0;    // MsgKind / exception id / resolver state
  std::uint32_t round = 0;   // resolution round for protocol records
  RecType type = RecType::kSend;
};

/// A decoded recorder dump (file or in-memory bytes).
struct FlightDump {
  std::uint64_t seed = 0;
  std::uint64_t world_index = 0;
  std::uint64_t recorded_total = 0;  // records ever pushed (incl. overwritten)
  std::uint64_t overwritten = 0;     // records lost to ring wraparound
  std::vector<FlightRecord> records;  // oldest -> newest
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;

  [[nodiscard]] bool enabled() const {
#ifdef CAA_OBS_DISABLED
    return false;
#else
    return enabled_;
#endif
  }
  void set_enabled([[maybe_unused]] bool on) {
#ifndef CAA_OBS_DISABLED
    enabled_ = on;
#endif
  }

  /// Resizes the ring (clearing it). Cold path; call before the run.
  void set_capacity(std::size_t records);
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Switches to keeping every record instead of wrapping (clearing the
  /// recorder): the mode observed worlds run in. Cold path; call before
  /// the run.
  void keep_all() {
    keep_all_ = true;
    clear();
  }

  /// Points the recorder at the simulator's virtual-clock storage.
  void bind_clock(const sim::Time* now) { clock_ = now; }

  // ---- Cause context --------------------------------------------------
  // The id of the record "currently executing": the simulator sets it to
  // the fired event's captured cause around each callback, and the network
  // overrides it with the delivery record around each handler call. New
  // records and newly scheduled events inherit it.

  [[nodiscard]] std::uint64_t current_cause() const { return current_cause_; }
  void set_current_cause([[maybe_unused]] std::uint64_t cause) {
#ifndef CAA_OBS_DISABLED
    current_cause_ = cause;
#endif
  }

  // ---- Recording (allocation-free; no-ops when disabled) --------------

  /// Returns the new record's id (0 when disabled) so the caller can stamp
  /// it into the in-flight packet as the delivery's cause.
  std::uint64_t record_send(std::uint16_t kind, std::uint32_t src_node,
                            std::uint32_t dst_node) {
    if (!enabled()) return 0;
    return push(RecType::kSend, current_cause_, FlightRecord::kNoScope,
                src_node, dst_node, kind, 0);
  }
  /// `cause` is the send record's id carried by the packet.
  std::uint64_t record_delivery(std::uint16_t kind, std::uint32_t dst_node,
                                std::uint32_t src_node, std::uint64_t cause) {
    if (!enabled()) return 0;
    return push(RecType::kDeliver, cause, FlightRecord::kNoScope, dst_node,
                src_node, kind, 0);
  }
  void record_drop(std::uint16_t kind, std::uint32_t node,
                   std::uint64_t cause) {
    if (!enabled()) return;
    push(RecType::kDrop, cause, FlightRecord::kNoScope, node, 0, kind, 0);
  }
  /// Raises, state transitions, aborts, resolutions and the lifecycle
  /// records. Scope is the action instance (or transaction) id; cause is
  /// the current context (usually a delivery).
  std::uint64_t record_protocol(RecType type, std::uint32_t object,
                                std::uint64_t scope, std::uint32_t round,
                                std::uint32_t code, std::uint32_t peer = 0) {
    if (!enabled()) return 0;
    return push(type, current_cause_, scope, object, peer, code, round);
  }

  // ---- Introspection --------------------------------------------------

  [[nodiscard]] std::size_t size() const { return ring_.size(); }
  [[nodiscard]] std::uint64_t recorded_total() const { return next_id_ - 1; }
  [[nodiscard]] std::uint64_t overwritten() const {
    return recorded_total() - ring_.size();
  }
  /// The retained records, oldest to newest (unwinds the ring).
  [[nodiscard]] std::vector<FlightRecord> snapshot() const;
  void clear();

  // ---- Dump / decode --------------------------------------------------

  /// Compact binary encoding ("CAAFR001"): header + retained records.
  [[nodiscard]] net::Bytes encode(std::uint64_t seed,
                                  std::uint64_t world_index) const;
  /// Writes encode() to `path`. Returns false on I/O failure.
  bool dump_to_file(const std::string& path, std::uint64_t seed,
                    std::uint64_t world_index) const;

  [[nodiscard]] static Result<FlightDump> decode(const net::Bytes& bytes);
  [[nodiscard]] static Result<FlightDump> read_dump(const std::string& path);

  // ---- Crash dumps ----------------------------------------------------
  // The campaign runner registers the running world's recorder as the
  // thread's active one and arms a per-thread crash context (directory,
  // seed, world index). When the world unwinds from an exception — or a
  // CAA_CHECK trips (util/check.h calls the installed failure hook before
  // aborting) — the recorder is dumped to
  //   <dir>/world<index>_seed<hex>.caafr
  // and the path is left in a per-thread slot for the failure report.

  /// Registers `recorder` as this thread's active one; returns the previous
  /// registration so scopes can nest (world inside world never happens, but
  /// restore-on-destroy keeps the slot honest).
  static FlightRecorder* bind_thread_active(FlightRecorder* recorder);
  [[nodiscard]] static FlightRecorder* thread_active();

  /// Arms crash dumping for this thread and installs the CAA_CHECK failure
  /// hook (idempotent).
  static void arm_crash_dump(std::string dir, std::uint64_t seed,
                             std::uint64_t world_index);
  static void disarm_crash_dump();
  [[nodiscard]] static bool crash_dump_armed();

  /// Dumps the thread-active recorder per the armed context; returns the
  /// written path ("" if not armed / no recorder / I/O failure). The path
  /// is also retained for take_pending_dump_path().
  static std::string dump_thread_active();
  /// Consumes the path of the most recent crash dump on this thread.
  [[nodiscard]] static std::string take_pending_dump_path();

 private:
  std::uint64_t push(RecType type, std::uint64_t cause, std::uint64_t scope,
                     std::uint32_t actor, std::uint32_t peer,
                     std::uint32_t code, std::uint32_t round);

#ifndef CAA_OBS_DISABLED
  bool enabled_ = true;
#endif
  const sim::Time* clock_ = nullptr;
  std::uint64_t next_id_ = 1;
  std::uint64_t current_cause_ = 0;
  std::size_t capacity_ = kDefaultCapacity;
  bool keep_all_ = false;
  std::size_t head_ = 0;  // overwrite position once the ring is full
  std::vector<FlightRecord> ring_;
};

}  // namespace caa::obs
