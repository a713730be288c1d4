// Coordination avoidance: the commutative-exception fast path that skips
// the O(N²) Exception/ACK resolution exchange (ROADMAP item 3).
//
// The paper's algorithm always runs the full exchange, even when the
// outcome is a foregone conclusion. Following Soethout et al.'s
// path-sensitive commit idea (PAPERS.md), a raise whose exception sits in a
// *universal* subtree of the resolution tree — one where ANY concurrent
// pair of raises joins to the same ancestor (ex::ExceptionTree lattice) —
// can be resolved without hearing the rest of the raise set: the join of
// whatever the committee raised is pinned inside the subtree's universal
// cover.
//
// Protocol ("census at the leader"; all messages are net::MsgKind::
// kFastCover, which is deliberately NOT a resolution kind):
//
//   raiser  --kReport(e, cover)-->  live leader      (raise is SUPPRESSED:
//                                                     the engine stays
//                                                     Normal, untouched)
//   leader  --kProbe-->  members it has not heard from (armed one probe
//                        delay after the census opens; reports landing
//                        first make the probe a no-op)
//   member  --kNoRaise / kBusy-->  leader
//   leader: every live member accounted for?
//     - all reports carry the same valid cover, nobody busy, leader itself
//       idle-or-raising  ->  resolved := join-fold of the raised exceptions
//       (the memoized lattice; identical to ExceptionTree::resolve over the
//       same set), multicast kCommit, apply to the own engine LAST
//     - anything else  ->  multicast kFallback; every suppressed raiser
//       replays through ResolverCore::raise, which the census left in a
//       byte-identical Normal state — the full exchange runs as if the
//       fast path never existed, so resolved checksums match avoidance-off
//
// Local fallback triggers (no broadcast needed — the trigger itself is
// visible at every member): one of the five protocol messages arrives for
// this scope+round while the census is pending (a non-commuting raise went
// slow), or a member crash is detected. A report that reaches the leader
// after the round closed is answered with kStale and replayed.
//
// The coordinator is pure decision logic over injected hooks (the
// ResolverCore idiom) and the scope's engine, which it reads and commits
// into directly: caa::Participant owns one per scope, beside that engine,
// and forwards messages; none of the classification lives in
// participant.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ex/exception_tree.h"
#include "obs/health.h"
#include "resolve/messages.h"
#include "resolve/resolver_core.h"
#include "sim/event_queue.h"
#include "util/counters.h"

namespace caa::resolve {

class AvoidanceCoordinator {
 public:
  struct Hooks {
    /// Unicast to one member (the owner routes via the relay tree when the
    /// scope is in tree mode).
    std::function<void(ObjectId to, net::Bytes payload)> send;
    /// Multicast to every other member (flood in tree mode).
    std::function<void(const net::Bytes& payload)> multicast;
    /// Lowest live member — the census leader (and relay-tree root).
    std::function<ObjectId()> live_leader;
    /// This member may promise "kNoRaise": engine Normal, the scope is its
    /// active context (no nested children), not aborting, no handler
    /// running, not at the acceptance line, and no exclusions known.
    std::function<bool()> answer_idle;
    /// Replays a suppressed raise through the untouched engine, unless the
    /// owner's scope is aborting meanwhile.
    std::function<void(ExceptionId, std::string)> replay_raise;
    /// Guarded scheduling (maps to ManagedObject::schedule_after).
    std::function<void(sim::Time delay, std::function<void()> fn)> schedule;
  };

  /// How long the leader lets reports land before probing silent members.
  /// Efficiency only (correctness never depends on it): it clears one LAN
  /// hop (LinkParams::latency_base) plus jitter, so in the §4.4 all-raise
  /// every report beats the probe and the round costs (N-1) reports +
  /// (N-1) commits, under the 2N bench gate.
  static constexpr sim::Time kProbeDelay = 250;

  /// `engine` is the scope's resolution engine at this member: the
  /// coordinator reads its round and state, and applies census commits to
  /// it. It, `members`, `excluded` and `tree` must outlive the coordinator.
  /// `health` (optional) receives the census-open level
  /// (obs::Gauge::kResolveCensusOpen: open censuses + suppressed raises at
  /// this member); gauge pushes never touch `counters`.
  AvoidanceCoordinator(ObjectId self, ResolverCore& engine,
                       const std::vector<ObjectId>* members,
                       const std::set<ObjectId>* excluded,
                       const ex::ExceptionTree* tree, Hooks hooks,
                       Counters* counters,
                       obs::HealthGauges* health = nullptr);
  ~AvoidanceCoordinator();

  /// Raise-side classification: suppresses the raise and reports it to the
  /// census when `exception` provably commutes — it has a valid universal
  /// cover and no member of the scope is excluded. Returns false when the
  /// raise must take the full exchange (`message` is only consumed on
  /// success; the caller falls through to ResolverCore::raise).
  bool try_fast_raise(ExceptionId exception, std::string&& message);

  /// True while this member's own suppressed raise is in flight. complete()
  /// is superseded by it exactly as the engine's Exceptional state
  /// supersedes completion in the full protocol.
  [[nodiscard]] bool raise_pending() const { return pending_; }

  /// False while a fast round is in flight at this member: a suppressed
  /// raise is pending, a census is open here (leader), or this member
  /// promised kNoRaise and the commit may still arrive. Gates nested
  /// enters and exit decisions.
  [[nodiscard]] bool idle() const {
    return !pending_ && !census_active_ && !promised_.has_value();
  }

  /// One kFastCover message for this scope's current round. The owner's
  /// intake has already filtered crashed senders, dead scopes and other
  /// rounds (stale ones go to on_stale).
  void on_message(ObjectId from, const FastCoverMsg& m);

  /// One of the five protocol messages arrived for this scope's current
  /// round: the full exchange supersedes the census. Any suppressed raise
  /// replays NOW, before the owner delivers the trigger, so this member's
  /// exception multicast precedes its ACK of the other raiser's.
  void on_slow_traffic();

  /// A member crash aborts any census: the raise set is no longer provably
  /// commutative and the leader may be the victim. Suppressed raises
  /// replay; an already-multicast census commit survives through the
  /// owner's CrashSync barrier, which redistributes the engine's
  /// known_commit().
  void on_peer_crashed();

  /// The round finished (any path): census, promise and suppressed-raise
  /// state for it is void.
  void on_round_finished();

  /// A kFastCover for an already-finished round. Stale reports are answered
  /// with kStale so the reporter replays its suppressed raise into the
  /// current round; everything else is protocol residue and dropped.
  void on_stale(ObjectId from, const FastCoverMsg& m);

  /// The fast path's current phase at this member, for watchdog diagnoses:
  /// "census" (leader, census open), "suppressed-raise", "promised", or
  /// "idle".
  [[nodiscard]] std::string_view phase() const {
    if (census_active_) return "census";
    if (pending_) return "suppressed-raise";
    if (promised_.has_value()) return "promised";
    return "idle";
  }

 private:
  struct Entry {
    enum class Kind : std::uint8_t { kRaise, kNoRaise, kBusy };
    Kind kind = Kind::kNoRaise;
    ExceptionId exception;
    ExceptionId cover;
  };

  void census_record(ObjectId member, Entry entry);
  void maybe_decide();
  void send_probes();
  void decide();
  void fall_back_census();
  void replay_suppressed();
  void handle_commit(const FastCoverMsg& m);
  [[nodiscard]] net::Bytes make(FastCoverMsg::Phase phase,
                                ExceptionId exception, ExceptionId cover,
                                std::uint32_t round) const;
  [[nodiscard]] std::size_t live_members() const;
  [[nodiscard]] bool engine_normal() const {
    return engine_.state() == ResolverCore::State::kNormal;
  }
  /// Applies a census commit: straight into a Normal engine, or — when
  /// slow traffic crossed the census — the way a CrashSync-carried commit
  /// is applied, held until the engine's own round obligations (ACKs)
  /// drain.
  void apply_commit(const CommitMsg& commit);
  /// Re-derives the census-open gauge contribution and pushes the delta.
  void sync_health();

  ObjectId self_;
  ResolverCore& engine_;
  const std::vector<ObjectId>* members_;   // sorted, includes self
  const std::set<ObjectId>* excluded_;     // owner's per-scope exclusions
  const ex::ExceptionTree* tree_;
  Hooks hooks_;
  Counters* counters_ = nullptr;
  obs::HealthGauges* health_ = nullptr;
  std::int64_t gauge_ = 0;  // last-pushed census-open contribution

  // Raiser side: the suppressed raise (engine untouched until commit or
  // replay).
  bool pending_ = false;
  ExceptionId pending_exception_;
  std::string pending_message_;
  std::uint32_t pending_round_ = 0;

  // kNoRaise promise: a commit may arrive while the engine looks Normal, so
  // nested enters and exit decisions hold off until the round settles.
  std::optional<std::uint32_t> promised_;

  // Leader side: the census for the current round.
  bool census_active_ = false;
  std::uint32_t census_round_ = 0;
  std::map<ObjectId, Entry> census_;
  bool probe_armed_ = false;
  bool probes_sent_ = false;
};

}  // namespace caa::resolve
