#include "resolve/avoidance.h"

#include <utility>

#include "util/check.h"

namespace caa::resolve {

namespace {
const CounterId kCounterFastRaises = CounterId::of("resolve.fast_raises");
const CounterId kCounterFastCommits = CounterId::of("resolve.fast_commits");
const CounterId kCounterFallbacks = CounterId::of("resolve.fallbacks");
const CounterId kCounterFallbackReplays =
    CounterId::of("resolve.fallback_replays");
const CounterId kCounterProbes = CounterId::of("resolve.fast_probes");
const CounterId kCounterStale = CounterId::of("resolve.fast_stale");
const CounterId kCounterLatticeHits = CounterId::of("resolve.lattice_hits");
const CounterId kCounterLatticeMisses = CounterId::of("resolve.lattice_misses");
}  // namespace

AvoidanceCoordinator::AvoidanceCoordinator(
    ObjectId self, const std::vector<ObjectId>* members,
    const std::set<ObjectId>* excluded, const ex::ExceptionTree* tree,
    ActionInstanceId scope, Hooks hooks, Counters* counters,
    obs::HealthGauges* health)
    : self_(self),
      members_(members),
      excluded_(excluded),
      tree_(tree),
      scope_(scope),
      hooks_(std::move(hooks)),
      counters_(counters),
      health_(health) {
  CAA_CHECK(members_ != nullptr && excluded_ != nullptr && tree_ != nullptr);
}

AvoidanceCoordinator::~AvoidanceCoordinator() {
  // A coordinator destroyed mid-census (scope aborted) retracts its gauge
  // contribution so the world-level census count stays exact.
  if (health_ != nullptr) {
    health_->add(obs::Gauge::kResolveCensusOpen, -gauge_);
  }
}

void AvoidanceCoordinator::sync_health() {
  if (health_ == nullptr) return;
  const std::int64_t open =
      (census_active_ ? 1 : 0) + (pending_ ? 1 : 0);
  if (open != gauge_) {
    health_->add(obs::Gauge::kResolveCensusOpen, open - gauge_);
    gauge_ = open;
  }
}

net::Bytes AvoidanceCoordinator::make(FastCoverMsg::Phase phase,
                                      ExceptionId exception, ExceptionId cover,
                                      std::uint32_t round) const {
  return encode(
      FastCoverMsg{scope_, round, self_, phase, exception, cover});
}

std::size_t AvoidanceCoordinator::live_members() const {
  std::size_t live = 0;
  for (ObjectId member : *members_) {
    if (!excluded_->contains(member)) ++live;
  }
  return live;
}

bool AvoidanceCoordinator::try_fast_raise(ExceptionId exception,
                                          std::string&& message) {
  // Classification: the raise commutes when its whole concurrent
  // neighbourhood provably joins inside one universal cover. Exclusions
  // void the proof (the census would have to reason about a shrunken
  // committee mid-change), as do two-member-less scopes where the exchange
  // is already minimal.
  if (pending_ || !tree_->frozen()) return false;
  if (!excluded_->empty()) return false;
  if (members_->size() < 2 || live_members() < 2) return false;
  const ExceptionId cover = tree_->universal_cover(exception);
  if (!cover.valid()) return false;
  if (!hooks_.engine_normal()) return false;

  pending_ = true;
  pending_exception_ = exception;
  pending_message_ = std::move(message);
  pending_round_ = hooks_.round();
  if (counters_ != nullptr) counters_->add(kCounterFastRaises);

  const ObjectId leader = hooks_.live_leader();
  if (leader == self_) {
    // The leader's own raise opens the census; its entry is implicit in
    // pending_ (decide() folds it in).
    if (!census_active_) {
      census_active_ = true;
      census_round_ = pending_round_;
    }
    if (!probes_sent_ && !probe_armed_) {
      probe_armed_ = true;
      hooks_.schedule(kProbeDelay, [this] {
        probe_armed_ = false;
        if (census_active_) send_probes();
      });
    }
    maybe_decide();
  } else {
    hooks_.send(leader, make(FastCoverMsg::Phase::kReport, exception, cover,
                             pending_round_));
  }
  sync_health();
  return true;
}

void AvoidanceCoordinator::census_record(ObjectId member, Entry entry) {
  if (!census_active_) {
    census_active_ = true;
    census_round_ = hooks_.round();
  }
  census_[member] = entry;
  if (!probes_sent_ && !probe_armed_) {
    probe_armed_ = true;
    hooks_.schedule(kProbeDelay, [this] {
      probe_armed_ = false;
      if (census_active_) send_probes();
    });
  }
  maybe_decide();
  sync_health();
}

void AvoidanceCoordinator::send_probes() {
  probes_sent_ = true;
  std::int64_t probed = 0;
  for (ObjectId member : *members_) {
    if (member == self_ || excluded_->contains(member)) continue;
    if (census_.contains(member)) continue;
    hooks_.send(member, make(FastCoverMsg::Phase::kProbe,
                             ExceptionId::invalid(), ExceptionId::invalid(),
                             census_round_));
    ++probed;
  }
  if (probed > 0 && counters_ != nullptr) {
    counters_->add(kCounterProbes, probed);
  }
  maybe_decide();  // everyone may have reported while the probe was armed
}

void AvoidanceCoordinator::maybe_decide() {
  if (!census_active_) return;
  for (ObjectId member : *members_) {
    if (member == self_ || excluded_->contains(member)) continue;
    if (!census_.contains(member)) return;  // census incomplete
  }
  decide();
}

void AvoidanceCoordinator::decide() {
  census_active_ = false;
  const std::uint32_t round = census_round_;

  // The leader itself must be raising or idle: a leader busy in a nested
  // action cannot wake from a fast commit without the HaveNested/abortion
  // machinery the census skipped.
  if (!pending_ && !hooks_.answer_idle()) {
    fall_back_census();
    return;
  }
  std::vector<ExceptionId> raised;
  std::vector<ExceptionId> covers;
  for (const auto& [member, entry] : census_) {
    if (entry.kind == Entry::Kind::kBusy) {
      fall_back_census();
      return;
    }
    if (entry.kind == Entry::Kind::kRaise) {
      raised.push_back(entry.exception);
      covers.push_back(entry.cover);
    }
  }
  if (pending_) {
    raised.push_back(pending_exception_);
    covers.push_back(tree_->universal_cover(pending_exception_));
  }
  if (raised.empty()) {
    // Every raise was withdrawn before the census closed (stale rounds);
    // nothing to resolve.
    census_.clear();
    return;
  }
  for (const ExceptionId cover : covers) {
    if (!cover.valid() || cover != covers.front()) {
      fall_back_census();
      return;
    }
  }
  // Join-fold through the memoized lattice: identical (the LCA of a set is
  // fold-order independent) to the ExceptionTree::resolve the full exchange
  // would have computed over the same raise set — which is what keeps the
  // resolved checksums byte-identical to avoidance-off.
  const std::uint64_t hits0 = tree_->join_hits();
  const std::uint64_t misses0 = tree_->join_misses();
  ExceptionId resolved = raised.front();
  for (std::size_t i = 1; i < raised.size(); ++i) {
    resolved = tree_->join(resolved, raised[i]).cover;
  }
  if (counters_ != nullptr) {
    counters_->add(kCounterLatticeHits,
                   static_cast<std::int64_t>(tree_->join_hits() - hits0));
    counters_->add(kCounterLatticeMisses,
                   static_cast<std::int64_t>(tree_->join_misses() - misses0));
    counters_->add(kCounterFastCommits);
  }
  census_.clear();
  pending_ = false;  // the suppressed raise is subsumed by this commit
  promised_.reset();
  hooks_.multicast(make(FastCoverMsg::Phase::kCommit, resolved,
                        ExceptionId::invalid(), round));
  // Own engine LAST (the Paxos self-delivery precedent): finishing the
  // round re-enters the owner, which must not observe a half-sent commit.
  const CommitMsg commit{scope_, round, self_, resolved};
  if (hooks_.engine_normal()) {
    hooks_.apply_fast_commit(commit);
  } else {
    hooks_.apply_synced_commit(commit);
  }
  sync_health();
}

void AvoidanceCoordinator::fall_back_census() {
  census_active_ = false;
  census_.clear();
  if (counters_ != nullptr) counters_->add(kCounterFallbacks);
  hooks_.multicast(make(FastCoverMsg::Phase::kFallback, ExceptionId::invalid(),
                        ExceptionId::invalid(), census_round_));
  promised_.reset();
  replay_suppressed();
  sync_health();
}

void AvoidanceCoordinator::replay_suppressed() {
  if (!pending_) return;
  pending_ = false;
  sync_health();
  if (counters_ != nullptr) counters_->add(kCounterFallbackReplays);
  if (!hooks_.engine_normal()) {
    // A commit or exchange already superseded the suppressed raise — the
    // same fate a late raise meets in the full protocol.
    if (counters_ != nullptr) counters_->add(kCounterStale);
    return;
  }
  hooks_.replay_raise(pending_exception_, std::move(pending_message_));
}

void AvoidanceCoordinator::on_slow_traffic() {
  promised_.reset();
  if (census_active_) {
    // The non-commuting raise is multicast, so every member that holds fast
    // state observes it and unwinds locally — no broadcast needed.
    census_active_ = false;
    census_.clear();
    if (counters_ != nullptr) counters_->add(kCounterFallbacks);
  }
  replay_suppressed();
  sync_health();
}

void AvoidanceCoordinator::on_peer_crashed() {
  promised_.reset();
  if (census_active_) {
    census_active_ = false;
    census_.clear();
    if (counters_ != nullptr) counters_->add(kCounterFallbacks);
  }
  replay_suppressed();
  sync_health();
}

void AvoidanceCoordinator::on_round_finished() {
  pending_ = false;
  pending_message_.clear();
  promised_.reset();
  census_active_ = false;
  census_.clear();
  probes_sent_ = false;
  sync_health();
}

void AvoidanceCoordinator::on_stale(ObjectId from, const FastCoverMsg& m) {
  if (m.phase != FastCoverMsg::Phase::kReport) return;  // round is over
  if (counters_ != nullptr) counters_->add(kCounterStale);
  hooks_.send(from, make(FastCoverMsg::Phase::kStale, ExceptionId::invalid(),
                         ExceptionId::invalid(), m.round));
}

void AvoidanceCoordinator::on_message(ObjectId from, const FastCoverMsg& m) {
  if (m.round != hooks_.round()) return;  // the owner routes rounds; defensive
  switch (m.phase) {
    case FastCoverMsg::Phase::kReport:
      census_record(from, Entry{Entry::Kind::kRaise, m.exception, m.cover});
      return;
    case FastCoverMsg::Phase::kProbe: {
      if (pending_) {
        // Crossed with our own report; answer it again (the census map
        // dedups).
        hooks_.send(from,
                    make(FastCoverMsg::Phase::kReport, pending_exception_,
                         tree_->universal_cover(pending_exception_),
                         pending_round_));
        return;
      }
      if (hooks_.answer_idle()) {
        promised_ = m.round;
        hooks_.send(from, make(FastCoverMsg::Phase::kNoRaise,
                               ExceptionId::invalid(), ExceptionId::invalid(),
                               m.round));
      } else {
        hooks_.send(from, make(FastCoverMsg::Phase::kBusy,
                               ExceptionId::invalid(), ExceptionId::invalid(),
                               m.round));
      }
      return;
    }
    case FastCoverMsg::Phase::kNoRaise:
    case FastCoverMsg::Phase::kBusy: {
      // Late replies must not reopen a closed census.
      if (!census_active_ || census_round_ != m.round) return;
      census_record(from, Entry{m.phase == FastCoverMsg::Phase::kBusy
                                    ? Entry::Kind::kBusy
                                    : Entry::Kind::kNoRaise,
                                ExceptionId::invalid(), ExceptionId::invalid()});
      return;
    }
    case FastCoverMsg::Phase::kFallback:
      promised_.reset();
      replay_suppressed();
      return;
    case FastCoverMsg::Phase::kCommit:
      handle_commit(m);
      return;
    case FastCoverMsg::Phase::kStale:
      if (pending_ && pending_round_ == m.round) {
        replay_suppressed();
      }
      return;
  }
}

void AvoidanceCoordinator::handle_commit(const FastCoverMsg& m) {
  promised_.reset();
  pending_ = false;  // subsumed: our report is folded into the commit
  sync_health();
  const CommitMsg commit{scope_, m.round, m.sender, m.exception};
  if (hooks_.engine_normal()) {
    hooks_.apply_fast_commit(commit);
  } else {
    // A slow exchange (our replayed raise, or a non-commuting peer's)
    // crossed the commit. The census decision still stands — apply it the
    // way a CrashSync-carried commit is applied: held until this engine's
    // own round obligations (ACKs) drain, then finishing identically.
    hooks_.apply_synced_commit(commit);
  }
}

}  // namespace caa::resolve
