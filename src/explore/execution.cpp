#include "explore/execution.h"

#include <algorithm>
#include <unordered_set>

#include "util/check.h"

namespace caa::explore {
namespace {

std::uint64_t channel_key(NodeId src, NodeId dst) {
  return (static_cast<std::uint64_t>(src.value()) << 32) | dst.value();
}

}  // namespace

bool dependent(const TransitionInfo& a, const TransitionInfo& b) {
  // Timers are phase barriers (and, in race mode, conservatively conflict
  // with in-phase deliveries); crashes perturb every node's view at once.
  if (a.t.kind == TransitionKind::kTimer || b.t.kind == TransitionKind::kTimer ||
      a.t.kind == TransitionKind::kCrash || b.t.kind == TransitionKind::kCrash) {
    return true;
  }
  if (a.t.kind == TransitionKind::kDeliver &&
      b.t.kind == TransitionKind::kDeliver) {
    return a.dst.value() == b.dst.value();
  }
  // A drop commutes with everything except its own packet's delivery.
  return a.t.id == b.t.id;
}

Execution::Execution(const ModelOptions& model, ExecOptions options)
    : model_(model), options_(options) {
  instance_ = make_model(model_, /*managed=*/true);
  victims_ = model_.crash_victims;
  std::sort(victims_.begin(), victims_.end());
  victims_.erase(std::unique(victims_.begin(), victims_.end()),
                 victims_.end());
  drain_cohort();
  // Packets the construction script parked have no sending step.
  world().network().managed_in_flight(scratch_);
  for (const net::Network::ManagedPacket& p : scratch_) {
    sent_step_.emplace(p.id, HbTracker::kNone);
  }
}

const std::vector<TransitionInfo>& Execution::enabled() {
  if (!enabled_valid_) refresh_enabled();
  return enabled_;
}

void Execution::refresh_enabled() {
  enabled_.clear();
  net::Network& network = world().network();
  sim::Simulator& simulator = world().simulator();
  network.managed_in_flight(scratch_);
  // FIFO heads: the first packet per (src, dst) channel in birth order is
  // deliverable; later ones wait their turn (in-order channels).
  std::unordered_set<std::uint64_t> seen;
  std::vector<TransitionInfo> drops;
  for (const net::Network::ManagedPacket& p : scratch_) {
    if (!seen.insert(channel_key(p.src, p.dst)).second) continue;
    enabled_.push_back(
        {Transition{TransitionKind::kDeliver, p.id}, p.src, p.dst, p.kind});
    if (!network.node_up(p.src)) {
      drops.push_back(
          {Transition{TransitionKind::kDrop, p.id}, p.src, p.dst, p.kind});
    }
  }
  // scratch_ is birth-ordered, so deliveries (and drops) are id-sorted.
  const bool deliveries = !enabled_.empty();
  if (!simulator.idle() && (options_.race_timers || !deliveries)) {
    enabled_.push_back({Transition{TransitionKind::kTimer, 0}});
  }
  enabled_.insert(enabled_.end(), drops.begin(), drops.end());
  // A crash is worth exploring only while something else can still happen:
  // once the world is over, killing a node cannot change any outcome the
  // oracle looks at.
  if (crashes_ < model_.max_crashes && !enabled_.empty()) {
    for (const std::uint32_t v : victims_) {
      if (!network.node_up(NodeId(v))) continue;
      enabled_.push_back(
          {Transition{TransitionKind::kCrash, v}, NodeId(v), NodeId(v)});
    }
  }
  enabled_valid_ = true;
}

void Execution::drain_cohort() {
  sim::Simulator& simulator = world().simulator();
  while (!simulator.idle() &&
         simulator.next_event_time() <= simulator.now()) {
    simulator.step_block();
  }
}

void Execution::note_new_packets(std::size_t idx) {
  world().network().managed_in_flight(scratch_);
  for (const net::Network::ManagedPacket& p : scratch_) {
    sent_step_.emplace(p.id, idx);
  }
}

bool Execution::take(const Transition& t) {
  const std::vector<TransitionInfo>& en = enabled();
  const auto it =
      std::find_if(en.begin(), en.end(),
                   [&t](const TransitionInfo& info) { return info.t == t; });
  if (it == en.end()) return false;
  const TransitionInfo info = *it;
  const std::size_t idx = steps_.size();
  std::size_t sent = HbTracker::kNone;

  net::Network& network = world().network();
  switch (t.kind) {
    case TransitionKind::kDeliver: {
      const auto sent_it = sent_step_.find(t.id);
      sent = sent_it == sent_step_.end() ? HbTracker::kNone : sent_it->second;
      const auto prev_it =
          last_channel_delivery_.find(channel_key(info.src, info.dst));
      const std::size_t prev = prev_it == last_channel_delivery_.end()
                                   ? HbTracker::kNone
                                   : prev_it->second;
      CAA_CHECK(network.managed_deliver(t.id));
      drain_cohort();
      hb_.push({sent, prev});
      last_channel_delivery_[channel_key(info.src, info.dst)] = idx;
      break;
    }
    case TransitionKind::kTimer: {
      const std::size_t fired = world().simulator().step_block();
      CAA_CHECK(fired > 0);
      drain_cohort();
      hb_.push_barrier();
      break;
    }
    case TransitionKind::kDrop: {
      const auto sent_it = sent_step_.find(t.id);
      sent = sent_it == sent_step_.end() ? HbTracker::kNone : sent_it->second;
      const auto crash_it = crash_step_.find(info.src.value());
      const std::size_t crashed = crash_it == crash_step_.end()
                                      ? HbTracker::kNone
                                      : crash_it->second;
      CAA_CHECK(network.managed_drop(t.id));
      hb_.push({sent, crashed});
      break;
    }
    case TransitionKind::kCrash: {
      world().crash(NodeId(info.src));
      // Fail-stop eager policy: mail TO the dead node can never be read —
      // drop it atomically with the crash. Mail FROM the dead node stays
      // parked; each such packet becomes a deliver-or-drop family choice,
      // which is exactly the "message from the crashed leader may or may
      // not arrive" ambiguity crash exploration is after.
      network.managed_in_flight(scratch_);
      for (const net::Network::ManagedPacket& p : scratch_) {
        if (p.dst.value() == info.src.value()) {
          CAA_CHECK(network.managed_drop(p.id));
        }
      }
      drain_cohort();
      ++crashes_;
      crash_step_[info.src.value()] = idx;
      hb_.push_barrier();
      break;
    }
  }

  note_new_packets(idx);
  steps_.push_back(Step{info, sent});
  enabled_valid_ = false;
  return true;
}

fault::OracleReport Execution::check() {
  fault::OracleOptions oracle;
  oracle.deadline = world().simulator().now();
  return fault::check_invariants(world(), oracle);
}

}  // namespace caa::explore
