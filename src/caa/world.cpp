#include "caa/world.h"

#include <exception>

#include "obs/causal.h"
#include "obs/report.h"
#include "util/check.h"

namespace caa {

World::World(WorldConfig config)
    : config_(config),
      network_(simulator_, config.seed) {
  actions_.set_overlay_defaults(config_.overlay);
  actions_.set_exit_defaults(config_.exit_protocol);
  actions_.set_exit_gc(config_.exit_gc);
  actions_.set_resolve_avoidance(config_.resolve_avoidance);
  actions_.set_debug_bugs(config_.debug_bugs);
  network_.set_default_link(config_.link);
  network_.set_managed(config_.managed_network);
  simulator_.obs().set_enabled(config_.observe);
  obs::FlightRecorder& recorder = simulator_.obs().recorder();
  recorder.set_enabled(config_.flight_recorder || config_.observe);
  // Spans are paired from the whole record, so an observed world keeps it.
  if (config_.observe) recorder.keep_all();
  // Register as the thread's active recorder so an armed crash context
  // (run/campaign.cpp) or a tripped CAA_CHECK can dump this world's ring.
  prev_recorder_ = obs::FlightRecorder::bind_thread_active(&recorder);
  CAA_CHECK_MSG(config_.link.drop_probability == 0.0 ||
                    config_.reliable_transport,
                "lossy links require the reliable transport");
  if (config_.telemetry.window > 0) {
    simulator_.obs().timeseries().arm(config_.telemetry);
  }
  if (config_.watchdog_deadline > 0) {
    simulator_.obs().watchdog().arm(
        config_.watchdog_deadline,
        [this](std::uint64_t scope, obs::WatchdogReport& report) {
          // Prefer the member with the most concrete view: one that names
          // peers it is waiting on; otherwise the first that still holds
          // the scope open.
          bool found = false;
          for (const auto& p : participants_) {
            obs::WatchdogReport view;
            if (!p->describe_scope(ActionInstanceId(scope), view)) continue;
            view.scope_name += " @ " + p->name();
            if (!found || (report.awaited.empty() && !view.awaited.empty())) {
              report.scope_name = view.scope_name;
              report.phase = view.phase;
              report.awaited = view.awaited;
              report.detail = view.detail;
              found = true;
            }
          }
        });
  }
  // The up-transition of a node is its restart signal: a fail-stop crash
  // wiped the node's volatile state, so its participants must abandon their
  // open contexts before processing any new traffic.
  network_.set_node_hook([this](NodeId node, bool up) {
    if (up) {
      on_node_restarted(node);
    } else if (simulator_.obs().watchdog().armed()) {
      // A fail-stop crash releases the victims' watchdog holds: the
      // survivors exclude them and can finish without them, so their open
      // scopes must not read as stalls.
      for (const auto& p : participants_) {
        if (p->runtime().node() == node) p->wd_release_open_scopes();
      }
    }
  });
}

World::~World() {
  // Dying by stack unwinding (the world's job threw) with a crash context
  // armed: this is the last moment the ring exists, so dump it here; the
  // campaign's catch block picks the path up for the failure report.
  if (std::uncaught_exceptions() > 0 && obs::FlightRecorder::crash_dump_armed() &&
      obs::FlightRecorder::thread_active() == &simulator_.obs().recorder()) {
    obs::FlightRecorder::dump_thread_active();
  }
  obs::FlightRecorder::bind_thread_active(prev_recorder_);
}

void World::crash(NodeId node) {
  if (!network_.node_up(node)) return;  // reported when it went down
  network_.set_node_up(node, false);
  report_crash(node);
}

void World::report_crash(NodeId node) {
  for (const auto& victim : participants_) {
    if (victim->runtime().node() != node) continue;
    for (const auto& peer : participants_) {
      const NodeId peer_node = peer->runtime().node();
      if (peer_node == node || !network_.node_up(peer_node)) continue;
      peer->notify_peer_crashed(victim->id());
    }
  }
}

void World::on_node_restarted(NodeId node) {
  // Survivors that had not yet detected the crash learn of it now (a no-op
  // for those that had); only then do the restarted node's participants
  // abandon the action state the crash wiped. Restarted objects stay
  // excluded from the scopes they crashed out of, in every later round of
  // them too — they may only enter *new* action instances
  // (Participant::on_restarted, DESIGN.md §4b).
  report_crash(node);
  for (const auto& victim : participants_) {
    if (victim->runtime().node() == node) victim->on_restarted();
  }
  // Re-admit the restarted objects: peers stop filtering their messages and
  // count them as regular members of scopes entered from now on (the scope
  // exclusion sets they were struck into keep them out of those scopes).
  for (const auto& victim : participants_) {
    if (victim->runtime().node() != node) continue;
    for (const auto& peer : participants_) {
      const NodeId peer_node = peer->runtime().node();
      if (peer_node == node || !network_.node_up(peer_node)) continue;
      peer->notify_peer_restarted(victim->id());
      // Symmetric reconciliation: while this node was down it missed any
      // restart of `peer`, whose messages it would otherwise keep dropping.
      victim->notify_peer_restarted(peer->id());
    }
  }
}

bool World::write_recorder_dump(const std::string& path,
                                std::uint64_t world_index) {
  return recorder().dump_to_file(path, config_.seed, world_index);
}

std::string World::critical_path_report() {
  std::string out;
  for (const obs::CriticalPath& path :
       obs::critical_paths(recorder().snapshot())) {
    out += obs::format_path(path);
  }
  return out;
}

NodeId World::add_node() {
  const NodeId node(next_node_++);
  network_.add_node(node);
  std::unique_ptr<net::Transport> transport;
  if (config_.reliable_transport) {
    transport = std::make_unique<net::ReliableTransport>(network_, node,
                                                         config_.reliable);
  } else {
    transport = std::make_unique<net::DirectTransport>(network_, node);
  }
  runtimes_.push_back(std::make_unique<rt::Runtime>(
      simulator_, directory_, node, std::move(transport)));
  return node;
}

rt::Runtime& World::runtime(NodeId node) {
  CAA_CHECK_MSG(node.value() < runtimes_.size(), "unknown node");
  return *runtimes_[node.value()];
}

action::Participant& World::add_participant(const std::string& name) {
  return add_participant(name, add_node());
}

action::Participant& World::add_participant(const std::string& name,
                                            NodeId node) {
  auto participant = std::make_unique<action::Participant>(actions_);
  runtime(node).attach(*participant, name);
  participant->set_failure_sink(
      [this](ActionInstanceId instance, ExceptionId signal) {
        failures_.push_back(Failure{instance, signal});
      });
  participants_.push_back(std::move(participant));
  return *participants_.back();
}

ObjectId World::attach(rt::ManagedObject& object, std::string name,
                       NodeId node) {
  return runtime(node).attach(object, std::move(name));
}

void World::at(sim::Time t, std::function<void()> fn) {
  simulator_.schedule_at(t, std::move(fn));
}

std::size_t World::run(std::size_t max_events) {
  const std::size_t fired = simulator_.run_to_quiescence(max_events);
  // Quiescence with open scopes is a stall by definition: no event will
  // ever progress them, so diagnose without waiting out the deadline.
  simulator_.obs().watchdog().finish(simulator_.now());
  return fired;
}

obs::SpanLog World::spans() const {
  if (!simulator_.obs().enabled()) return {};
  obs::SpanNames names;
  for (std::uint32_t o = 0; o < directory_.size(); ++o) {
    names.objects.push_back(directory_.name_of(ObjectId(o)));
  }
  names.action = [this](std::uint64_t scope) {
    return actions_.info(ActionInstanceId(scope)).decl->name();
  };
  names.exception = [this](std::uint64_t scope, std::uint32_t exception) {
    return actions_.info(ActionInstanceId(scope))
        .decl->tree()
        .name_of(ExceptionId(exception));
  };
  return obs::spans_from(simulator_.obs().recorder().snapshot(),
                         std::move(names));
}

std::string World::chrome_trace() const {
  return obs::chrome_trace_json(spans());
}

bool World::write_chrome_trace(const std::string& path) const {
  return obs::write_chrome_trace(spans(), path);
}

std::string World::run_report() const {
  return obs::run_report(
      metrics(), [this](ActionInstanceId instance) -> std::string {
        if (!actions_.known(instance)) return {};
        return actions_.info(instance).decl->name() + " #" +
               std::to_string(instance.value());
      });
}

}  // namespace caa
