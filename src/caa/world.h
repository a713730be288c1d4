// World: one self-contained simulated distributed system.
//
// Owns the simulator, network, name service, action manager, per-node
// runtimes and participants. Tests, benchmarks and examples build scenarios
// against this facade:
//
//   World w;
//   auto& o1 = w.add_participant("O1");
//   auto& o2 = w.add_participant("O2");
//   const auto& decl = w.actions().declare("A1", make_tree());
//   const auto& a1 = w.actions().create_instance(decl, {o1.id(), o2.id()});
//   o1.enter(a1.instance, cfg1); o2.enter(a1.instance, cfg2);
//   w.at(1000, [&] { o1.raise("e1"); });
//   w.run();
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "caa/action_manager.h"
#include "caa/participant.h"
#include "net/network.h"
#include "net/reliable_link.h"
#include "obs/chrome_trace.h"
#include "overlay/params.h"
#include "rt/runtime.h"
#include "sim/simulator.h"

namespace caa {

struct WorldConfig {
  net::LinkParams link = net::LinkParams::ideal();
  std::uint64_t seed = 42;
  /// Use the reliable (retransmitting) transport instead of the direct one.
  /// Required when `link` has non-zero loss.
  bool reliable_transport = false;
  net::ReliableTransport::Options reliable;
  /// Enable observability: the flight recorder keeps every record and adds
  /// the scope and transaction lifecycle, from which spans() draws the
  /// action / round / abort / barrier / handler / txn spans; plus
  /// per-round protocol tallies and histograms. Off by default — disabled
  /// runs record none of it and pay one branch per site.
  bool observe = false;
  /// Keep the causal flight recorder running (obs/flight_recorder.h). On by
  /// default: it is the always-on black box, allocation-free after its one
  /// ring reservation, and never touches behaviour checksums. `observe`
  /// turns it on regardless.
  bool flight_recorder = true;
  /// Overlay dissemination defaults stamped onto every action instance
  /// (src/overlay/). The kAuto default keeps every committee below
  /// OverlayParams::kTreeThreshold on the paper's flat all-to-all protocol.
  overlay::OverlayParams overlay;
  /// Exit/commit protocol stamped onto every action instance (src/exit/):
  /// the paper's leader barrier, or Gray & Lamport's non-blocking Paxos
  /// Commit. Every member of an instance reads the same stamp.
  exit::ExitKind exit_protocol = exit::ExitKind::kBarrier;
  /// Coordination avoidance (src/resolve/avoidance.h): commutative raise
  /// rounds — every concurrent raise provably joins to one universal cover
  /// in the exception tree — are decided by a leader census over kFastCover
  /// messages and commit with zero Exception/ACK round-trips, falling back
  /// to the paper's full exchange on any conflict, crash, or busy member.
  /// Resolved checksums are identical either way.
  bool resolve_avoidance = false;
  /// Garbage-collect per-scope final-Leave records once every committee
  /// member has ACKed its Leave. Adds one LeaveAck broadcast per member per
  /// exited scope, so it is off by default (existing worlds stay
  /// message-for-message identical); chaos campaigns turn it on.
  bool exit_gc = false;
  /// Virtual-time telemetry (src/obs/timeseries.h): window > 0 arms the
  /// sampler, which snapshots counter/histogram deltas and health-gauge
  /// levels every `telemetry.window` ticks. Sampling is passive (no events
  /// scheduled, no counters written), so behaviour checksums are identical
  /// with it on or off.
  obs::TimeSeriesConfig telemetry;
  /// Liveness watchdog (src/obs/watchdog.h): > 0 arms stall detection — a
  /// scope with no progress for this many virtual ticks (or still open at
  /// quiescence) is diagnosed with phase, awaited members and a causal
  /// tail. Same zero-perturbation contract as the sampler.
  sim::Time watchdog_deadline = 0;
  /// Managed network delivery (net::Network::set_managed): send() parks
  /// packets for an external scheduler instead of sampling latency/faults.
  /// Only the systematic explorer (src/explore/) sets this.
  bool managed_network = false;
  /// Test-only planted protocol bugs (action::DebugBugs). Never set outside
  /// the explorer's planted-bug gates.
  action::DebugBugs debug_bugs;
};

class World {
 public:
  explicit World(WorldConfig config = {});
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  ~World();

  [[nodiscard]] sim::Simulator& simulator() { return simulator_; }
  [[nodiscard]] net::Network& network() { return network_; }
  [[nodiscard]] rt::Directory& directory() { return directory_; }
  [[nodiscard]] action::ActionManager& actions() { return actions_; }

  // ---- Observability / accounting -------------------------------------
  // One facade for everything measured: message tallies by kind, typed
  // counters, histograms, per-action per-round protocol tables (§4.4),
  // spans drawn from the flight record, and the exporters over them.

  [[nodiscard]] obs::Metrics& metrics() { return simulator_.obs().metrics(); }
  [[nodiscard]] const obs::Metrics& metrics() const {
    return simulator_.obs().metrics();
  }
  [[nodiscard]] obs::Observability& observability() {
    return simulator_.obs();
  }
  /// The spans paired from the flight record so far (obs/chrome_trace.h),
  /// with every object in the directory as a named track. Empty when
  /// observe is off.
  [[nodiscard]] obs::SpanLog spans() const;

  /// Chrome trace-event JSON of spans(); load in chrome://tracing or
  /// Perfetto. Deterministic for a given seed.
  [[nodiscard]] std::string chrome_trace() const;
  /// Writes chrome_trace() to `path`. Returns false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

  /// Plain-text per-action, per-round protocol message report (the §4.4
  /// tables for this run), with action names resolved.
  [[nodiscard]] std::string run_report() const;

  /// The world's causal flight recorder (black box).
  [[nodiscard]] obs::FlightRecorder& recorder() {
    return simulator_.obs().recorder();
  }

  /// The virtual-time sampler (armed iff WorldConfig.telemetry.window > 0).
  [[nodiscard]] obs::TimeSeries& timeseries() {
    return simulator_.obs().timeseries();
  }
  /// The liveness watchdog (armed iff WorldConfig.watchdog_deadline > 0).
  [[nodiscard]] obs::Watchdog& watchdog() {
    return simulator_.obs().watchdog();
  }
  /// The sampler's window table (closed windows + open partial window).
  [[nodiscard]] obs::TimeSeriesTable timeseries_table() const {
    return simulator_.obs().timeseries().table();
  }
  /// Writes the recorder's binary dump (decodable by tools/caa-inspect) to
  /// `path`, stamped with this world's seed and `world_index`. Returns
  /// false on I/O failure.
  bool write_recorder_dump(const std::string& path,
                           std::uint64_t world_index = 0);
  /// Per-(action, round) critical message chains extracted from the
  /// recorder — the §4.4 quantity as a path (obs/causal.h).
  [[nodiscard]] std::string critical_path_report();

  /// Creates a fresh node (own address space) with its runtime.
  NodeId add_node();
  [[nodiscard]] rt::Runtime& runtime(NodeId node);
  /// Nodes created so far (ids are dense: 0 .. node_count()-1).
  [[nodiscard]] std::uint32_t node_count() const { return next_node_; }

  /// Creates a participant on its own fresh node (the common setup: one
  /// object per node, maximizing distribution).
  action::Participant& add_participant(const std::string& name);
  /// Creates a participant on an existing node.
  action::Participant& add_participant(const std::string& name, NodeId node);

  /// Attaches an externally owned object to a node.
  ObjectId attach(rt::ManagedObject& object, std::string name, NodeId node);

  /// All participants created via add_participant, in creation order. The
  /// fault engine and invariant oracles iterate these.
  [[nodiscard]] const std::vector<std::unique_ptr<action::Participant>>&
  participants() const {
    return participants_;
  }

  /// Schedules a scenario step at absolute virtual time `t`.
  void at(sim::Time t, std::function<void()> fn);

  /// Runs the simulation to quiescence; returns events fired.
  std::size_t run(std::size_t max_events = 50'000'000);

  // ---- Failure reporting ----------------------------------------------

  struct Failure {
    ActionInstanceId instance;
    ExceptionId signal;  // may be invalid (generic failure)
  };
  [[nodiscard]] const std::vector<Failure>& failures() const {
    return failures_;
  }

 private:
  void on_node_restarted(NodeId node);

  WorldConfig config_;
  sim::Simulator simulator_;
  net::Network network_;
  rt::Directory directory_;
  action::ActionManager actions_;
  std::vector<std::unique_ptr<rt::Runtime>> runtimes_;
  std::vector<std::unique_ptr<action::Participant>> participants_;
  std::vector<Failure> failures_;
  std::uint32_t next_node_ = 0;
  /// Previous thread-active recorder, restored on destruction.
  obs::FlightRecorder* prev_recorder_ = nullptr;
};

}  // namespace caa
