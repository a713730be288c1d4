// The chaos campaign: thousands of generated fault plans, one oracle.
//
// Each trial builds a crash-tolerance world deterministically from its
// (campaign seed, index)-derived trial seed — 3..6 participants on their
// own nodes over the reliable transport, a two-level exception tree, a
// resolver committee and a crash exception — generates a fault plan from
// the configured mix, arms it, runs to the virtual-time deadline and
// checks every oracle invariant. Violating trials fail their campaign
// world with the oracle summary, the serialized plan as the artifact and a
// flight-recorder dump; the campaign post-pass shrinks each failing plan
// to a locally-minimal repro (shrink.h) and attaches a ready-to-paste
// recipe to the failure report.
//
// Everything merges through run::Campaign, so violation counts, merged
// checksums and merged metrics are bit-identical at any --threads value.
#pragma once

#include <cstdint>
#include <string>

#include "fault/plan.h"
#include "fault/shrink.h"
#include "overlay/params.h"
#include "run/campaign.h"

namespace caa::fault {

struct ChaosOptions {
  std::uint64_t seed = 42;
  std::size_t plans = 1000;
  /// Worker threads (0 = hardware concurrency). Never affects results.
  unsigned threads = 1;
  FaultMix mix = FaultMix::kMixed;
  std::uint32_t min_participants = 3;
  std::uint32_t max_participants = 6;
  std::uint32_t committee = 2;
  /// Fault-plan scheduling horizon (PlanGenOptions::horizon).
  sim::Time horizon = 6000;
  /// Virtual-time budget per trial; not idle by then = oracle violation.
  sim::Time deadline = 60'000;
  /// When non-empty: violating trials write their flight-recorder ring as
  /// `<dump_dir>/chaos<index>_seed<hex>.caafr`. The directory must exist.
  std::string dump_dir;
  /// Shrink failing plans in the campaign post-pass.
  bool shrink = true;
  ShrinkOptions shrink_options;
  /// Overlay dissemination stamped onto every trial world: Mode::kTree
  /// runs the whole fault mix — including relay crashes mid-broadcast —
  /// over the relay tree instead of the flat fan-out.
  overlay::OverlayParams overlay;
  /// Exit protocol stamped onto every generated plan and trial world:
  /// kPaxos runs the whole fault mix — including the exit-assassin
  /// coordinator kill — over Paxos Commit instead of the done-barrier.
  exit::ExitKind exit = exit::ExitKind::kBarrier;
  /// Coordination avoidance stamped onto every generated plan and trial
  /// world: fast rounds must fall back cleanly under the whole fault mix.
  bool avoid = false;
  /// Liveness watchdog per trial (WorldConfig.watchdog_deadline): > 0 arms
  /// stall diagnoses. Replay tooling turns it on so a stuck trial explains
  /// itself (phase, awaited members, causal tail) next to the critical
  /// path. Zero-perturbation: checksums are identical armed or not.
  sim::Time watchdog_deadline = 0;
};

struct ChaosReport {
  run::CampaignResult campaign;
  std::size_t violations = 0;

  [[nodiscard]] bool ok() const { return violations == 0; }
  /// The campaign failure report, with repro recipes attached ("" if ok).
  [[nodiscard]] std::string failure_report() const {
    return campaign.failure_report();
  }
};

/// Participant count of the trial with this seed (pure function; the plan
/// generator and the world builder must agree on it).
[[nodiscard]] std::uint32_t trial_participants(std::uint64_t trial_seed,
                                               const ChaosOptions& options);

/// The fault plan trial `trial_seed` runs under `options` — deterministic,
/// already validated against the trial's node count.
[[nodiscard]] FaultPlan chaos_plan(std::uint64_t trial_seed,
                                   const ChaosOptions& options);

/// Runs one trial world under an explicit plan (the campaign uses
/// chaos_plan(trial_seed); the shrinker replays mutated plans). On an
/// oracle violation the result is !ok with the summary in .error and the
/// plan text in .artifact. When `critical_path` is non-null and the trial
/// fails, it receives the flight recorder's per-action critical-path
/// report. When `trace_log` is non-null, it receives the world's retained
/// flight records, one obs::format_record line each (the caa-inspect
/// rendering). When `watchdog_report` is non-null and
/// options.watchdog_deadline armed the watchdog, it receives every stall
/// diagnosis the trial produced ("" when none).
[[nodiscard]] run::WorldResult run_chaos_trial(
    std::uint64_t trial_seed, const FaultPlan& plan,
    const ChaosOptions& options, std::size_t index = 0,
    std::string* critical_path = nullptr, std::string* trace_log = nullptr,
    std::string* watchdog_report = nullptr);

/// The full campaign: generate + run + check `options.plans` trials, then
/// shrink every violation and attach repro recipes.
[[nodiscard]] ChaosReport run_chaos_campaign(const ChaosOptions& options);

}  // namespace caa::fault
