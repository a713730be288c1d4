#include "fault/chaos.h"

#include <cstdio>
#include <utility>
#include <vector>

#include "caa/world.h"
#include "fault/injector.h"
#include "fault/oracle.h"
#include "fault/repro.h"
#include "obs/causal.h"

namespace caa::fault {
namespace {

// Decorrelates the plan-generation stream from the scenario stream: both
// are pure functions of the trial seed, but must not consume each other's
// draws or a shrunk plan would change the world it replays against.
constexpr std::uint64_t kPlanStream = 0x9e3779b97f4a7c15ULL;

Rng scenario_rng(std::uint64_t trial_seed) { return Rng(trial_seed); }

}  // namespace

std::uint32_t trial_participants(std::uint64_t trial_seed,
                                 const ChaosOptions& options) {
  CAA_CHECK(options.min_participants >= 2 &&
            options.max_participants >= options.min_participants);
  Rng rng = scenario_rng(trial_seed);
  return options.min_participants +
         static_cast<std::uint32_t>(rng.below(
             options.max_participants - options.min_participants + 1));
}

FaultPlan chaos_plan(std::uint64_t trial_seed, const ChaosOptions& options) {
  PlanGenOptions gen;
  gen.mix = options.mix;
  gen.nodes = trial_participants(trial_seed, options);
  gen.horizon = options.horizon;
  Rng rng(trial_seed ^ kPlanStream);
  FaultPlan plan = generate_plan(rng, gen);
  plan.exit = options.exit;
  plan.avoid = options.avoid;
  return plan;
}

run::WorldResult run_chaos_trial(std::uint64_t trial_seed,
                                 const FaultPlan& plan,
                                 const ChaosOptions& options,
                                 std::size_t index,
                                 std::string* critical_path,
                                 std::string* trace_log,
                                 std::string* watchdog_report) {
  Rng rng = scenario_rng(trial_seed);
  const std::uint32_t n =
      options.min_participants +
      static_cast<std::uint32_t>(rng.below(
          options.max_participants - options.min_participants + 1));

  WorldConfig config;
  config.link = net::LinkParams::lan();
  config.seed = trial_seed;
  config.reliable_transport = true;
  // Give-up horizon rto * max_retries = 12000 ticks: even a worst-case
  // chain of every generated outage window on one channel pair (5 windows
  // x 2000 ticks) cannot strand a retransmission permanently, so "stuck"
  // oracle hits are protocol bugs, not transport give-ups.
  config.reliable.rto = 300;
  config.reliable.max_retries = 40;
  config.overlay = options.overlay;
  // The plan (not the options) carries the exit protocol so a shrunk repro
  // replays against the protocol it was found with. GC'd leave records keep
  // long campaigns lean and exercise the ack path under faults.
  config.exit_protocol = plan.exit;
  config.resolve_avoidance = plan.avoid;
  config.exit_gc = true;
  config.watchdog_deadline = options.watchdog_deadline;
  World w(config);

  std::vector<action::Participant*> objects;
  std::vector<ObjectId> ids;
  for (std::uint32_t i = 0; i < n; ++i) {
    const NodeId node = w.add_node();
    objects.push_back(&w.add_participant("O" + std::to_string(i + 1), node));
    ids.push_back(objects.back()->id());
  }
  ex::ExceptionTree tree;
  const auto cover = tree.declare("cover");
  tree.declare("ea", cover);
  tree.declare("eb", cover);
  tree.declare("peer_crash");
  const auto& decl = w.actions().declare("A", std::move(tree));
  const auto& inst = w.actions().create_instance(decl, ids);
  for (auto* o : objects) {
    const bool entered = o->enter(
        inst.instance,
        action::EnterConfig::with(
            action::uniform_handlers(
                decl.tree(), ex::HandlerResult::recovered(rng.below(300))))
            .committee(options.committee)
            .on_peer_crash(decl.tree().find("peer_crash")));
    CAA_CHECK_MSG(entered, "chaos trial: initial enter refused");
  }
  // 1-2 raisers at random times, guarded: a raise is only legal while the
  // participant is working normally inside the action.
  const int raisers = 1 + static_cast<int>(rng.below(2));
  for (int i = 0; i < raisers; ++i) {
    action::Participant* p = objects[rng.below(objects.size())];
    const sim::Time t = 1000 + static_cast<sim::Time>(rng.below(500));
    const bool which = rng.chance(0.5);
    w.at(t, [p, which] {
      if (!p->in_action()) return;
      if (p->at_acceptance_line()) return;
      if (p->resolver_state() != resolve::ResolverCore::State::kNormal) return;
      p->raise(which ? "ea" : "eb");
    });
  }
  // Idle survivors eventually complete; restarted/crashed participants
  // fall out via the in_action() guard.
  for (auto* o : objects) {
    for (sim::Time t = 6000; t <= 30000; t += 2000) {
      w.at(t, [o] {
        if (o->in_action() && !o->at_acceptance_line() &&
            o->resolver_state() == resolve::ResolverCore::State::kNormal) {
          o->complete();
        }
      });
    }
  }

  FaultInjector injector(w, plan);
  run::WorldResult r =
      run::measure("chaos#" + std::to_string(index), w,
                   [&w, &options] {
                     return w.simulator().run_until(options.deadline);
                   });

  if (trace_log != nullptr) {
    for (const obs::FlightRecord& rec : w.recorder().snapshot()) {
      *trace_log += obs::format_record(rec);
      *trace_log += '\n';
    }
  }
  // run_until bypasses World::run, so close the watchdog here: any scope
  // still open at the deadline is a stall worth explaining.
  w.watchdog().finish(w.simulator().now());
  if (watchdog_report != nullptr) *watchdog_report = w.watchdog().report_text();
  OracleOptions oracle;
  oracle.deadline = options.deadline;
  const OracleReport report = check_invariants(w, oracle);
  r.values["chaos.plans"] = 1;
  r.values["chaos.plan_events"] =
      static_cast<std::int64_t>(plan.events.size());
  if (!report.ok()) {
    r.ok = false;
    r.error = report.summary();
    r.artifact = plan.to_text();
    if (critical_path != nullptr) *critical_path = w.critical_path_report();
    if (!options.dump_dir.empty()) {
      const std::string path = options.dump_dir + "/chaos" +
                               std::to_string(index) + "_seed" +
                               seed_hex(trial_seed) + ".caafr";
      if (w.write_recorder_dump(path, index)) r.recorder_dump_path = path;
    }
  }
  return r;
}

ChaosReport run_chaos_campaign(const ChaosOptions& options) {
  run::Campaign campaign({.seed = options.seed, .threads = options.threads});
  for (std::size_t i = 0; i < options.plans; ++i) {
    campaign.add("chaos#" + std::to_string(i),
                 [&options](const run::WorldContext& ctx) {
                   const FaultPlan plan = chaos_plan(ctx.seed, options);
                   // No dump during the sweep: the post-pass re-runs the
                   // *shrunk* plan and dumps that — the artifact a human
                   // debugs should match the minimal repro.
                   ChaosOptions sweep = options;
                   sweep.dump_dir.clear();
                   return run_chaos_trial(ctx.seed, plan, sweep, ctx.index);
                 });
  }
  ChaosReport report;
  report.campaign = campaign.run();
  report.violations = report.campaign.failed;
  if (report.violations == 0 || !options.shrink) return report;

  // Post-pass, sequential and deterministic: shrink every failing plan and
  // re-run the minimal plan once to dump its flight recorder and critical
  // path.
  for (run::WorldResult& world : report.campaign.worlds) {
    if (world.ok) continue;
    auto parsed = FaultPlan::parse(world.artifact);
    if (!parsed.is_ok()) continue;  // violation had no plan attached
    ChaosOptions replay = options;
    replay.dump_dir.clear();
    const std::uint64_t trial_seed = world.seed;
    const std::size_t index = world.index;
    const ShrinkResult shrunk = shrink_plan(
        parsed.value(),
        [&](const FaultPlan& candidate) {
          return !run_chaos_trial(trial_seed, candidate, replay, index).ok;
        },
        options.shrink_options);
    std::string critical_path;
    const run::WorldResult minimal = run_chaos_trial(
        trial_seed, shrunk.plan, options, index, &critical_path);
    if (!minimal.recorder_dump_path.empty()) {
      world.recorder_dump_path = minimal.recorder_dump_path;
    }
    std::string repro = "  repro (plan shrunk " +
                        std::to_string(parsed.value().events.size()) + " -> " +
                        std::to_string(shrunk.plan.events.size()) +
                        " events, " + std::to_string(shrunk.replays) +
                        " replays" +
                        (shrunk.minimal ? "" : ", replay budget hit") +
                        "):\n";
    // The recipe body is exactly what parse_repro reads back, so a saved
    // failure report replays with `caa-chaos --replay <file>`.
    repro += "    trial seed 0x" + seed_hex(trial_seed) + ", mix " +
             std::string(fault_mix_name(options.mix)) + ", " +
             std::to_string(trial_participants(trial_seed, options)) +
             " participants\n";
    append_indented(repro, shrunk.plan.to_text());
    if (!critical_path.empty()) {
      repro += "  critical path (caa-inspect decodes the dump):\n";
      append_indented(repro, critical_path);
    }
    world.repro = std::move(repro);
  }
  return report;
}

}  // namespace caa::fault
