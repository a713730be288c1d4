// caa-chaos: run (or replay) deterministic chaos campaigns from the shell.
//
//   caa-chaos                                  1000 mixed plans, seed 42
//   caa-chaos --plans 10000 --threads 8        the acceptance campaign
//   caa-chaos --profile crash-heavy            pick a fault-mix profile
//   caa-chaos --dump-dir traces                flight-recorder dumps on
//                                              violation (shrunk plan)
//   caa-chaos --index 137 --show-plan          print one trial's plan and
//                                              replay just that trial
//   caa-chaos --replay repro.txt               replay a shrunk repro file
//                                              (seed + plan in one artifact)
//
// Exit codes: 0 all plans clean, 1 oracle violations, 2 usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "fault/chaos.h"
#include "fault/repro.h"
#include "run/campaign.h"

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: caa-chaos [--plans N] [--seed S] [--threads T]\n"
      "                 [--profile mixed|crash-heavy|network-only|"
      "resolver-hunt]\n"
      "                 [--participants MIN[:MAX]] [--tree [FANOUT]]\n"
      "                 [--exit barrier|paxos] [--avoid] [--dump-dir DIR] "
      "[--no-shrink]\n"
      "                 [--index I [--show-plan] [--trace]]\n"
      "                 [--replay FILE]\n"
      "  --participants  committee size range per trial (default 3:6)\n"
      "  --tree          relay-tree dissemination (optional fanout, "
      "default 8)\n"
      "  --exit          exit protocol per trial: the done-barrier "
      "(default)\n"
      "                  or non-blocking Paxos Commit\n"
      "  --avoid         coordination avoidance: commutative raise sets\n"
      "                  commit via the leader census fast path\n"
      "  --trace         print the replayed trial's flight records\n"
      "                  (caa-inspect format)\n"
      "  --watchdog T    stall-diagnosis deadline in virtual ticks for\n"
      "                  --index/--replay replays (default 10000; 0 disarms)\n"
      "  --replay FILE   replay one shrunk repro artifact — the recipe a\n"
      "                  failure report prints (trial seed header + indented\n"
      "                  faultplan) — without needing the original campaign\n");
}

}  // namespace

int main(int argc, char** argv) {
  caa::fault::ChaosOptions options;
  options.threads = 0;  // CLI default: all cores (results are invariant)
  long long replay_index = -1;
  long long watchdog_deadline = 10'000;  // --index/--replay replays only
  bool show_plan = false;
  bool trace = false;
  std::string replay_file;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--plans") {
      options.plans = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--seed") {
      options.seed = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--threads") {
      options.threads = static_cast<unsigned>(std::strtoul(next(), nullptr, 10));
    } else if (arg == "--profile") {
      const auto mix = caa::fault::parse_fault_mix(next());
      if (!mix.is_ok()) {
        std::fprintf(stderr, "caa-chaos: %s\n", mix.status().message().c_str());
        return 2;
      }
      options.mix = mix.value();
    } else if (arg == "--participants") {
      const std::string range = next();
      const std::size_t colon = range.find(':');
      options.min_participants = static_cast<std::uint32_t>(
          std::strtoul(range.c_str(), nullptr, 10));
      options.max_participants =
          colon == std::string::npos
              ? options.min_participants
              : static_cast<std::uint32_t>(
                    std::strtoul(range.c_str() + colon + 1, nullptr, 10));
      if (options.min_participants < 2 ||
          options.max_participants < options.min_participants) {
        std::fprintf(stderr, "caa-chaos: bad --participants range '%s'\n",
                     range.c_str());
        return 2;
      }
    } else if (arg == "--tree") {
      options.overlay.mode = caa::overlay::OverlayParams::Mode::kTree;
      // Optional fanout operand (next arg if numeric).
      if (i + 1 < argc && std::isdigit(static_cast<unsigned char>(argv[i + 1][0]))) {
        options.overlay.fanout =
            static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
      }
    } else if (arg == "--exit") {
      const auto kind = caa::exit::parse_exit_kind(next());
      if (!kind.is_ok()) {
        std::fprintf(stderr, "caa-chaos: %s\n",
                     kind.status().message().c_str());
        return 2;
      }
      options.exit = kind.value();
    } else if (arg == "--avoid") {
      options.avoid = true;
    } else if (arg == "--dump-dir") {
      options.dump_dir = next();
    } else if (arg == "--no-shrink") {
      options.shrink = false;
    } else if (arg == "--index") {
      replay_index = std::strtoll(next(), nullptr, 10);
    } else if (arg == "--replay") {
      replay_file = next();
    } else if (arg == "--watchdog") {
      watchdog_deadline = std::strtoll(next(), nullptr, 10);
    } else if (arg == "--show-plan") {
      show_plan = true;
    } else if (arg == "--trace") {
      trace = true;
    } else {
      usage();
      return 2;
    }
  }

  if (!replay_file.empty()) {
    // Replay a saved repro recipe: the artifact is self-contained (seed,
    // mix, participant count, exit protocol and the shrunk plan all live in
    // the text), so no campaign context is needed.
    std::ifstream in(replay_file);
    if (!in) {
      std::fprintf(stderr, "caa-chaos: cannot read '%s'\n",
                   replay_file.c_str());
      return 2;
    }
    std::ostringstream content;
    content << in.rdbuf();
    const auto repro = caa::fault::parse_repro(content.str());
    if (!repro.is_ok()) {
      std::fprintf(stderr, "caa-chaos: %s\n",
                   repro.status().message().c_str());
      return 2;
    }
    const caa::fault::ReproArtifact& artifact = repro.value();
    options.watchdog_deadline = watchdog_deadline;
    options.mix = artifact.mix;
    options.min_participants = artifact.participants;
    options.max_participants = artifact.participants;
    if (show_plan) std::fputs(artifact.plan.to_text().c_str(), stdout);
    std::string trace_log;
    std::string critical_path;
    std::string watchdog_report;
    const caa::run::WorldResult result = caa::fault::run_chaos_trial(
        artifact.seed, artifact.plan, options, 0, &critical_path,
        trace ? &trace_log : nullptr, &watchdog_report);
    if (!trace_log.empty()) std::fputs(trace_log.c_str(), stdout);
    if (!result.ok && !critical_path.empty()) {
      std::fputs(critical_path.c_str(), stdout);
    }
    if (!watchdog_report.empty()) std::fputs(watchdog_report.c_str(), stdout);
    std::printf("replay %s: %s (events %lld, checksum %016llx)\n",
                replay_file.c_str(), result.ok ? "ok" : result.error.c_str(),
                static_cast<long long>(result.events),
                static_cast<unsigned long long>(result.checksum));
    return result.ok ? 0 : 1;
  }

  if (replay_index >= 0) {
    // Replay one trial exactly as the campaign would run it — plus the
    // liveness watchdog, whose diagnoses (stuck scope, phase, awaited
    // members, causal tail) print alongside the critical path. Arming it
    // never changes the trial's checksum.
    options.watchdog_deadline = watchdog_deadline;
    const std::uint64_t trial_seed =
        caa::run::derive_seed(options.seed, static_cast<std::size_t>(replay_index));
    const caa::fault::FaultPlan plan =
        caa::fault::chaos_plan(trial_seed, options);
    if (show_plan) std::fputs(plan.to_text().c_str(), stdout);
    std::string trace_log;
    std::string critical_path;
    std::string watchdog_report;
    const caa::run::WorldResult result = caa::fault::run_chaos_trial(
        trial_seed, plan, options, static_cast<std::size_t>(replay_index),
        &critical_path, trace ? &trace_log : nullptr,
        &watchdog_report);
    if (!trace_log.empty()) std::fputs(trace_log.c_str(), stdout);
    if (!result.ok && !critical_path.empty()) {
      std::fputs(critical_path.c_str(), stdout);
    }
    if (!watchdog_report.empty()) std::fputs(watchdog_report.c_str(), stdout);
    std::printf("trial %lld: %s (events %lld, checksum %016llx)\n",
                replay_index, result.ok ? "ok" : result.error.c_str(),
                static_cast<long long>(result.events),
                static_cast<unsigned long long>(result.checksum));
    return result.ok ? 0 : 1;
  }

  const caa::fault::ChaosReport report = caa::fault::run_chaos_campaign(options);
  std::printf(
      "chaos: %zu plans, profile %s, seed %llu, %u thread(s): "
      "%zu violation(s)\n",
      options.plans, std::string(caa::fault::fault_mix_name(options.mix)).c_str(),
      static_cast<unsigned long long>(options.seed),
      report.campaign.threads_used, report.violations);
  std::printf("  merged checksum %016llx, total events %lld, wall %.0f ms\n",
              static_cast<unsigned long long>(report.campaign.merged_checksum),
              static_cast<long long>(report.campaign.total_events),
              report.campaign.wall_ms);
  if (!report.ok()) {
    std::fputs(report.failure_report().c_str(), stdout);
    std::fputs("\n", stdout);
    return 1;
  }
  return 0;
}
