// Simulator-core throughput: events/sec and protocol messages/sec.
//
// Unlike the §4.4 benches (which reproduce paper *claims*), this bench
// tracks the *implementation*: how fast the event loop, network accounting
// and resolution machinery execute. It sweeps the flat and nested-chain
// scenarios across N and emits BENCH_throughput.json so successive PRs
// record a perf trajectory.
//
// The sweep runs through run::Campaign: every (config, repetition) pair is
// one independent world job, sharded across `--threads` workers. World
// seeds stay at the WorldConfig default (42) — NOT the campaign-derived
// seed — so the per-config `checksum` field stays comparable with every
// earlier PR's BENCH_throughput.json. A `scaling` section re-runs the
// sweep at threads = 1, 2, 4, nproc and records wall time plus the merged
// campaign checksum, which must be identical for every thread count.
//
// The `checksum` field fingerprints the run's observable behaviour (all
// counters + final virtual time + events fired). An optimization PR must
// leave every checksum unchanged: same protocol, faster core.
//
// Usage: bench_throughput [--json PATH] [--only SUBSTR] [--reps K]
//                         [--threads T] [--dump-traces DIR]
//   --json PATH    where to write the JSON document (default
//                  ./BENCH_throughput.json)
//   --only SUBSTR  run only configs whose name contains SUBSTR (profiling
//                  aid; the JSON then covers just those configs)
//   --reps K       repetitions per config (default 3; min wall time wins)
//   --threads T    campaign worker threads (default 1; 0 = nproc)
//   --dump-traces DIR  write per-config flight-recorder dumps
//                  (<config>.caafr) and critical-path summaries
//                  (<config>.critical_path.txt) into DIR
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "perf_json.h"
#include "run/campaign.h"
#include "run/thread_pool.h"
#include "util/hash.h"

namespace caa::bench {
namespace {

struct Config {
  std::string name;    // e.g. "flat_n256"
  std::string family;  // "flat" | "nested" | "tree"
  int participants;
};

/// World job for one config. Seeds are deliberately left at the
/// WorldConfig default so checksums reproduce the committed perf record.
/// `recorder` toggles the flight recorder for the A/B overhead rows.
/// The flat and nested families pin overlay mode kFlat: their checksums
/// predate the relay tree and must not flip when N crosses the kAuto
/// threshold. The tree family is the same flat scenario over batched
/// kRelay envelopes, so the flat_nX / tree_nX row pairs read side by side.
/// Telemetry window for the sweep worlds. Sampling rides the simulator
/// clock and schedules nothing, so arming it must not move any checksum —
/// the committed per-config checksums are the proof.
constexpr sim::Time kTelemetryWindow = 500;

/// run::measure plus the flight records the world pushed (values["records"]),
/// the exact figure the recorder A/B rows gate on.
run::WorldResult measure_world(const Config& config, World& world) {
  run::WorldResult r =
      run::measure(config.name, world, [&world] { return world.run(); });
  r.values["records"] =
      static_cast<std::int64_t>(world.recorder().recorded_total());
  return r;
}

run::WorldResult run_config(const Config& config, bool recorder = true) {
  if (config.family == "flat" || config.family == "tree") {
    scenario::FlatOptions options;
    options.participants = config.participants;
    options.raisers = 2;
    options.world.flight_recorder = recorder;
    options.world.telemetry.window = kTelemetryWindow;
    options.world.overlay.mode = config.family == "tree"
                                     ? overlay::OverlayParams::Mode::kTree
                                     : overlay::OverlayParams::Mode::kFlat;
    scenario::FlatScenario s(options);
    return measure_world(config, s.world());
  }
  scenario::NestedChainOptions options;
  options.participants = config.participants;
  options.depth = 3;
  options.world.flight_recorder = recorder;
  options.world.telemetry.window = kTelemetryWindow;
  options.world.overlay.mode = overlay::OverlayParams::Mode::kFlat;
  scenario::NestedChainScenario s(options);
  return measure_world(config, s.world());
}

/// Re-runs one config with the recorder on and writes its black box plus
/// the extracted critical paths next to the JSON outputs.
bool dump_config_trace(const Config& config, const std::string& dir) {
  const std::string base = dir + "/" + config.name;
  if (config.family == "flat" || config.family == "tree") {
    scenario::FlatOptions options;
    options.participants = config.participants;
    options.raisers = 2;
    options.world.overlay.mode = config.family == "tree"
                                     ? overlay::OverlayParams::Mode::kTree
                                     : overlay::OverlayParams::Mode::kFlat;
    scenario::FlatScenario s(options);
    s.run();
    if (!s.world().write_recorder_dump(base + ".caafr")) return false;
    std::ofstream out(base + ".critical_path.txt", std::ios::binary);
    out << s.world().critical_path_report();
    return out.good();
  }
  scenario::NestedChainOptions options;
  options.participants = config.participants;
  options.depth = 3;
  options.world.overlay.mode = overlay::OverlayParams::Mode::kFlat;
  scenario::NestedChainScenario s(options);
  s.run();
  if (!s.world().write_recorder_dump(base + ".caafr")) return false;
  std::ofstream out(base + ".critical_path.txt", std::ios::binary);
  out << s.world().critical_path_report();
  return out.good();
}

/// One campaign over `configs` (reps jobs per config) at `threads` workers.
run::CampaignResult sweep(const std::vector<Config>& configs, int reps,
                          unsigned threads) {
  run::Campaign campaign({.seed = 42, .threads = threads});
  for (const Config& config : configs) {
    for (int rep = 0; rep < reps; ++rep) {
      campaign.add(config.name + "#" + std::to_string(rep),
                   [&config](const run::WorldContext&) {
                     return run_config(config);
                   });
    }
  }
  return campaign.run();
}

}  // namespace
}  // namespace caa::bench

int main(int argc, char** argv) {
  using namespace caa;
  using namespace caa::bench;

  std::string json_path = "BENCH_throughput.json";
  std::string only;
  std::string dump_dir;
  int repetitions = 3;
  unsigned threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc) {
      only = argv[++i];
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      repetitions = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<unsigned>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--dump-traces") == 0 && i + 1 < argc) {
      dump_dir = argv[++i];
    } else {
      std::fprintf(stderr,
                   "bench_throughput: unknown argument '%s'\n"
                   "usage: bench_throughput [--json PATH] [--only SUBSTR] "
                   "[--reps K] [--threads T] [--dump-traces DIR]\n",
                   argv[i]);
      return 2;
    }
  }

  std::vector<Config> configs;
  for (const int n : {64, 128, 256, 512, 1024}) {
    configs.push_back({"flat_n" + std::to_string(n), "flat", n});
  }
  for (const int n : {64, 128, 256, 512, 1024}) {
    configs.push_back({"nested_n" + std::to_string(n), "nested", n});
  }
  for (const int n : {256, 1024, 4096}) {
    configs.push_back({"tree_n" + std::to_string(n), "tree", n});
  }
  if (!only.empty()) {
    std::erase_if(configs, [&](const Config& c) {
      return c.name.find(only) == std::string::npos;
    });
    if (configs.empty()) {
      std::fprintf(stderr,
                   "bench_throughput: --only '%s' matches no config\n",
                   only.c_str());
      return 2;
    }
  }

  header(
      "Simulator-core throughput (flat: P=2 raisers; nested: depth 3; "
      "tree: flat over relay envelopes)");
  std::printf("%-14s %10s %10s %9s %12s %12s %10s  %s\n", "config", "events",
              "msgs", "msgs/N", "events/s", "msgs/s", "wall ms", "checksum");

  const run::CampaignResult campaign = sweep(configs, repetitions, threads);
  if (!campaign.all_ok()) {
    std::fprintf(stderr, "bench_throughput: world failed: %s\n",
                 campaign.first_error().c_str());
    return 1;
  }

  Json results = Json::array();
  bool checksums_stable = true;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    const Config& config = configs[c];
    // Jobs were added config-major: reps consecutive worlds per config.
    const run::WorldResult* best = nullptr;
    for (int rep = 0; rep < repetitions; ++rep) {
      const run::WorldResult& m =
          campaign.worlds[c * static_cast<std::size_t>(repetitions) +
                          static_cast<std::size_t>(rep)];
      if (best == nullptr) {
        best = &m;
      } else {
        // Identical work every repetition, or the bench itself is broken.
        if (m.checksum != best->checksum || m.events != best->events) {
          checksums_stable = false;
        }
        if (m.wall_ms < best->wall_ms) best = &m;
      }
    }
    const double events_per_sec =
        best->wall_ms > 0.0
            ? 1e3 * static_cast<double>(best->events) / best->wall_ms
            : 0.0;
    const double messages_per_sec =
        best->wall_ms > 0.0
            ? 1e3 * static_cast<double>(best->messages) / best->wall_ms
            : 0.0;
    // Per-participant load: totals hide that O(N^2) protocols overload
    // every member linearly in N, which is the quantity the relay tree
    // flattens.
    const double messages_per_participant =
        static_cast<double>(best->messages) /
        static_cast<double>(config.participants);
    const std::string checksum = hex_digest(best->checksum);
    std::printf("%-14s %10lld %10lld %9.1f %12.0f %12.0f %10.3f  %s\n",
                config.name.c_str(), static_cast<long long>(best->events),
                static_cast<long long>(best->messages),
                messages_per_participant, events_per_sec, messages_per_sec,
                best->wall_ms, checksum.c_str());

    // The full counter snapshot rides along so downstream tooling can diff
    // behaviour between runs without re-deriving it from the checksum.
    Json metrics = Json::object();
    for (const auto& [name, value] : best->metrics.counters) {
      metrics.set(name, Json::num(value));
    }
    // Per-window peaks from the virtual-time sampler: how *hot* the run got,
    // which end-of-run totals cannot show. Deterministic (virtual-time
    // windows), so the --compare gate can diff them across PRs.
    const obs::TimeSeriesTable& ts = best->timeseries;
    Json telemetry =
        Json::object()
            .set("window", Json::num(static_cast<std::int64_t>(ts.window)))
            .set("windows",
                 Json::num(static_cast<std::int64_t>(ts.windows.size())))
            .set("peak_sim_queue_depth",
                 Json::num(ts.peak_of("sim.queue_depth")))
            .set("peak_net_in_flight", Json::num(ts.peak_of("net.in_flight")))
            .set("peak_resolve_outstanding_acks",
                 Json::num(ts.peak_of("resolve.outstanding_acks")))
            .set("peak_overlay_outbox_backlog",
                 Json::num(ts.peak_of("overlay.outbox_backlog")))
            .set("peak_caa_open_scopes",
                 Json::num(ts.peak_of("caa.open_scopes")));
    results.push(
        Json::object()
            .set("bench", Json::str("bench_throughput"))
            .set("config", Json::str(config.name))
            .set("family", Json::str(config.family))
            .set("participants", Json::num(std::int64_t{config.participants}))
            .set("events", Json::num(best->events))
            .set("events_per_sec", Json::num(events_per_sec))
            .set("messages", Json::num(best->messages))
            .set("messages_per_participant", Json::num(messages_per_participant))
            .set("messages_per_sec", Json::num(messages_per_sec))
            .set("wall_ms", Json::num(best->wall_ms))
            .set("sim_time", Json::num(static_cast<std::int64_t>(best->sim_time)))
            .set("checksum", Json::str(checksum))
            .set("telemetry", std::move(telemetry))
            .set("metrics", std::move(metrics)));
  }

  if (!checksums_stable) {
    std::fprintf(stderr,
                 "bench_throughput: nondeterministic run detected — "
                 "checksums differ across repetitions\n");
    return 1;
  }

  // Flat-vs-tree dissemination at the §4.4 worst case (every member
  // raises): the quantity the relay tree exists for. Flat is measured
  // where affordable and otherwise taken from the paper's exact closed
  // form (N-1)(2N+1), which bench_msg_complexity verifies measured==
  // formula across N. Two gates are enforced here, not just reported:
  // the degenerate fanout>=N tree must resolve exactly what flat mode
  // resolves (same seed), and at N=1024 tree envelopes must stay within
  // 10% of the flat message bill.
  struct DissemMeasurement {
    std::int64_t messages = 0;
    std::uint64_t resolved = 0;
    bool all_handled = false;
  };
  const auto run_dissemination = [](int n, overlay::OverlayParams::Mode mode,
                                    std::uint32_t fanout) {
    scenario::FlatOptions options;
    options.participants = n;
    options.raisers = n;
    options.world.overlay.mode = mode;
    options.world.overlay.fanout = fanout;
    options.world.flight_recorder = false;  // keep the N=1024 worlds lean
    scenario::FlatScenario s(options);
    DissemMeasurement m;
    const scenario::RunStats stats = s.run();
    m.messages = stats.messages;
    m.all_handled = stats.all_handled;
    m.resolved = scenario::resolved_checksum(s.objects());
    return m;
  };
  const auto flat_closed_form = [](std::int64_t n) {
    return (n - 1) * (2 * n + 1);
  };

  std::printf("\n%-6s %14s %14s %9s %9s %9s  %s\n", "N", "flat msgs",
              "tree msgs", "flat/N", "tree/N", "ratio", "source");
  Json dissemination = Json::array();
  if (only.empty()) {
    // Degenerate gate: fanout >= N collapses the tree to a star; the
    // resolved exceptions must be byte-identical to flat mode.
    {
      const DissemMeasurement flat =
          run_dissemination(256, overlay::OverlayParams::Mode::kFlat, 8);
      const DissemMeasurement star =
          run_dissemination(256, overlay::OverlayParams::Mode::kTree, 256);
      if (!flat.all_handled || !star.all_handled ||
          flat.resolved != star.resolved) {
        std::fprintf(stderr,
                     "bench_throughput: degenerate fanout=N tree diverged "
                     "from flat resolution at N=256 (flat=%016llx "
                     "tree=%016llx)\n",
                     static_cast<unsigned long long>(flat.resolved),
                     static_cast<unsigned long long>(star.resolved));
        return 1;
      }
    }
    std::int64_t tree_n1024 = 0;
    for (const int n : {256, 1024, 4096}) {
      const bool measure_flat = n <= 1024;  // N=4096 flat: 33.5M messages
      const std::int64_t flat_messages = flat_closed_form(n);
      bool resolved_match = true;
      if (measure_flat) {
        const DissemMeasurement flat =
            run_dissemination(n, overlay::OverlayParams::Mode::kFlat, 8);
        const DissemMeasurement tree =
            run_dissemination(n, overlay::OverlayParams::Mode::kTree, 8);
        resolved_match = flat.all_handled && tree.all_handled &&
                         flat.resolved == tree.resolved;
        if (flat.messages != flat_messages || !resolved_match) {
          std::fprintf(stderr,
                       "bench_throughput: dissemination mismatch at N=%d "
                       "(flat measured=%lld formula=%lld resolved_match=%d)\n",
                       n, static_cast<long long>(flat.messages),
                       static_cast<long long>(flat_messages),
                       resolved_match ? 1 : 0);
          return 1;
        }
        if (n == 1024) {
          tree_n1024 = tree.messages;
          if (tree.messages * 10 > flat_messages) {
            std::fprintf(stderr,
                         "bench_throughput: tree dissemination at N=1024 "
                         "sent %lld messages, above 10%% of flat %lld\n",
                         static_cast<long long>(tree.messages),
                         static_cast<long long>(flat_messages));
            return 1;
          }
        }
        const double ratio = static_cast<double>(tree.messages) /
                             static_cast<double>(flat_messages);
        std::printf("%-6d %14lld %14lld %9.1f %9.1f %8.2f%%  measured\n", n,
                    static_cast<long long>(flat_messages),
                    static_cast<long long>(tree.messages),
                    static_cast<double>(flat_messages) / n,
                    static_cast<double>(tree.messages) / n, 100.0 * ratio);
        dissemination.push(
            Json::object()
                .set("participants", Json::num(std::int64_t{n}))
                .set("flat_messages", Json::num(flat_messages))
                .set("flat_source", Json::str("measured"))
                .set("tree_messages", Json::num(tree.messages))
                .set("tree_source", Json::str("measured"))
                .set("tree_over_flat", Json::num(ratio))
                .set("flat_per_participant",
                     Json::num(static_cast<double>(flat_messages) / n))
                .set("tree_per_participant",
                     Json::num(static_cast<double>(tree.messages) / n))
                .set("resolved_checksum_match", Json::boolean(true)));
      } else {
        // Both cells projected: flat from the exact closed form, tree by
        // scaling the measured N=1024 envelope bill linearly in N (the
        // fanout-8 tree keeps the same depth at 1024 and 4096, so edge
        // count — and with it the batched envelope count — grows ~N).
        const std::int64_t tree_projected = tree_n1024 * (n / 1024);
        const double ratio = static_cast<double>(tree_projected) /
                             static_cast<double>(flat_messages);
        std::printf("%-6d %14lld %14lld %9.1f %9.1f %8.2f%%  projected\n", n,
                    static_cast<long long>(flat_messages),
                    static_cast<long long>(tree_projected),
                    static_cast<double>(flat_messages) / n,
                    static_cast<double>(tree_projected) / n, 100.0 * ratio);
        dissemination.push(
            Json::object()
                .set("participants", Json::num(std::int64_t{n}))
                .set("flat_messages", Json::num(flat_messages))
                .set("flat_source", Json::str("closed_form"))
                .set("tree_messages", Json::num(tree_projected))
                .set("tree_source", Json::str("projected"))
                .set("tree_over_flat", Json::num(ratio))
                .set("flat_per_participant",
                     Json::num(static_cast<double>(flat_messages) / n))
                .set("tree_per_participant",
                     Json::num(static_cast<double>(tree_projected) / n)));
      }
    }
  } else {
    std::printf("(skipped under --only)\n");
  }

  // Scaling rows: the same sweep (one rep) at 1, 2, 4 and nproc workers.
  // The merged campaign checksum must not depend on the thread count.
  std::vector<unsigned> scaling_threads{1, 2, 4,
                                        run::ThreadPool::default_threads()};
  std::sort(scaling_threads.begin(), scaling_threads.end());
  scaling_threads.erase(
      std::unique(scaling_threads.begin(), scaling_threads.end()),
      scaling_threads.end());

  std::printf("\n%-10s %12s %12s  %s\n", "threads", "wall ms", "events/s",
              "merged checksum");
  Json scaling = Json::array();
  std::uint64_t reference_digest = 0;
  bool merged_stable = true;
  for (std::size_t i = 0; i < scaling_threads.size(); ++i) {
    const unsigned t = scaling_threads[i];
    const run::CampaignResult r = sweep(configs, /*reps=*/1, t);
    if (!r.all_ok()) {
      std::fprintf(stderr, "bench_throughput: world failed: %s\n",
                   r.first_error().c_str());
      return 1;
    }
    if (i == 0) {
      reference_digest = r.merged_checksum;
    } else if (r.merged_checksum != reference_digest) {
      merged_stable = false;
    }
    const double events_per_sec =
        r.wall_ms > 0.0
            ? 1e3 * static_cast<double>(r.total_events) / r.wall_ms
            : 0.0;
    std::printf("%-10u %12.3f %12.0f  %s\n", t, r.wall_ms, events_per_sec,
                hex_digest(r.merged_checksum).c_str());
    scaling.push(Json::object()
                     .set("threads", Json::num(static_cast<std::int64_t>(t)))
                     .set("wall_ms", Json::num(r.wall_ms))
                     .set("events_per_sec", Json::num(events_per_sec))
                     .set("total_events", Json::num(r.total_events))
                     .set("merged_checksum",
                          Json::str(hex_digest(r.merged_checksum))));
  }
  if (!merged_stable) {
    std::fprintf(stderr,
                 "bench_throughput: merged campaign checksum depends on "
                 "thread count\n");
    return 1;
  }

  // Flight-recorder A/B: interleaved on/off repetitions of the largest
  // config per family. The recorder must be behaviourally invisible
  // (identical checksums — the zero-drift contract) and cheap (the issue
  // budget is <= 10% throughput overhead).
  std::printf("\n%-14s %12s %12s %10s\n", "recorder A/B", "on ms", "off ms",
              "overhead");
  Json overhead_rows = Json::array();
  for (const Config& config : configs) {
    if (config.participants != 1024) continue;  // largest of each family
    double on_ms = 0.0;
    double off_ms = 0.0;
    std::int64_t records = 0;
    std::int64_t events = 0;
    std::uint64_t on_checksum = 0;
    std::uint64_t off_checksum = 0;
    for (int rep = 0; rep < repetitions; ++rep) {  // interleaved on/off
      const run::WorldResult on = run_config(config, /*recorder=*/true);
      const run::WorldResult off = run_config(config, /*recorder=*/false);
      if (rep == 0 || on.wall_ms < on_ms) on_ms = on.wall_ms;
      if (rep == 0 || off.wall_ms < off_ms) off_ms = off.wall_ms;
      records = on.values.at("records");
      events = on.events;
      on_checksum = on.checksum;
      off_checksum = off.checksum;
    }
    if (on_checksum != off_checksum) {
      std::fprintf(stderr,
                   "bench_throughput: flight recorder drifted behaviour on "
                   "%s (on=%s off=%s)\n",
                   config.name.c_str(), hex_digest(on_checksum).c_str(),
                   hex_digest(off_checksum).c_str());
      return 1;
    }
    const double overhead = off_ms > 0.0 ? on_ms / off_ms - 1.0 : 0.0;
    std::printf("%-14s %12.3f %12.3f %9.1f%%\n", config.name.c_str(), on_ms,
                off_ms, 100.0 * overhead);
    if (overhead > 0.10) {
      std::fprintf(stderr,
                   "bench_throughput: WARNING recorder overhead %.1f%% on %s "
                   "exceeds the 10%% budget\n",
                   100.0 * overhead, config.name.c_str());
    }
    // Wall-clock leaves end in _ms (never gated); the record counts are
    // exact and gated.
    overhead_rows.push(
        Json::object()
            .set("config", Json::str(config.name))
            .set("recorder_on_ms", Json::num(on_ms))
            .set("recorder_off_ms", Json::num(off_ms))
            .set("overhead_ms", Json::num(on_ms - off_ms))
            .set("records", Json::num(records))
            .set("records_per_event",
                 Json::num(static_cast<double>(records) /
                           static_cast<double>(events)))
            .set("checksum_match", Json::boolean(true)));
  }

  if (!dump_dir.empty()) {
    for (const Config& config : configs) {
      if (!dump_config_trace(config, dump_dir)) {
        std::fprintf(stderr, "bench_throughput: cannot write traces to %s\n",
                     dump_dir.c_str());
        return 1;
      }
    }
    std::printf("\nwrote %zu flight-recorder dumps to %s\n", configs.size(),
                dump_dir.c_str());
  }

  Json doc = bench_doc("bench_throughput", /*schema_version=*/6, threads)
                 .set("repetitions", Json::num(std::int64_t{repetitions}))
                 .set("results", std::move(results))
                 .set("dissemination", std::move(dissemination))
                 .set("latency", latency_percentiles(campaign.merged_metrics))
                 .set("recorder_overhead", std::move(overhead_rows))
                 .set("scaling", std::move(scaling));
  if (!doc.write_file(json_path)) return 1;
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
