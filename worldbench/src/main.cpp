// worldbench: the repository's closed-loop benchmark over simulated
// CA-action worlds.
//
//   worldbench --workload NAME --seed N --seconds S --trace 0|1
//              [--spans-dir DIR] [--world I]
//
// One client on one thread: a world is built, run, checked and destroyed
// before the next one is built. A workload is a fixed set of inputs
// generated from --seed; passes over it repeat until --seconds have gone.
// The first pass verifies: it reads every world's counters, which give the
// modelled metrics exactly, and later passes must reproduce its checksums.
// The first world of the process is a warm-up and is left out of every host
// time. Host times are each input's best pass (see Best).
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates traced and
// untraced passes and prints the per-layer metrics: span self times, the
// counters read after each world, and the allocation counts read at each
// span boundary of the verifying pass. Spans are kept in memory and written
// to DIR/<workload>_seed<N>.tsv at the end. --world I runs input I once and
// reports it, which replays a failure recipe.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "probe.h"
#include "workloads.h"

namespace wb {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_dir = ".bench_build/spans";
  long world = -1;  // >= 0: replay one input
};

bool parse_number(const char* text, unsigned long long& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(text, &end, 10);
  return errno == 0 && end != text && *end == '\0';
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    unsigned long long n = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--spans-dir") {
      args.spans_dir = value;
    } else if (!parse_number(value, n)) {
      return false;
    } else if (flag == "--seed") {
      args.seed = n;
    } else if (flag == "--seconds" && n >= 1 && n <= 3600) {
      args.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && n <= 1) {
      args.trace = n == 1;
    } else if (flag == "--world" && n < 1'000'000) {
      args.world = static_cast<long>(n);
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty();
}

// ---- Failure recipe: written by the SIGABRT handler a CAA_CHECK ends in.

char g_recipe[256] = "";

extern "C" void on_abort(int) {
  const ssize_t ignored = write(STDERR_FILENO, g_recipe, std::strlen(g_recipe));
  (void)ignored;
  std::signal(SIGABRT, SIG_DFL);
  std::raise(SIGABRT);
}

void note_recipe(const Args& args, std::size_t index) {
  std::snprintf(g_recipe, sizeof g_recipe,
                "worldbench: aborted in workload %s, seed %llu, world %zu; "
                "replay: python3 worldbench/run.py --workload %s --seed %llu "
                "--world %zu\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), index,
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), index);
}

// ---- Exact sample statistics.

/// Nearest-rank quantile of sorted samples: always an observed value, so
/// never outside [min, max].
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

struct Tail {
  double value = 0.0;
  std::string label;
};

/// The highest of p99.9, p99, p90 and p50 with at least ten samples beyond
/// it; the max when there are fewer than twenty samples. The coarse ladder
/// keeps a run's tail on one percentile while its sample count drifts.
Tail tail(const std::vector<double>& sorted) {
  const std::size_t n = sorted.size();
  for (const double q : {0.999, 0.99, 0.9, 0.5}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    if (rank >= 1 && n - rank >= 10) {
      char label[64];
      std::snprintf(label, sizeof label, "p%g of %zu samples", q * 100, n);
      return {quantile(sorted, q), label};
    }
  }
  return {sorted.empty() ? 0.0 : sorted.back(),
          "max of " + std::to_string(n) + " samples"};
}

std::vector<double> sorted(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

// ---- Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void print_fingerprint() {
  utsname host{};
  uname(&host);
#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  const char* compiler = "gcc " __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  std::printf("host: nproc=%ld machine=%s kernel=%s compiler=\"%s\" "
              "build_type=%s cxx_flags=\"%s\"\n",
              sysconf(_SC_NPROCESSORS_ONLN), host.machine, host.release,
              compiler, WB_BUILD_TYPE, WB_CXX_FLAGS);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
  }
  return h;
}

// ---- Per-layer figures of the verifying pass.

std::int64_t counter(const WorldRecord& r, std::string_view name) {
  const auto it = r.counters.counters.find(name);
  return it == r.counters.counters.end() ? 0 : it->second;
}

std::int64_t counter_prefix(const WorldRecord& r, std::string_view prefix) {
  std::int64_t total = 0;
  for (auto it = r.counters.counters.lower_bound(prefix);
       it != r.counters.counters.end() && it->first.starts_with(prefix); ++it) {
    total += it->second;
  }
  return total;
}

std::int64_t peak(const WorldRecord& r, std::string_view gauge) {
  const auto it = r.peaks.find(gauge);
  return it == r.peaks.end() ? 0 : it->second;
}

/// Span names grouped by the layer metric their self time reports.
struct SpanMetric {
  const char* span;
  const char* metric;
  bool setup;  // counted in the caa.setup_* allocation figures
};
constexpr SpanMetric kSpanMetrics[] = {
    {"world", "bench.world_self_s", false},
    {"construct", "caa.construct_s", true},
    {"add_participant", "caa.add_participant_s", true},
    {"declare", "caa.declare_s", true},
    {"create_instance", "caa.create_instance_s", true},
    {"enter", "caa.enter_s", true},
    {"schedule", "caa.schedule_s", true},
    {"run", "sim.run_s", false},
    {"check", "bench.check_s", false},
    {"destroy", "caa.destroy_s", false},
    {"chaos_plan", "fault.plan_s", false},
    {"run_chaos_trial", "fault.trial_s", false},
};

struct SpanTotals {
  double self_s = 0.0;
  AllocTally self_allocs;
};

/// Self time and self allocations per span name, over the spans whose world
/// id passes `keep`.
template <class Keep>
std::map<std::string_view, SpanTotals> span_totals(const SpanLog& spans,
                                                   Keep&& keep) {
  std::vector<SpanTotals> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    self[i].self_s += s.end - s.start;
    self[i].self_allocs.calls += s.allocs.calls;
    self[i].self_allocs.bytes += s.allocs.bytes;
    if (s.parent >= 0) {
      SpanTotals& p = self[static_cast<std::size_t>(s.parent)];
      p.self_s -= s.end - s.start;
      p.self_allocs.calls -= s.allocs.calls;
      p.self_allocs.bytes -= s.allocs.bytes;
    }
  }
  std::map<std::string_view, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!keep(spans[i].world)) continue;
    SpanTotals& t = totals[spans[i].name];
    t.self_s += self[i].self_s;
    t.self_allocs.calls += self[i].self_allocs.calls;
    t.self_allocs.bytes += self[i].self_allocs.bytes;
  }
  return totals;
}

bool write_spans(const SpanLog& spans, const std::string& path) {
  std::ofstream out(path);
  out << "span\tparent\tworld\tname\tstart_s\tend_s\tallocs\tbytes\n";
  char line[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(line, sizeof line,
                  "%zu\t%d\t%u\t%s\t%.9f\t%.9f\t%llu\t%llu\n", i, s.parent,
                  s.world, s.name, s.start, s.end,
                  static_cast<unsigned long long>(s.allocs.calls),
                  static_cast<unsigned long long>(s.allocs.bytes));
    out << line;
  }
  return out.good();
}

// ---- The closed loop.

/// Host figures of one input: the best of its timed passes. Every pass of an
/// input does the same work (later passes must repeat the first pass's
/// checksums), so what differs between passes is the host. A shared VM's
/// speed swings by up to half within seconds and only ever slows a world
/// down, so the best pass is the closest reading of the program's own cost.
struct Best {
  double world_ms = HUGE_VAL;
  double setup_s = HUGE_VAL;
  double run_s = HUGE_VAL;
  std::int64_t events = 0;

  [[nodiscard]] bool timed() const { return world_ms != HUGE_VAL; }
  void add(double ms, const WorldRecord& r) {
    world_ms = std::min(world_ms, ms);
    setup_s = std::min(setup_s, r.setup_s);
    run_s = std::min(run_s, r.run_s);
    events = r.events;
  }
};

/// The best world times of the inputs timed at least once, sorted.
std::vector<double> best_world_ms(const std::vector<Best>& best) {
  std::vector<double> ms;
  for (const Best& b : best) {
    if (b.timed()) ms.push_back(b.world_ms);
  }
  return sorted(std::move(ms));
}

int replay(const Args& args, Workload& workload) {
  if (static_cast<std::size_t>(args.world) >= workload.size()) {
    std::fprintf(stderr, "worldbench: --world %ld out of range (0..%zu)\n",
                 args.world, workload.size() - 1);
    return 2;
  }
  Tracer tracer;
  note_recipe(args, static_cast<std::size_t>(args.world));
  const WorldRecord r =
      workload.run(static_cast<std::size_t>(args.world), tracer, true);
  std::printf("world %ld: %s%s%s events=%lld world_checksum=%016llx "
              "resolved_checksum=%016llx resolve_ticks=%lld\n",
              args.world, r.ok ? "ok" : "FAILED", r.ok ? "" : ": ",
              r.error.c_str(), static_cast<long long>(r.events),
              static_cast<unsigned long long>(r.world_checksum),
              static_cast<unsigned long long>(r.resolved_checksum),
              static_cast<long long>(r.resolve_ticks));
  return r.ok ? 0 : 1;
}

int run(const Args& args) {
  std::unique_ptr<Workload> workload = make_workload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "worldbench: unknown workload '%s' (known:",
                 args.workload.c_str());
    for (const std::string_view name : workload_names()) {
      std::fprintf(stderr, " %.*s", static_cast<int>(name.size()), name.data());
    }
    std::fprintf(stderr, ")\n");
    return 2;
  }
  std::printf("worldbench: workload=%s seed=%llu seconds=%g trace=%d "
              "inputs=%zu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, workload->size());
  print_fingerprint();
  std::printf("inputs_digest=%016llx\n",
              static_cast<unsigned long long>(workload->inputs_digest()));
  if (args.world >= 0) return replay(args, *workload);

  const std::size_t k = workload->size();
  std::vector<WorldRecord> verified(k);
  // Traced and untraced passes keep separate bests, so the tracing overhead
  // compares like with like.
  std::vector<Best> untraced(k);
  std::vector<Best> traced(k);
  double traced_worlds = 0.0;
  double traced_run_s = 0.0;
  double traced_events = 0.0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  // Exact figures of the verifying pass, folded in input order.
  std::uint64_t world_sum = 0xcbf29ce484222325ULL;
  std::uint64_t resolved_sum = 0xcbf29ce484222325ULL;
  std::vector<double> resolve_ticks;
  double packets = 0.0;
  double bytes = 0.0;
  Tracer tracer;
  const double start = now_s();
  for (std::size_t pass = 0;; ++pass) {
    // Trace runs alternate traced (even) and untraced (odd) passes, so the
    // tracing overhead is measured against interleaved untraced worlds.
    tracer.set_enabled(args.trace && pass % 2 == 0);
    for (std::size_t i = 0; i < k; ++i) {
      if (pass > 0 && now_s() - start >= args.seconds) break;
      const auto world = static_cast<std::uint32_t>(attempted);
      note_recipe(args, i);
      tracer.set_world(world);
      const double t0 = now_s();
      WorldRecord r;
      {
        auto s = tracer.scope("world");
        r = workload->run(i, tracer, pass == 0);
      }
      const double world_ms = (now_s() - t0) * 1e3;
      ++attempted;
      if (r.ok && pass > 0 &&
          (r.world_checksum != verified[i].world_checksum ||
           r.resolved_checksum != verified[i].resolved_checksum)) {
        r.ok = false;
        r.error = "checksums differ from the verifying pass";
      }
      if (!r.ok) {
        ++failed;
        if (failed <= 5) {
          std::fprintf(stderr, "worldbench: %s world %zu (seed %llu) failed: "
                       "%s\n", args.workload.c_str(), i,
                       static_cast<unsigned long long>(args.seed),
                       r.error.c_str());
        }
      }
      if (world > 0) {
        (tracer.enabled() ? traced : untraced)[i].add(world_ms, r);
        if (tracer.enabled()) {
          traced_worlds += 1.0;
          traced_run_s += r.run_s;
          traced_events += static_cast<double>(r.events);
        }
      }
      if (pass == 0) {
        world_sum = mix(world_sum, r.world_checksum);
        resolved_sum = mix(resolved_sum, r.resolved_checksum);
        if (r.resolve_ticks >= 0) {
          resolve_ticks.push_back(static_cast<double>(r.resolve_ticks));
        }
        packets += static_cast<double>(counter_prefix(r, "net.sent."));
        bytes += static_cast<double>(counter(r, "net.bytes_sent"));
        // Only the per-layer report reads the counters again; dropping them
        // keeps the benchmark's own memory out of peak_rss_mb.
        if (!args.trace) r.counters = {};
        verified[i] = std::move(r);
      }
    }
    if (now_s() - start >= args.seconds) break;
  }

  const double kd = static_cast<double>(k);
  std::printf("world_checksum=%016llx resolved_checksum=%016llx "
              "(over %zu inputs)\n",
              static_cast<unsigned long long>(world_sum),
              static_cast<unsigned long long>(resolved_sum), k);
  std::printf("failed_ratio=%.6f (%zu of %zu worlds)\n",
              ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              failed, attempted);

  std::vector<Metric> metrics;
  if (!args.trace) {
    std::vector<double> setup_s;
    double run_s = 0.0;
    double events = 0.0;
    for (const Best& b : untraced) {
      if (!b.timed()) continue;
      setup_s.push_back(b.setup_s);
      run_s += b.run_s;
      events += static_cast<double>(b.events);
    }
    const std::vector<double> world_ms = best_world_ms(untraced);
    resolve_ticks = sorted(std::move(resolve_ticks));
    const Tail world_tail = tail(world_ms);
    const Tail ticks_tail = tail(resolve_ticks);
    std::printf("host times are each input's best of up to %zu passes; "
                "world_ms_tail is the %s; resolve_ticks_tail is the %s\n",
                (attempted + k - 1) / k, world_tail.label.c_str(),
                ticks_tail.label.c_str());
    metrics = {
        {"setup_s", quantile(sorted(std::move(setup_s)), 0.5), "s"},
        {"worlds_per_s",
         ratio(static_cast<double>(world_ms.size()), sum(world_ms) / 1e3),
         "1/s"},
        {"world_ms_p50", quantile(world_ms, 0.5), "ms"},
        {"world_ms_tail", world_tail.value, "ms"},
        {"events_per_s", ratio(events, run_s), "1/s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"messages_per_world", packets / kd, "count"},
        {"wire_bytes_per_world", bytes / kd, "B"},
        {"resolve_ticks_p50", quantile(resolve_ticks, 0.5), "ticks"},
        {"resolve_ticks_tail", ticks_tail.value, "ticks"},
    };
  } else {
    const SpanLog& spans = tracer.spans();
    // Allocation counts come from the verifying pass, whose worlds always
    // run and are the same on every run of one seed; self times from every
    // traced world after the warm-up.
    const auto verifying = span_totals(spans, [&](std::uint32_t w) {
      return w < k;
    });
    const auto timed =
        span_totals(spans, [](std::uint32_t w) { return w > 0; });
    const std::vector<double> traced_ms = best_world_ms(traced);
    const std::vector<double> untraced_ms = best_world_ms(untraced);
    const auto self_s = [&](const char* span) {
      const auto it = timed.find(span);
      return it == timed.end() ? 0.0 : it->second.self_s / traced_worlds;
    };
    AllocTally setup_allocs;
    for (const SpanMetric& m : kSpanMetrics) {
      metrics.push_back({m.metric, self_s(m.span), "s"});
      const auto it = verifying.find(m.span);
      if (m.setup && it != verifying.end()) {
        setup_allocs.calls += it->second.self_allocs.calls;
        setup_allocs.bytes += it->second.self_allocs.bytes;
      }
    }
    double members = 0.0;
    double events = 0.0;
    double rounds = 0.0;
    for (const WorldRecord& r : verified) {
      members += static_cast<double>(r.members);
      events += static_cast<double>(r.events);
      rounds += static_cast<double>(r.rounds);
    }
    const auto run_allocs = [&] {
      for (const char* span : {"run", "run_chaos_trial"}) {
        if (auto it = verifying.find(span); it != verifying.end()) {
          return static_cast<double>(it->second.self_allocs.calls);
        }
      }
      return 0.0;
    }();
    const auto mean = [&](std::string_view name) {
      double total = 0.0;
      for (const WorldRecord& r : verified) {
        total += static_cast<double>(counter(r, name));
      }
      return total / kd;
    };
    const auto mean_prefix = [&](std::string_view prefix) {
      double total = 0.0;
      for (const WorldRecord& r : verified) {
        total += static_cast<double>(counter_prefix(r, prefix));
      }
      return total / kd;
    };
    const auto max_peak = [&](std::string_view gauge) {
      std::int64_t top = 0;
      for (const WorldRecord& r : verified) top = std::max(top, peak(r, gauge));
      return static_cast<double>(top);
    };
    const bool chaos = args.workload == "chaos_mixed";
    // Zero when the run was too short for an untraced pass.
    const double overhead_ms =
        untraced_ms.empty()
            ? 0.0
            : quantile(traced_ms, 0.5) - quantile(untraced_ms, 0.5);
    std::printf("trace: %.0f traced worlds timed, %zu spans\n", traced_worlds,
                spans.size());
    const std::vector<Metric> layers = {
        {"sim.events", events / kd, "count"},
        {"sim.ns_per_event", ratio(traced_run_s * 1e9, traced_events), "ns"},
        {"sim.allocs_per_event", ratio(run_allocs, events), "allocs/event"},
        {"sim.peak_queue_depth", max_peak("sim.queue_depth"), "count"},
        {"net.packets", packets / kd, "count"},
        {"net.bytes", bytes / kd, "B"},
        {"net.dropped", mean_prefix("net.dropped."), "count"},
        {"net.retransmits", mean("net.reliable.retransmit"), "count"},
        {"net.peak_in_flight", max_peak("net.in_flight"), "count"},
        {"caa.setup_allocs_per_member",
         ratio(static_cast<double>(setup_allocs.calls), members),
         "allocs/member"},
        {"caa.setup_bytes_per_member",
         ratio(static_cast<double>(setup_allocs.bytes), members), "B/member"},
        {"caa.peak_open_scopes", max_peak("caa.open_scopes"), "count"},
        {"resolve.packets.exception", mean("net.sent.Exception"), "count"},
        {"resolve.packets.have_nested", mean("net.sent.HaveNested"), "count"},
        {"resolve.packets.nested_completed", mean("net.sent.NestedCompleted"),
         "count"},
        {"resolve.packets.ack", mean("net.sent.ACK"), "count"},
        {"resolve.packets.commit", mean("net.sent.Commit"), "count"},
        {"resolve.rounds", rounds / kd, "count"},
        {"resolve.peak_outstanding_acks", max_peak("resolve.outstanding_acks"),
         "count"},
        {"resolve.fast_commits", mean("resolve.fast_commits"), "count"},
        {"resolve.fallbacks", mean("resolve.fallbacks"), "count"},
        {"resolve.crash_sync_packets", mean("net.sent.CrashSync"), "count"},
        {"overlay.envelopes", mean("overlay.envelopes"), "count"},
        {"overlay.items_relayed", mean("overlay.items_relayed"), "count"},
        {"overlay.acks_merged", mean("overlay.acks_merged"), "count"},
        {"overlay.squelched", mean("overlay.squelched"), "count"},
        {"overlay.heals", mean("overlay.heals"), "count"},
        {"overlay.peak_outbox_backlog", max_peak("overlay.outbox_backlog"),
         "count"},
        {"exit.packets.done", mean("net.sent.ActionDone"), "count"},
        {"exit.packets.leave", mean("net.sent.ActionLeave"), "count"},
        {"exit.packets.leave_ack", mean("net.sent.ActionLeaveAck"), "count"},
        {"exit.peak_barrier_open", max_peak("exit.barrier_open"), "count"},
        {"fault.events_per_trial", chaos ? events / kd : 0.0, "count"},
        {"fault.violations", static_cast<double>(chaos ? failed : 0),
         "count"},
        {"obs.trace_overhead", overhead_ms, "ms"},
    };
    metrics.insert(metrics.end(), layers.begin(), layers.end());
    std::error_code ec;
    std::filesystem::create_directories(args.spans_dir, ec);
    const std::string path = args.spans_dir + "/" + args.workload + "_seed" +
                             std::to_string(args.seed) + ".tsv";
    if (!write_spans(spans, path)) {
      std::fprintf(stderr, "worldbench: cannot write %s\n", path.c_str());
    } else {
      std::printf("spans written to %s\n", path.c_str());
    }
  }
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace wb

int main(int argc, char** argv) {
  wb::Args args;
  if (!wb::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: worldbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans-dir DIR] [--world I]\n");
    return 2;
  }
  std::signal(SIGABRT, wb::on_abort);
  return wb::run(args);
}
