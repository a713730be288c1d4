// The campaign runner: many independent simulation worlds, one thread pool,
// one deterministic aggregate.
//
// Every §4.3/§4.4 claim this repo reproduces comes from running families of
// deterministic worlds — N-sweeps, fault-mix sweeps, seed sweeps. A Campaign
// shards those worlds across workers and merges their results so that the
// aggregate is *bit-identical for any thread count*:
//
//   * each world gets a seed derived only from (campaign seed, world index),
//     never from scheduling order or wall clock;
//   * each world runs whole on one worker (worlds share no mutable state —
//     the only process-wide structure they touch, the counter-name registry,
//     is mutex-guarded);
//   * results land in an index-addressed slot and are merged in index order;
//   * wall-clock figures are carried for reporting but never folded into
//     checksums or merged metrics.
//
// Usage:
//   run::Campaign c({.seed = 42, .threads = 8});
//   for (int n : {64, 128, 256})
//     c.add("flat_n" + std::to_string(n), [n](const run::WorldContext& ctx) {
//       scenario::FlatOptions o;
//       o.participants = n;
//       o.world.seed = ctx.seed;
//       scenario::FlatScenario s(o);
//       return run::measure("flat", s.world(), [&] { return s.world().run(); });
//     });
//   run::CampaignResult r = c.run();   // r.merged_checksum: thread-invariant
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "sim/event_queue.h"

namespace caa {
class World;
}  // namespace caa

namespace caa::run {

/// Deterministic per-world seed: mixes the campaign seed with the world
/// index through SplitMix64, so neighbouring indices get decorrelated
/// streams and the assignment never depends on which worker runs the world.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t campaign_seed,
                                        std::size_t world_index);

/// Handed to each world job.
struct WorldContext {
  std::size_t index = 0;   // position in add() order
  std::uint64_t seed = 0;  // derive_seed(options.seed, index)
};

/// What one world reports back. Everything except wall_ms participates in
/// the deterministic merge.
struct WorldResult {
  std::string name;
  /// Identity for replay: position in add() order and the derived seed the
  /// job received. Filled by the runner even when the job threw, so a
  /// failure report alone is enough to re-run the world.
  std::size_t index = 0;
  std::uint64_t seed = 0;
  /// Path of the flight-recorder dump written when this world failed with
  /// CampaignOptions::dump_dir set ("" otherwise).
  std::string recorder_dump_path;
  std::int64_t events = 0;
  std::int64_t messages = 0;  // total packets sent (all kinds)
  sim::Time sim_time = 0;
  std::uint64_t checksum = 0;  // behavioural fingerprint (world_checksum)
  obs::MetricsSnapshot metrics;
  /// Virtual-time telemetry windows (empty unless the world armed
  /// WorldConfig.telemetry). Merged window-index-aligned, so the campaign
  /// aggregate is bit-identical at any thread count.
  obs::TimeSeriesTable timeseries;
  /// Free-form per-world figures (bench cells: latencies, abort counts...).
  /// Merged by key-wise sum.
  std::map<std::string, std::int64_t, std::less<>> values;
  /// Optional exported blob (e.g. a Chrome trace) for byte-level
  /// determinism checks; not merged.
  std::string artifact;
  /// Ready-to-paste reproduction recipe for a failed world (the chaos
  /// engine fills it with the serialized fault plan + replay command).
  /// Appended verbatim to the failure report; not merged.
  std::string repro;
  double wall_ms = 0.0;  // informational only; never merged
  bool ok = true;
  std::string error;  // set when the job threw
};

using WorldFn = std::function<WorldResult(const WorldContext&)>;

struct CampaignOptions {
  std::uint64_t seed = 42;
  /// Worker threads; 0 means hardware concurrency. The thread count never
  /// affects merged results, only wall time.
  unsigned threads = 1;
  /// When non-empty: arm per-world crash dumps. A world that throws (or
  /// trips a CAA_CHECK) leaves its flight-recorder ring as
  /// `<dump_dir>/world<index>_seed<hex>.caafr`, decodable by caa-inspect;
  /// the path lands in WorldResult::recorder_dump_path and the failure
  /// report. The directory must exist.
  std::string dump_dir = {};
};

struct CampaignResult {
  std::vector<WorldResult> worlds;  // add() order, regardless of scheduling
  std::uint64_t merged_checksum = 0;
  obs::MetricsSnapshot merged_metrics;
  /// Window-aligned element-wise sum of every world's telemetry table
  /// (empty when no world armed the sampler).
  obs::TimeSeriesTable merged_timeseries;
  std::map<std::string, std::int64_t, std::less<>> merged_values;
  std::int64_t total_events = 0;
  std::int64_t total_messages = 0;
  std::size_t failed = 0;
  double wall_ms = 0.0;  // campaign wall time; excluded from the merge
  unsigned threads_used = 1;

  [[nodiscard]] bool all_ok() const { return failed == 0; }
  /// First failed world's report line, or "" when all_ok().
  [[nodiscard]] std::string first_error() const;
  /// One line per failed world: name, world index, seed (hex, replayable),
  /// the error, and the recorder dump path when one was written. "" when
  /// all_ok().
  [[nodiscard]] std::string failure_report() const;
};

class Campaign {
 public:
  explicit Campaign(CampaignOptions options = {});

  /// Appends a world job. The index passed to the job is its add() order.
  Campaign& add(std::string name, WorldFn fn);

  [[nodiscard]] std::size_t size() const { return jobs_.size(); }
  [[nodiscard]] const CampaignOptions& options() const { return options_; }

  /// Runs every world across the pool and merges in index order. A job that
  /// throws std::exception marks its world !ok (with the message in .error)
  /// and contributes nothing to the merge; the other worlds still run.
  CampaignResult run();

 private:
  struct Job {
    std::string name;
    WorldFn fn;
  };
  CampaignOptions options_;
  std::vector<Job> jobs_;
};

/// Fills a WorldResult from a finished world: events/messages/sim_time,
/// metrics snapshot, and the behavioural checksum (same formula as
/// bench_throughput: counters + final time + events). `run` executes the
/// world and returns events fired; wall time is measured around it.
WorldResult measure(std::string name, World& world,
                    const std::function<std::size_t()>& run);

}  // namespace caa::run
