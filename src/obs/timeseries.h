// Virtual-time telemetry: windowed deltas of counters/histograms plus
// health-gauge levels, sampled on the simulator clock.
//
// End-of-run aggregates cannot distinguish a run that cruised from one that
// stalled for 80% of its virtual time. The TimeSeries sampler closes that
// gap: every `window` virtual ticks it snapshots the *delta* of a tracked
// counter set, the count/sum deltas of tracked histograms, and the current
// value + in-window peak of every health gauge (obs/health.h) into a
// compact ring of window rows.
//
// Determinism contract (the campaign runner depends on it):
//   * sampling is driven from Simulator::step, never from scheduled events
//     — arming telemetry adds ZERO events, so behaviour checksums (counters
//     + events + final time) are bit-identical with telemetry on or off;
//   * windows are aligned to absolute virtual time (window k covers
//     [k*W, (k+1)*W)), so tables from different worlds merge window-by-
//     window, and merging is element-wise addition — commutative and
//     associative, hence bit-identical for any campaign thread count.
//
// The rendered table (to_string), the JSON export (to_json / from_json)
// and the sparkline timeline (timeline) feed tools/caa-report.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "obs/health.h"
#include "obs/metrics.h"
#include "sim/event_queue.h"
#include "util/status.h"

namespace caa::obs {

struct TimeSeriesConfig {
  /// Virtual ticks per window; 0 leaves the sampler disarmed.
  sim::Time window = 0;
  /// Retained window rows; older rows fall off the ring (counted).
  std::size_t capacity = 4096;
};

/// The watch list every sampler tracks: the five §4.2 protocol kinds as
/// sent, the overlay envelope kind, the avoidance census kind, the exit
/// handshake, plus heal and fallback totals.
[[nodiscard]] const std::vector<std::string>& tracked_counters();
/// {"resolve.latency"}: the raise→handler latency distribution.
[[nodiscard]] const std::vector<std::string>& tracked_histograms();

/// One closed window. All vectors are indexed by the table's name lists.
struct TimeSeriesWindow {
  std::uint64_t index = 0;  // window start = index * window
  std::vector<std::int64_t> counters;     // deltas within the window
  std::vector<std::int64_t> gauges;       // value at window close
  std::vector<std::int64_t> gauge_peaks;  // max within the window
  std::vector<std::int64_t> hist_counts;  // sample-count deltas
  std::vector<std::int64_t> hist_sums;    // sample-sum deltas
};

/// Value-semantic run timeline: schema (name lists) + window rows. This is
/// what worlds report, campaigns merge, and caa-report renders.
struct TimeSeriesTable {
  sim::Time window = 0;  // 0 = no telemetry was armed
  std::uint64_t dropped = 0;  // window rows lost to ring capacity
  std::vector<std::string> counter_names;
  std::vector<std::string> gauge_names;
  std::vector<std::string> histogram_names;
  std::vector<TimeSeriesWindow> windows;  // ascending index

  [[nodiscard]] bool empty() const { return windows.empty(); }

  /// Window-aligned element-wise sum (the campaign merge). Merging into an
  /// empty table adopts `other`; merging tables with different schemas is a
  /// contract violation (campaigns are homogeneous).
  void merge(const TimeSeriesTable& other);

  /// Aligned per-window table, one row per window — byte-stable (the
  /// thread-invariance test and the caa-report golden compare bytes).
  [[nodiscard]] std::string to_string() const;

  /// Sparkline timeline: per-window rows, one scaled bar column per tracked
  /// counter and gauge (ASCII ramp, byte-stable).
  [[nodiscard]] std::string timeline() const;

  /// JSON export ("caa-timeseries" format, version 1).
  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] static Result<TimeSeriesTable> from_json(
      std::string_view text);

  /// Peak of gauge `name` across all windows (0 when absent) — the bench
  /// per-window-peak rows.
  [[nodiscard]] std::int64_t peak_of(std::string_view name) const;
};

class TimeSeries {
 public:
  /// Points the sampler at the hub's metrics + gauges (Observability wires
  /// this once at construction).
  void bind(Metrics* metrics, HealthGauges* health) {
    metrics_ = metrics;
    health_ = health;
  }

  /// Arms sampling. Interns the tracked names; resets any prior state.
  /// Under -DCAA_OBS_DISABLED the sampler stays disarmed (gauges are
  /// compiled out, so rows would be hollow anyway).
  void arm(const TimeSeriesConfig& config);

  [[nodiscard]] bool armed() const {
#ifdef CAA_OBS_DISABLED
    return false;
#else
    return window_ > 0;
#endif
  }

  /// Hot-path hook, called by Simulator::step after advancing the clock and
  /// BEFORE executing the event — an event at exactly a window boundary
  /// counts into the new window. One compare when disarmed or not yet due.
  void maybe_roll(sim::Time now) {
    if (now >= next_due_) roll(now);
  }

  /// The run's timeline so far: every closed window plus, when any activity
  /// happened after the last boundary, the open partial window. Const —
  /// callable repeatedly, mid-run or after.
  [[nodiscard]] TimeSeriesTable table() const;

 private:
  void roll(sim::Time now);
  /// Closes the window ending at `boundary` into the ring.
  void close_window(std::uint64_t index);
  [[nodiscard]] TimeSeriesWindow snap_window(std::uint64_t index) const;

  Metrics* metrics_ = nullptr;  // non-const: arm() interns histogram ids
  HealthGauges* health_ = nullptr;

  sim::Time window_ = 0;
  std::size_t capacity_ = 0;
  /// Next window boundary; INT64_MAX keeps maybe_roll to one compare while
  /// disarmed.
  sim::Time next_due_ = std::numeric_limits<sim::Time>::max();
  std::uint64_t dropped_ = 0;

  std::vector<std::string> counter_names_;
  std::vector<CounterId> counter_ids_;
  std::vector<std::int64_t> counter_last_;
  std::vector<std::string> histogram_names_;
  std::vector<HistogramId> histogram_ids_;
  std::vector<std::int64_t> hist_count_last_;
  std::vector<std::int64_t> hist_sum_last_;

  std::deque<TimeSeriesWindow> ring_;
};

}  // namespace caa::obs
