// The observability hub: one flight recorder + one Metrics per simulated
// world.
//
// Owned by sim::Simulator so every layer that can reach the simulator
// (Network, Runtime → Participant, TxnClient) reaches observability the
// same way, without new plumbing through constructors.
//
// Cost contract (the reason this type exists): all lifecycle-record and
// per-round table recording in hot paths is guarded by
// `if (obs.enabled())` — an inlined load of one bool. Compiling with
// -DCAA_OBS_DISABLED turns enabled() into `constexpr false`, letting the
// optimizer delete every instrumentation site outright. Counter increments
// are NOT guarded: they define the behaviour checksum and must be identical
// whether observability is on or off (the zero-drift test pins this).
#pragma once

#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/watchdog.h"

namespace caa::obs {

class Observability {
 public:
  Observability() {
    timeseries_.bind(&metrics_, &health_);
    watchdog_.bind(&recorder_);
  }

  /// True when the scope/txn lifecycle records (the span view, see
  /// obs/chrome_trace.h) and the per-round tables should record.
  [[nodiscard]] bool enabled() const {
#ifdef CAA_OBS_DISABLED
    return false;
#else
    return enabled_;
#endif
  }

  void set_enabled([[maybe_unused]] bool on) {
#ifndef CAA_OBS_DISABLED
    enabled_ = on;
#endif
  }

  /// Points the flight recorder at the simulator's virtual clock storage.
  void bind_clock(const sim::Time* now) { recorder_.bind_clock(now); }

  [[nodiscard]] Metrics& metrics() { return metrics_; }
  [[nodiscard]] const Metrics& metrics() const { return metrics_; }
  /// The always-on causal flight recorder. Its ring runs whether or not
  /// enabled(): it is the black box that should still be running when a
  /// world crashes. enabled() adds the lifecycle records.
  [[nodiscard]] FlightRecorder& recorder() { return recorder_; }
  [[nodiscard]] const FlightRecorder& recorder() const { return recorder_; }
  /// Per-subsystem level gauges (obs/health.h). Like the recorder, these
  /// are independent of enabled(): mutators compile out under
  /// -DCAA_OBS_DISABLED and never touch counters, so pushing them
  /// unconditionally cannot drift behaviour checksums.
  [[nodiscard]] HealthGauges& health() { return health_; }
  [[nodiscard]] const HealthGauges& health() const { return health_; }
  /// The virtual-time telemetry sampler (obs/timeseries.h), bound to this
  /// hub's metrics + gauges. Disarmed until TimeSeries::arm.
  [[nodiscard]] TimeSeries& timeseries() { return timeseries_; }
  [[nodiscard]] const TimeSeries& timeseries() const { return timeseries_; }
  /// The liveness watchdog (obs/watchdog.h), bound to the recorder for
  /// causal tails. Disarmed until Watchdog::arm.
  [[nodiscard]] Watchdog& watchdog() { return watchdog_; }
  [[nodiscard]] const Watchdog& watchdog() const { return watchdog_; }

 private:
#ifndef CAA_OBS_DISABLED
  bool enabled_ = false;
#endif
  Metrics metrics_;
  FlightRecorder recorder_;
  HealthGauges health_;
  TimeSeries timeseries_;
  Watchdog watchdog_;
};

}  // namespace caa::obs
