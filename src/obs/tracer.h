// Span-based structured tracing on the simulator's virtual clock.
//
// Where the FlightRecorder (obs/flight_recorder.h) keeps the typed stream
// of protocol events, the Tracer records *intervals*: an action's
// lifetime at a participant, each resolution round, every abortion handler,
// the exit barrier, a transaction's commit/abort. Spans carry the virtual
// begin/end time and a track (one per participant object), which is exactly
// the shape Chrome's about://tracing and Perfetto render as a timeline —
// see obs/chrome_trace.h for the exporter.
//
// Cost contract: the Tracer is owned by obs::Observability and every
// instrumentation site guards on Observability::enabled() (an inlined bool
// load, or constant false under -DCAA_OBS_DISABLED). When disabled, no
// Tracer method is called: no allocation, no string formatting, no clock
// read. The Tracer itself also early-returns when disabled, as a second
// line of defense.
//
// The clock is *bound*, not passed per call: Observability points the
// tracer at the simulator's now() storage once, so record sites never
// thread a timestamp through.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/event_queue.h"

namespace caa::obs {

/// Index of a span in the tracer's log. Invalid ids are silently ignored by
/// end()/end_args(), so call sites need no "was observability on when this
/// span would have begun?" bookkeeping.
using SpanId = StrongId<struct ObsSpanTag>;

/// A timeline row. By convention one track per participant object (the
/// track id is the ObjectId value); Observability::track_for_object maps it.
using TrackId = std::uint32_t;

struct Span {
  sim::Time begin = 0;
  sim::Time end = -1;  // -1 while open; exporter clamps to the last time seen
  TrackId track = 0;
  bool async = false;  // async spans (transactions) need not nest on a track
  std::string category;  // "action", "round", "abort", "barrier", "txn"
  std::string name;
  std::string args;  // free-form detail; empty args are not exported
};

struct Instant {
  sim::Time at = 0;
  TrackId track = 0;
  std::string category;
  std::string name;
  std::string args;
};

class Tracer {
 public:
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Points the tracer at the virtual clock (the simulator's now() field).
  void bind_clock(const sim::Time* now) { clock_ = now; }

  /// Names a track for the exporter (thread_name metadata). Idempotent.
  void set_track_name(TrackId track, std::string name);

  /// Opens a span at the current virtual time. Returns an invalid id when
  /// disabled (end() on it is a no-op).
  SpanId begin(TrackId track, std::string_view category, std::string name,
               std::string args = {});

  /// Opens an async span: rendered as a Chrome b/e pair, exempt from the
  /// strict stack nesting of sync spans. Used for transactions (several can
  /// overlap on one client) and resolution rounds (an outer action's round
  /// outlives the nested action spans it aborts).
  SpanId begin_async(TrackId track, std::string_view category,
                     std::string name, std::string args = {});

  /// Closes a span at the current virtual time. No-op on invalid ids and on
  /// already-closed spans (a superseded barrier may race its normal close).
  void end(SpanId id);
  /// Same, also attaching/overwriting the span's args (e.g. an outcome).
  void end_args(SpanId id, std::string args);

  /// Records a point event at the current virtual time.
  void instant(TrackId track, std::string_view category, std::string name,
               std::string args = {});

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<Instant>& instants() const {
    return instants_;
  }
  [[nodiscard]] const std::map<TrackId, std::string>& track_names() const {
    return track_names_;
  }

  /// Largest virtual time any record touched; the exporter closes spans
  /// still open at export time here.
  [[nodiscard]] sim::Time last_time() const { return last_time_; }

  void clear();

 private:
  [[nodiscard]] sim::Time now() const { return clock_ ? *clock_ : 0; }
  SpanId begin_impl(TrackId track, bool async, std::string_view category,
                    std::string name, std::string args);

  bool enabled_ = false;
  const sim::Time* clock_ = nullptr;
  sim::Time last_time_ = 0;
  std::vector<Span> spans_;
  std::vector<Instant> instants_;
  std::map<TrackId, std::string> track_names_;
};

}  // namespace caa::obs
