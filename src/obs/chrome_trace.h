// Chrome trace-event JSON, drawn from an observed world's flight record.
//
// spans_from() pairs the lifecycle records an observed world writes into
// its flight recorder (obs/flight_recorder.h) into spans: an action's
// lifetime at a participant, each resolution round, every abortion handler,
// the acceptance-line wait, each resolved handler and a transaction's
// begin..outcome. Object, action and exception names are looked up here,
// at export, so protocol code builds no span string while a world runs.
//
// chrome_trace_json() renders them for chrome://tracing and Perfetto: one
// process (pid 1), one "thread" per track (object), named via "M"
// thread_name metadata records. Sync spans become "X" complete events with
// virtual-microsecond ts/dur; async spans (rounds, transactions) become
// "b"/"e" pairs keyed by span index; instants become "i" events.
//
// The export is deterministic: spans are emitted in the order of their
// opening records (begin times are monotone under the simulator's clock),
// no wall-clock times or pointers appear, and spans still open at export
// are clamped to the latest span record — so the same seed yields a
// byte-stable file (the golden-trace tests pin this).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"

namespace caa::obs {

struct Span {
  sim::Time begin = 0;
  sim::Time end = -1;  // -1 while open; the exporter clamps to the horizon
  std::uint32_t track = 0;  // the object id
  bool async = false;  // rounds and transactions need not nest on a track
  std::string category;  // "action", "round", "abort", "barrier", ...
  std::string name;
  std::string args;  // free-form detail; empty args are not exported
};

struct Instant {
  sim::Time at = 0;
  std::uint32_t track = 0;
  std::string category;
  std::string name;
  std::string args;
};

/// Everything the exporter draws.
struct SpanLog {
  std::vector<std::string> tracks;  // track names, by object id
  std::vector<Span> spans;          // in the order of their opening records
  std::vector<Instant> instants;
  sim::Time horizon = 0;  // the latest span record: open spans end here
};

/// What records carry only as ids.
struct SpanNames {
  std::vector<std::string> objects;  // by object id
  std::function<std::string(std::uint64_t scope)> action;
  std::function<std::string(std::uint64_t scope, std::uint32_t exception)>
      exception;
};

/// Pairs an observed world's records, oldest first, into spans.
[[nodiscard]] SpanLog spans_from(const std::vector<FlightRecord>& records,
                                 SpanNames names);

/// Renders the spans as a Chrome trace-event JSON document.
[[nodiscard]] std::string chrome_trace_json(const SpanLog& log);

/// Writes chrome_trace_json() to `path`. Returns false on I/O failure.
bool write_chrome_trace(const SpanLog& log, const std::string& path);

}  // namespace caa::obs
