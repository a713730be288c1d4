#include "obs/chrome_trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

#include "caa/action_instance.h"

namespace caa::obs {
namespace {

constexpr std::size_t kNone = ~std::size_t{0};

/// The spans one object holds in one scope, as indices into the log. An
/// index may name a span that already closed; end() then does nothing.
struct ScopeSpans {
  std::size_t action = kNone;
  std::size_t barrier = kNone;
  std::size_t handler = kNone;
  std::uint32_t handler_round = 0;
  std::size_t abort = kNone;
  std::size_t round = kNone;  // the open resolution round, if any
};

class Pairing {
 public:
  explicit Pairing(SpanNames names) : names_(std::move(names)) {
    log_.tracks = std::move(names_.objects);
  }

  void add(const FlightRecord& r);
  [[nodiscard]] SpanLog take() { return std::move(log_); }

 private:
  std::size_t open(const FlightRecord& r, bool async, std::string category,
                   std::string name, std::string args = {}) {
    log_.spans.push_back(Span{r.time, -1, r.actor, async, std::move(category),
                              std::move(name), std::move(args)});
    log_.horizon = std::max(log_.horizon, r.time);
    return log_.spans.size() - 1;
  }
  /// Closes `span` at `at`; false when there is none or it already closed.
  bool end(std::size_t span, sim::Time at) {
    if (span == kNone || log_.spans[span].end >= 0) return false;
    log_.spans[span].end = at;
    log_.horizon = std::max(log_.horizon, at);
    return true;
  }
  void end(std::size_t span, sim::Time at, std::string args) {
    if (end(span, at)) log_.spans[span].args = std::move(args);
  }
  /// The scope's engine was replaced or destroyed mid-round.
  void supersede_round(ScopeSpans& s, sim::Time at) {
    end(s.round, at, "superseded");
    s.round = kNone;
  }
  /// The object left the scope: everything it held there ends.
  void close_scope(std::pair<std::uint32_t, std::uint64_t> key,
                   sim::Time at) {
    ScopeSpans& s = scopes_[key];
    end(s.handler, at);
    end(s.barrier, at);
    end(s.action, at);
    supersede_round(s, at);
    scopes_.erase(key);
  }

  SpanNames names_;
  SpanLog log_;
  std::map<std::pair<std::uint32_t, std::uint64_t>, ScopeSpans> scopes_;
  std::map<std::uint64_t, std::size_t> txns_;  // open txn spans by txn id
};

void Pairing::add(const FlightRecord& r) {
  const auto key = std::make_pair(r.actor, r.scope);
  switch (r.type) {
    case RecType::kSend:
    case RecType::kDeliver:
    case RecType::kDrop:
      return;
    case RecType::kEnter:
      scopes_[key] = ScopeSpans{
          .action = open(r, false, "action", names_.action(r.scope),
                         "instance " + std::to_string(r.scope))};
      return;
    case RecType::kRaise:
    case RecType::kState:
      // A round's first record opens its span. Async: an outer action's
      // round outlives the nested action spans it aborts (Figure 4).
      if (ScopeSpans& s = scopes_[key]; s.round == kNone) {
        s.round = open(r, true, "round", "round " + std::to_string(r.round));
      }
      return;
    case RecType::kResolved:
      if (ScopeSpans& s = scopes_[key]; s.round != kNone) {
        end(s.round, r.time, "resolved " + names_.exception(r.scope, r.code));
        s.round = kNone;
      }
      return;
    case RecType::kDone:
      scopes_[key].barrier =
          open(r, false, "barrier", "barrier r" + std::to_string(r.round),
               r.code != 0 ? "" : "acceptance failed");
      return;
    case RecType::kTakeover: {
      ScopeSpans& s = scopes_[key];
      end(s.handler, r.time, "superseded");
      end(s.barrier, r.time, "superseded");
      s.handler = kNone;
      s.barrier = kNone;
      supersede_round(s, r.time);
      return;
    }
    case RecType::kHandler: {
      ScopeSpans& s = scopes_[key];
      s.handler = open(r, false, "handler",
                       "handle " + names_.exception(r.scope, r.code));
      s.handler_round = r.round;
      return;
    }
    case RecType::kHandlerEnd:
      if (ScopeSpans& s = scopes_[key]; s.handler_round == r.round &&
                                        end(s.handler, r.time)) {
        s.handler = kNone;
      }
      return;
    case RecType::kAbortHandler:
      scopes_[key].abort =
          open(r, false, "abort", "abort " + names_.action(r.scope),
               ExceptionId(r.code).valid() ? "signalling" : "");
      return;
    case RecType::kAbort: {
      // Aborted, or abandoned by a restart: only the end of a running
      // abortion handler marks the action span "aborted".
      ScopeSpans& s = scopes_[key];
      if (end(s.abort, r.time)) end(s.action, r.time, "aborted");
      close_scope(key, r.time);
      return;
    }
    case RecType::kLeave: {
      ScopeSpans& s = scopes_[key];
      const auto outcome = static_cast<action::LeaveOutcome>(r.code);
      if (outcome == action::LeaveOutcome::kRestored) {
        end(s.barrier, r.time, "restored");
        s.barrier = kNone;
        log_.instants.push_back(Instant{r.time, r.actor, "action", "restore",
                                        "attempt " + std::to_string(r.peer)});
        log_.horizon = std::max(log_.horizon, r.time);
        supersede_round(s, r.time);  // the new attempt gets a new engine
        return;
      }
      end(s.barrier, r.time);
      end(s.action, r.time, std::string(action::to_string(outcome)));
      close_scope(key, r.time);
      return;
    }
    case RecType::kTxnBegin:
      txns_[r.scope] =
          open(r, true, "txn",
               (r.peer != 0 ? "nested txn " : "txn ") + std::to_string(r.code));
      return;
    case RecType::kTxnEnd:
      if (const auto it = txns_.find(r.scope); it != txns_.end()) {
        end(it->second, r.time, r.code != 0 ? "committed" : "aborted");
        txns_.erase(it);
      }
      return;
  }
}

void append_escaped(std::ostringstream& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
}

void field(std::ostringstream& out, const char* key, std::string_view value) {
  out << "\"" << key << "\":\"";
  append_escaped(out, value);
  out << "\"";
}

void maybe_args(std::ostringstream& out, std::string_view args) {
  if (args.empty()) return;
  out << ",\"args\":{";
  field(out, "detail", args);
  out << "}";
}

}  // namespace

SpanLog spans_from(const std::vector<FlightRecord>& records, SpanNames names) {
  Pairing pairing(std::move(names));
  for (const FlightRecord& r : records) pairing.add(r);
  return pairing.take();
}

std::string chrome_trace_json(const SpanLog& log) {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };

  for (std::size_t track = 0; track < log.tracks.size(); ++track) {
    sep();
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << track
        << ",\"name\":\"thread_name\",\"args\":{";
    field(out, "name", log.tracks[track]);
    out << "}}";
  }

  std::size_t index = 0;
  for (const auto& span : log.spans) {
    const sim::Time end = span.end >= 0 ? span.end : log.horizon;
    sep();
    if (span.async) {
      // b/e pair: async spans need not nest within the track's sync stack.
      out << "{\"ph\":\"b\",\"pid\":1,\"tid\":" << span.track
          << ",\"id\":" << index << ",\"ts\":" << span.begin << ",";
      field(out, "cat", span.category);
      out << ",";
      field(out, "name", span.name);
      maybe_args(out, span.args);
      out << "},\n{\"ph\":\"e\",\"pid\":1,\"tid\":" << span.track
          << ",\"id\":" << index << ",\"ts\":" << end << ",";
      field(out, "cat", span.category);
      out << ",";
      field(out, "name", span.name);
      out << "}";
    } else {
      out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << span.track
          << ",\"ts\":" << span.begin << ",\"dur\":" << end - span.begin
          << ",";
      field(out, "cat", span.category);
      out << ",";
      field(out, "name", span.name);
      maybe_args(out, span.args);
      out << "}";
    }
    ++index;
  }

  for (const auto& instant : log.instants) {
    sep();
    out << "{\"ph\":\"i\",\"pid\":1,\"tid\":" << instant.track
        << ",\"ts\":" << instant.at << ",\"s\":\"t\",";
    field(out, "cat", instant.category);
    out << ",";
    field(out, "name", instant.name);
    maybe_args(out, instant.args);
    out << "}";
  }

  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out.str();
}

bool write_chrome_trace(const SpanLog& log, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::string json = chrome_trace_json(log);
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace caa::obs
