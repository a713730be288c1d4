#include "obs/watchdog.h"

#include <algorithm>
#include <sstream>

#include "obs/causal.h"

namespace caa::obs {

std::string WatchdogReport::to_string() const {
  std::ostringstream out;
  out << "obs.watchdog: stalled scope "
      << (scope_name.empty() ? std::to_string(scope) : scope_name)
      << " (id " << scope << ")\n";
  out << "  detected at t=" << detected_at << ", no progress since t="
      << last_progress
      << (at_quiescence ? " (run quiesced with the scope open)" : "") << "\n";
  out << "  phase: " << (phase.empty() ? "unknown" : phase) << "\n";
  out << "  awaiting:";
  if (awaited.empty()) {
    out << " nothing recorded";
  } else {
    for (std::size_t i = 0; i < awaited.size(); ++i) {
      out << (i == 0 ? " " : ", ") << awaited[i];
    }
  }
  out << "\n";
  if (!detail.empty()) out << "  detail: " << detail << "\n";
  if (!tail.empty()) {
    out << "  cause tail:\n";
    for (const std::string& line : tail) out << "    " << line << "\n";
  }
  return out.str();
}

void Watchdog::arm(sim::Time deadline, Describer describer) {
#ifdef CAA_OBS_DISABLED
  (void)deadline;
  (void)describer;
#else
  deadline_ = deadline;
  describer_ = std::move(describer);
  scopes_.clear();
  reported_.clear();
  reports_.clear();
  next_check_ = std::numeric_limits<sim::Time>::max();
#endif
}

void Watchdog::poll(sim::Time now) {
  sim::Time next = std::numeric_limits<sim::Time>::max();
  for (const auto& [scope, entry] : scopes_) {
    const bool seen = std::find(reported_.begin(), reported_.end(), scope) !=
                      reported_.end();
    if (seen) continue;
    if (now - entry.last >= deadline_) {
      reported_.push_back(scope);
      diagnose(scope, entry.last, now, /*at_quiescence=*/false);
    } else {
      next = std::min(next, entry.last + deadline_);
    }
  }
  next_check_ = next;
}

void Watchdog::finish(sim::Time now) {
  if (!armed()) return;
  for (const auto& [scope, entry] : scopes_) {
    const bool seen = std::find(reported_.begin(), reported_.end(), scope) !=
                      reported_.end();
    if (seen) continue;
    reported_.push_back(scope);
    diagnose(scope, entry.last, now, /*at_quiescence=*/true);
  }
  next_check_ = std::numeric_limits<sim::Time>::max();
}

void Watchdog::diagnose(std::uint64_t scope, sim::Time last_progress,
                        sim::Time now, bool at_quiescence) {
  WatchdogReport report;
  report.scope = scope;
  report.detected_at = now;
  report.last_progress = last_progress;
  report.at_quiescence = at_quiescence;
  if (describer_) describer_(scope, report);
  if (recorder_ != nullptr && recorder_->enabled()) {
    const std::vector<FlightRecord> records = recorder_->snapshot();
    // Newest protocol record of this scope anchors the causal tail (not a
    // lifecycle record: the tail must not depend on WorldConfig::observe).
    std::uint64_t anchor = 0;
    for (const FlightRecord& rec : records) {
      if (rec.scope == scope && !is_lifecycle(rec.type)) anchor = rec.id;
    }
    if (anchor != 0) {
      const std::vector<FlightRecord> chain = chain_to(records, anchor);
      constexpr std::size_t kTail = 6;
      const std::size_t begin =
          chain.size() > kTail ? chain.size() - kTail : 0;
      if (begin > 0) report.tail.push_back("... (" + std::to_string(begin) +
                                           " earlier records)");
      for (std::size_t i = begin; i < chain.size(); ++i) {
        report.tail.push_back(format_record(chain[i]));
      }
    }
  }
  if (hook_) hook_(report);
  reports_.push_back(std::move(report));
}

std::string Watchdog::report_text() const {
  std::string out;
  for (const WatchdogReport& report : reports_) out += report.to_string();
  return out;
}

}  // namespace caa::obs
