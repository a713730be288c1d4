#include "obs/causal.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "caa/action_instance.h"
#include "net/message.h"
#include "resolve/resolver_core.h"

namespace caa::obs {
namespace {

using RecordIndex = std::unordered_map<std::uint64_t, const FlightRecord*>;

RecordIndex index_by_id(const std::vector<FlightRecord>& records) {
  RecordIndex index;
  index.reserve(records.size());
  for (const FlightRecord& r : records) index.emplace(r.id, &r);
  return index;
}

/// Chain ending at `rec`, root first. Sets `truncated` when a non-zero
/// cause id is missing from the index (overwritten by the ring).
std::vector<FlightRecord> walk_chain(const RecordIndex& index,
                                     const FlightRecord& rec,
                                     bool& truncated) {
  std::vector<FlightRecord> chain;
  truncated = false;
  const FlightRecord* cur = &rec;
  // A record's cause always has a smaller id, so chains cannot cycle; the
  // bound is belt-and-braces against a corrupt dump.
  for (std::size_t steps = 0; steps <= index.size(); ++steps) {
    chain.push_back(*cur);
    if (cur->cause == 0) break;
    const auto it = index.find(cur->cause);
    if (it == index.end() || it->second->id >= cur->id) {
      truncated = true;
      break;
    }
    cur = it->second;
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

int count_message_hops(const std::vector<FlightRecord>& chain) {
  int hops = 0;
  for (const FlightRecord& r : chain) {
    if (r.type == RecType::kDeliver) ++hops;
  }
  return hops;
}

bool matches(const FlightRecord& r, const InspectOptions& o) {
  const bool wire = r.type == RecType::kSend || r.type == RecType::kDeliver ||
                    r.type == RecType::kDrop;
  if (o.scope && r.scope != *o.scope) return false;
  if (o.node && r.actor != *o.node && !(wire && r.peer == *o.node)) {
    return false;
  }
  if (o.kind && (!wire || r.code != *o.kind)) return false;
  return true;
}

std::string_view state_name(std::uint32_t code) {
  return resolve::to_string(static_cast<resolve::ResolverCore::State>(code));
}

}  // namespace

std::string format_record(const FlightRecord& rec) {
  std::ostringstream out;
  out << "#" << rec.id << " t=" << rec.time << " "
      << rec_type_name(rec.type);
  switch (rec.type) {
    case RecType::kSend:
      out << " " << net::kind_name(static_cast<net::MsgKind>(rec.code))
          << " N" << rec.actor << "->N" << rec.peer;
      break;
    case RecType::kDeliver:
      out << " " << net::kind_name(static_cast<net::MsgKind>(rec.code))
          << " N" << rec.actor << "<-N" << rec.peer;
      break;
    case RecType::kDrop:
      out << " " << net::kind_name(static_cast<net::MsgKind>(rec.code))
          << " at N" << rec.actor;
      break;
    case RecType::kRaise:
    case RecType::kResolved:
    case RecType::kHandler:
      out << " O" << rec.actor << " e" << rec.code << " a" << rec.scope
          << " r" << rec.round;
      break;
    case RecType::kState:
      out << " O" << rec.actor << " ->" << state_name(rec.code) << " a"
          << rec.scope << " r" << rec.round;
      break;
    case RecType::kAbort:
      out << " O" << rec.actor << " a" << rec.scope
          << (rec.code != 0 ? " signal e" + std::to_string(rec.code) : "");
      break;
    case RecType::kEnter:
    case RecType::kTakeover:
    case RecType::kHandlerEnd:
      out << " O" << rec.actor << " a" << rec.scope << " r" << rec.round;
      break;
    case RecType::kDone:
      out << " O" << rec.actor << " a" << rec.scope << " r" << rec.round
          << (rec.code != 0 ? " ok" : " acceptance failed");
      break;
    case RecType::kAbortHandler:
      out << " O" << rec.actor << " a" << rec.scope
          << (ExceptionId(rec.code).valid()
                  ? " signal e" + std::to_string(rec.code)
                  : "");
      break;
    case RecType::kLeave: {
      const auto outcome = static_cast<action::LeaveOutcome>(rec.code);
      out << " O" << rec.actor << " a" << rec.scope << " r" << rec.round
          << " " << action::to_string(outcome);
      if (outcome == action::LeaveOutcome::kRestored) {
        out << " attempt " << rec.peer;
      }
      break;
    }
    case RecType::kTxnBegin:
      out << " O" << rec.actor << " txn 0x" << std::hex << rec.scope
          << std::dec << (rec.peer != 0 ? " nested" : "");
      break;
    case RecType::kTxnEnd:
      out << " O" << rec.actor << " txn 0x" << std::hex << rec.scope
          << std::dec << (rec.code != 0 ? " committed" : " aborted");
      break;
  }
  if (rec.cause != 0) out << " cause=#" << rec.cause;
  return out.str();
}

std::vector<FlightRecord> chain_to(const std::vector<FlightRecord>& records,
                                   std::uint64_t id, bool* truncated) {
  const RecordIndex index = index_by_id(records);
  const auto it = index.find(id);
  if (it == index.end()) {
    if (truncated != nullptr) *truncated = false;
    return {};
  }
  bool trunc = false;
  std::vector<FlightRecord> chain = walk_chain(index, *it->second, trunc);
  if (truncated != nullptr) *truncated = trunc;
  return chain;
}

std::vector<CriticalPath> critical_paths(
    const std::vector<FlightRecord>& records) {
  const RecordIndex index = index_by_id(records);
  std::vector<CriticalPath> best;  // one slot per (scope, round) seen
  for (const FlightRecord& r : records) {
    if (r.type != RecType::kResolved) continue;
    bool truncated = false;
    CriticalPath path;
    path.hops = walk_chain(index, r, truncated);
    path.scope = r.scope;
    path.round = r.round;
    path.resolved_code = r.code;
    path.message_hops = count_message_hops(path.hops);
    path.begin = path.hops.front().time;
    path.end = r.time;
    path.truncated = truncated;
    auto slot = std::find_if(best.begin(), best.end(),
                             [&](const CriticalPath& p) {
                               return p.scope == path.scope &&
                                      p.round == path.round;
                             });
    if (slot == best.end()) {
      best.push_back(std::move(path));
      continue;
    }
    // Keep the longer chain; deterministic tie-breaks (hop count, chain
    // length, then the earliest terminal record id).
    const bool longer =
        path.message_hops != slot->message_hops
            ? path.message_hops > slot->message_hops
            : (path.hops.size() != slot->hops.size()
                   ? path.hops.size() > slot->hops.size()
                   : path.hops.back().id < slot->hops.back().id);
    if (longer) *slot = std::move(path);
  }
  std::sort(best.begin(), best.end(),
            [](const CriticalPath& a, const CriticalPath& b) {
              if (a.scope != b.scope) return a.scope < b.scope;
              return a.round < b.round;
            });
  return best;
}

std::string format_path(const CriticalPath& path) {
  std::ostringstream out;
  out << "action " << path.scope << " round " << path.round << ": "
      << path.message_hops << " message hops, t=" << path.begin << ".."
      << path.end << ", resolved e" << path.resolved_code;
  if (path.truncated) out << " (truncated: chain left the ring)";
  out << "\n";
  for (const FlightRecord& hop : path.hops) {
    out << "  " << format_record(hop) << "\n";
  }
  return out.str();
}

std::string inspect_report(const FlightDump& dump,
                           const InspectOptions& options) {
  std::ostringstream out;
  out << "flight recorder dump: seed=0x" << std::hex << dump.seed << std::dec
      << " world=" << dump.world_index << " records=" << dump.records.size()
      << " (recorded " << dump.recorded_total << ", overwritten "
      << dump.overwritten << ")\n";
  if (options.show_records) {
    out << "--- records ---\n";
    std::size_t shown = 0;
    for (const FlightRecord& r : dump.records) {
      if (!matches(r, options)) continue;
      out << format_record(r) << "\n";
      ++shown;
    }
    if (shown != dump.records.size()) {
      out << "(" << shown << "/" << dump.records.size()
          << " records matched the filter)\n";
    }
  }
  if (options.chain) {
    out << "--- causal chain to #" << *options.chain << " ---\n";
    bool truncated = false;
    const std::vector<FlightRecord> chain =
        chain_to(dump.records, *options.chain, &truncated);
    if (chain.empty()) {
      out << "(record #" << *options.chain << " not in dump)\n";
    } else {
      for (const FlightRecord& r : chain) out << format_record(r) << "\n";
      if (truncated) out << "(truncated: chain left the ring)\n";
    }
  }
  if (options.show_paths) {
    out << "--- critical paths ---\n";
    std::vector<CriticalPath> paths = critical_paths(dump.records);
    if (options.scope) {
      std::erase_if(paths, [&](const CriticalPath& p) {
        return p.scope != *options.scope;
      });
    }
    if (paths.empty()) out << "(no resolutions in dump)\n";
    for (const CriticalPath& p : paths) out << format_path(p);
  }
  return out.str();
}

}  // namespace caa::obs
