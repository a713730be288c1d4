// The metrics facade: one typed surface over all protocol accounting.
//
// Subsumes the former ad-hoc accessors (World::messages_of, World::counters,
// string-keyed Counters lookups) behind one object:
//
//   * kind-indexed message tallies     — sent/delivered/dropped(MsgKind),
//     resolution_messages() (the §4.4 quantity), total_sent()
//   * typed counter handles            — value(CounterId); the interned-id
//     hot path of util/counters.h stays the write side
//   * debug string lookup              — value("name") for tests and cold
//     paths; the ONLY remaining string-keyed read (writes are id-only now)
//   * histograms                       — intern once, record dense
//   * per-action / per-round views     — protocol messages tabulated by
//     (action instance, round, kind) when observability is enabled; this is
//     what reproduces the paper's §4.4 per-scenario tables per run
//   * snapshot / diff                  — stable name→value maps for run
//     fingerprints, A/B comparisons and the bench JSON records
//
// Ownership: obs::Observability (one per Simulator, hence one per World)
// owns the Metrics, which owns the Counters store every module writes to.
// Counter writes are unconditional (they define the behaviour checksum);
// the per-round tables and histogram recording are guarded by
// Observability::enabled() at the call sites, so a disabled run's counters
// are bit-identical to an enabled run's.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "net/message.h"
#include "util/counters.h"
#include "util/ids.h"

namespace caa::obs {

/// Dense per-Metrics histogram handle (unlike CounterId, histogram names are
/// not a process-wide registry: histograms are heavier and per-World).
using HistogramId = StrongId<struct ObsHistogramTag>;

/// Value-semantic copy of one histogram's state. The campaign runner merges
/// per-world snapshots bucket-wise — addition is commutative and
/// associative, so merged percentile rows are bit-identical for any thread
/// count (merge happens in index order regardless of scheduling).
struct HistogramSnapshot {
  static constexpr int kBuckets = 64;
  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;  // meaningful only when count > 0
  std::int64_t max = 0;
  std::array<std::int64_t, kBuckets> buckets{};

  void merge(const HistogramSnapshot& other);
  [[nodiscard]] double mean() const {
    return count ? static_cast<double>(sum) / static_cast<double>(count)
                 : 0.0;
  }
  /// Same bucket-bound percentile as Histogram::quantile_bound.
  [[nodiscard]] std::int64_t quantile_bound(double q) const;
};

/// Power-of-two-bucketed value distribution (latencies, sizes). Fixed
/// storage, no allocation after interning; record() is a few integer ops.
class Histogram {
 public:
  void record(std::int64_t value);

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] std::int64_t sum() const { return sum_; }
  [[nodiscard]] std::int64_t min() const { return count_ ? min_ : 0; }
  [[nodiscard]] std::int64_t max() const { return max_; }
  [[nodiscard]] double mean() const {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }
  /// Smallest recorded-bucket upper bound covering >= q of the samples
  /// (q in [0,1]), clamped into [min, max]; a coarse percentile adequate
  /// for run reports.
  [[nodiscard]] std::int64_t quantile_bound(double q) const;

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] HistogramSnapshot snapshot() const;

 private:
  static constexpr int kBuckets = HistogramSnapshot::kBuckets;
  std::int64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
  std::int64_t buckets_[kBuckets] = {};
};

/// Per-round tally of the five §4.2 protocol messages, as *sent* (matching
/// the paper's counting; retransmissions of the reliable transport are
/// transport-internal and excluded by construction).
struct RoundCounts {
  std::int64_t exception = 0;
  std::int64_t have_nested = 0;
  std::int64_t nested_completed = 0;
  std::int64_t ack = 0;
  std::int64_t commit = 0;

  [[nodiscard]] std::int64_t total() const {
    return exception + have_nested + nested_completed + ack + commit;
  }
};

/// A stable name→value picture of every non-zero counter, for fingerprints
/// and A/B diffs.
struct MetricsSnapshot {
  std::map<std::string, std::int64_t, std::less<>> counters;
  /// Non-empty histograms at snapshot time. Merged bucket-wise; excluded
  /// from to_string() so behaviour fingerprints stay counter-only.
  std::map<std::string, HistogramSnapshot, std::less<>> histograms;

  /// Per-key `this - earlier` (keys missing on either side count as 0;
  /// zero-valued differences are omitted). Counters only.
  [[nodiscard]] MetricsSnapshot diff(const MetricsSnapshot& earlier) const;

  /// Key-wise sum of `other` into this snapshot — the campaign runner's
  /// aggregation step. Commutative, so merging per-world snapshots in index
  /// order yields the same result for any thread count.
  void merge(const MetricsSnapshot& other);

  /// Sorted "name=value" lines over the counters (checksum input; the
  /// histograms deliberately do not participate).
  [[nodiscard]] std::string to_string() const;
};

class Metrics {
 public:
  // ---- Message tallies (kind-indexed; replaces World::messages_of) ----

  [[nodiscard]] std::int64_t sent(net::MsgKind kind) const {
    return counters_.get(net::kind_counters(kind).sent);
  }
  [[nodiscard]] std::int64_t delivered(net::MsgKind kind) const {
    return counters_.get(net::kind_counters(kind).delivered);
  }
  [[nodiscard]] std::int64_t dropped(net::MsgKind kind) const {
    return counters_.get(net::kind_counters(kind).dropped);
  }

  /// Total resolution-protocol messages sent: Exception + HaveNested +
  /// NestedCompleted + ACK + Commit — exactly the §4.4 quantity.
  [[nodiscard]] std::int64_t resolution_messages() const;

  /// Packets of every kind sent since construction.
  [[nodiscard]] std::int64_t total_sent() const {
    return counters_.sum_prefix("net.sent.");
  }

  // ---- Counters ------------------------------------------------------

  /// The underlying store. Hot paths keep writing through interned
  /// CounterId handles: `metrics.counters().add(kMyCounter)`.
  [[nodiscard]] Counters& counters() { return counters_; }
  [[nodiscard]] const Counters& counters() const { return counters_; }

  [[nodiscard]] std::int64_t value(CounterId id) const {
    return counters_.get(id);
  }
  /// Debug/cold-path lookup by name (tests, examples). Interns the name;
  /// never use on a per-message path.
  [[nodiscard]] std::int64_t value(std::string_view name) const {
    return counters_.get(CounterId::of(name));
  }

  // ---- Histograms ----------------------------------------------------

  /// Interns a histogram name to a dense handle. Idempotent; cold path.
  HistogramId histogram(std::string_view name);

  void record(HistogramId id, std::int64_t value) {
    histograms_[id.value()].record(value);
  }
  [[nodiscard]] const Histogram& histogram_data(HistogramId id) const {
    return histograms_[id.value()];
  }
  [[nodiscard]] const std::map<std::string, HistogramId, std::less<>>&
  histogram_names() const {
    return histogram_ids_;
  }

  // ---- Per-action / per-round protocol views -------------------------
  // Populated by the resolution layer only while observability is enabled
  // (World::metrics() of a default world reports no rounds).

  /// Records `n` protocol messages of `kind` sent in `round` of `scope`.
  void note_protocol_send(ActionInstanceId scope, std::uint32_t round,
                          net::MsgKind kind, std::int64_t n);

  /// Rounds observed for one action instance (nullptr when none recorded).
  [[nodiscard]] const std::vector<RoundCounts>* rounds_of(
      ActionInstanceId scope) const;

  /// Action instances with recorded rounds, in id order.
  [[nodiscard]] std::vector<ActionInstanceId> observed_actions() const;

  // ---- Snapshot / diff -----------------------------------------------

  /// Counters plus every non-empty histogram.
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  Counters counters_;
  std::vector<Histogram> histograms_;
  std::map<std::string, HistogramId, std::less<>> histogram_ids_;
  std::map<ActionInstanceId, std::vector<RoundCounts>> per_action_;
};

}  // namespace caa::obs
