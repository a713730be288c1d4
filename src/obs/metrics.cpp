#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "util/check.h"

namespace caa::obs {

void Histogram::record(std::int64_t value) {
  if (count_ == 0 || value < min_) min_ = value;
  if (value > max_) max_ = value;
  ++count_;
  sum_ += value;
  const auto magnitude =
      static_cast<std::uint64_t>(value < 0 ? 0 : value);
  const int bucket = magnitude == 0 ? 0 : std::bit_width(magnitude);
  buckets_[std::min(bucket, kBuckets - 1)] += 1;
}

namespace {

/// Shared bucket-scan percentile: smallest bucket upper bound covering
/// >= q of `count` samples, capped at the recorded max (a bucket's bound
/// may lie past every sample in it; it is never below them, so the result
/// is never below the min either). The scan cannot run off the end for
/// consistent data; it returns max if it does.
std::int64_t bucket_quantile(const std::int64_t* buckets, int n_buckets,
                             std::int64_t count, std::int64_t max, double q) {
  CAA_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile_bound: q outside [0,1]");
  if (count == 0) return 0;
  // q=1 has the exact answer on hand — the recorded max — and the bucket
  // scan would only round it up to the bucket bound.
  if (q >= 1.0) return max;
  const auto threshold =
      static_cast<std::int64_t>(q * static_cast<double>(count));
  std::int64_t seen = 0;
  for (int b = 0; b < n_buckets; ++b) {
    seen += buckets[b];
    if (seen >= threshold && seen > 0) {
      // Upper bound of bucket b: values v with bit_width(v) == b.
      return std::min(b == 0 ? 0 : (std::int64_t{1} << b) - 1, max);
    }
  }
  return max;
}

}  // namespace

std::int64_t Histogram::quantile_bound(double q) const {
  return bucket_quantile(buckets_, kBuckets, count_, max_, q);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  s.count = count_;
  s.sum = sum_;
  s.min = min();
  s.max = max_;
  for (int b = 0; b < kBuckets; ++b) s.buckets[b] = buckets_[b];
  return s;
}

void HistogramSnapshot::merge(const HistogramSnapshot& other) {
  if (other.count == 0) return;
  min = count == 0 ? other.min : std::min(min, other.min);
  max = count == 0 ? other.max : std::max(max, other.max);
  count += other.count;
  sum += other.sum;
  for (int b = 0; b < kBuckets; ++b) buckets[b] += other.buckets[b];
}

std::int64_t HistogramSnapshot::quantile_bound(double q) const {
  return bucket_quantile(buckets.data(), kBuckets, count, max, q);
}

std::string Histogram::to_string() const {
  std::ostringstream out;
  out << "count=" << count_ << " sum=" << sum_ << " min=" << min()
      << " max=" << max_ << " p50<=" << quantile_bound(0.5)
      << " p99<=" << quantile_bound(0.99);
  return out.str();
}

MetricsSnapshot MetricsSnapshot::diff(const MetricsSnapshot& earlier) const {
  MetricsSnapshot out;
  for (const auto& [name, value] : counters) {
    const auto it = earlier.counters.find(name);
    const std::int64_t before = it == earlier.counters.end() ? 0 : it->second;
    if (value != before) out.counters.emplace(name, value - before);
  }
  for (const auto& [name, value] : earlier.counters) {
    if (counters.find(name) == counters.end() && value != 0) {
      out.counters.emplace(name, -value);
    }
  }
  return out;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) {
    counters[name] += value;
  }
  for (const auto& [name, hist] : other.histograms) {
    histograms[name].merge(hist);
  }
}

std::string MetricsSnapshot::to_string() const {
  std::ostringstream out;
  for (const auto& [name, value] : counters) {
    out << name << "=" << value << "\n";
  }
  return out.str();
}

MetricsSnapshot Metrics::snapshot() const {
  MetricsSnapshot s;
  s.counters = counters_.all();
  for (const auto& [name, id] : histogram_ids_) {
    const Histogram& h = histograms_[id.value()];
    if (h.count() > 0) s.histograms.emplace(name, h.snapshot());
  }
  return s;
}

std::int64_t Metrics::resolution_messages() const {
  return sent(net::MsgKind::kException) + sent(net::MsgKind::kHaveNested) +
         sent(net::MsgKind::kNestedCompleted) + sent(net::MsgKind::kAck) +
         sent(net::MsgKind::kCommit);
}

HistogramId Metrics::histogram(std::string_view name) {
  if (const auto it = histogram_ids_.find(name);
      it != histogram_ids_.end()) {
    return it->second;
  }
  const HistogramId id(
      static_cast<HistogramId::rep_type>(histograms_.size()));
  histograms_.emplace_back();
  histogram_ids_.emplace(std::string(name), id);
  return id;
}

void Metrics::note_protocol_send(ActionInstanceId scope, std::uint32_t round,
                                 net::MsgKind kind, std::int64_t n) {
  auto& rounds = per_action_[scope];
  if (rounds.size() <= round) rounds.resize(round + 1);
  RoundCounts& rc = rounds[round];
  switch (kind) {
    case net::MsgKind::kException: rc.exception += n; break;
    case net::MsgKind::kHaveNested: rc.have_nested += n; break;
    case net::MsgKind::kNestedCompleted: rc.nested_completed += n; break;
    case net::MsgKind::kAck: rc.ack += n; break;
    case net::MsgKind::kCommit: rc.commit += n; break;
    default: break;  // not a resolution-protocol kind; nothing to tabulate
  }
}

const std::vector<RoundCounts>* Metrics::rounds_of(
    ActionInstanceId scope) const {
  const auto it = per_action_.find(scope);
  return it == per_action_.end() ? nullptr : &it->second;
}

std::vector<ActionInstanceId> Metrics::observed_actions() const {
  std::vector<ActionInstanceId> out;
  out.reserve(per_action_.size());
  for (const auto& [scope, rounds] : per_action_) out.push_back(scope);
  return out;
}

}  // namespace caa::obs
