#include "obs/timeseries.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/check.h"
#include "util/json_parse.h"

namespace caa::obs {

const std::vector<std::string>& tracked_counters() {
  static const std::vector<std::string> kDefaults = {
      "net.sent.Exception",     "net.sent.ACK",
      "net.sent.Commit",        "net.sent.HaveNested",
      "net.sent.NestedCompleted", "net.sent.Relay",
      "net.sent.FastCover",     "net.sent.ActionDone",
      "net.sent.ActionLeave",   "overlay.heals",
      "resolve.fallbacks",
  };
  return kDefaults;
}

const std::vector<std::string>& tracked_histograms() {
  static const std::vector<std::string> kDefaults = {"resolve.latency"};
  return kDefaults;
}

// ---------------------------------------------------------------------------
// TimeSeries (the sampler)

void TimeSeries::arm(const TimeSeriesConfig& config) {
#ifdef CAA_OBS_DISABLED
  (void)config;
#else
  CAA_CHECK_MSG(metrics_ != nullptr && health_ != nullptr,
                "TimeSeries::arm before bind");
  CAA_CHECK_MSG(config.window > 0, "telemetry window must be positive");
  CAA_CHECK_MSG(config.capacity > 0, "telemetry capacity must be positive");
  window_ = config.window;
  capacity_ = config.capacity;
  next_due_ = window_;
  dropped_ = 0;
  ring_.clear();

  counter_names_ = tracked_counters();
  counter_ids_.clear();
  for (const std::string& name : counter_names_) {
    counter_ids_.push_back(CounterId::of(name));
  }
  counter_last_.assign(counter_ids_.size(), 0);
  for (std::size_t i = 0; i < counter_ids_.size(); ++i) {
    counter_last_[i] = metrics_->counters().get(counter_ids_[i]);
  }

  histogram_names_ = tracked_histograms();
  histogram_ids_.clear();
  for (const std::string& name : histogram_names_) {
    histogram_ids_.push_back(metrics_->histogram(name));
  }
  hist_count_last_.assign(histogram_ids_.size(), 0);
  hist_sum_last_.assign(histogram_ids_.size(), 0);
  for (std::size_t i = 0; i < histogram_ids_.size(); ++i) {
    const Histogram& h = metrics_->histogram_data(histogram_ids_[i]);
    hist_count_last_[i] = h.count();
    hist_sum_last_[i] = h.sum();
  }
  health_->reset_peaks();
#endif
}

TimeSeriesWindow TimeSeries::snap_window(std::uint64_t index) const {
  TimeSeriesWindow win;
  win.index = index;
  win.counters.resize(counter_ids_.size());
  for (std::size_t i = 0; i < counter_ids_.size(); ++i) {
    win.counters[i] = metrics_->counters().get(counter_ids_[i]) -
                      counter_last_[i];
  }
  win.gauges.resize(HealthGauges::kGauges);
  win.gauge_peaks.resize(HealthGauges::kGauges);
  for (int g = 0; g < HealthGauges::kGauges; ++g) {
    win.gauges[g] = health_->value(static_cast<Gauge>(g));
    win.gauge_peaks[g] = health_->peak(static_cast<Gauge>(g));
  }
  win.hist_counts.resize(histogram_ids_.size());
  win.hist_sums.resize(histogram_ids_.size());
  for (std::size_t i = 0; i < histogram_ids_.size(); ++i) {
    const Histogram& h = metrics_->histogram_data(histogram_ids_[i]);
    win.hist_counts[i] = h.count() - hist_count_last_[i];
    win.hist_sums[i] = h.sum() - hist_sum_last_[i];
  }
  return win;
}

void TimeSeries::close_window(std::uint64_t index) {
  TimeSeriesWindow win = snap_window(index);
  // Advance the delta baselines to the values just snapshotted.
  for (std::size_t i = 0; i < counter_ids_.size(); ++i) {
    counter_last_[i] += win.counters[i];
  }
  for (std::size_t i = 0; i < histogram_ids_.size(); ++i) {
    hist_count_last_[i] += win.hist_counts[i];
    hist_sum_last_[i] += win.hist_sums[i];
  }
  health_->reset_peaks();
  if (ring_.size() == capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
  ring_.push_back(std::move(win));
}

void TimeSeries::roll(sim::Time now) {
  while (next_due_ <= now) {
    close_window(static_cast<std::uint64_t>(next_due_ / window_) - 1);
    next_due_ += window_;
  }
}

TimeSeriesTable TimeSeries::table() const {
  TimeSeriesTable out;
  if (!armed()) return out;
  out.window = window_;
  out.dropped = dropped_;
  out.counter_names = counter_names_;
  out.gauge_names.reserve(HealthGauges::kGauges);
  for (int g = 0; g < HealthGauges::kGauges; ++g) {
    out.gauge_names.emplace_back(gauge_name(static_cast<Gauge>(g)));
  }
  out.histogram_names = histogram_names_;
  out.windows.assign(ring_.begin(), ring_.end());
  // The open partial window: everything since the last closed boundary.
  // Deterministic — it depends only on the virtual clock, never wall time.
  out.windows.push_back(
      snap_window(static_cast<std::uint64_t>(next_due_ / window_) - 1));
  return out;
}

// ---------------------------------------------------------------------------
// TimeSeriesTable

void TimeSeriesTable::merge(const TimeSeriesTable& other) {
  if (other.window == 0) return;
  if (window == 0) {
    *this = other;
    return;
  }
  CAA_CHECK_MSG(window == other.window &&
                    counter_names == other.counter_names &&
                    gauge_names == other.gauge_names &&
                    histogram_names == other.histogram_names,
                "merging time-series tables with different schemas");
  dropped += other.dropped;
  std::vector<TimeSeriesWindow> merged;
  merged.reserve(std::max(windows.size(), other.windows.size()));
  std::size_t a = 0;
  std::size_t b = 0;
  const auto add_into = [](TimeSeriesWindow& into,
                           const TimeSeriesWindow& from) {
    for (std::size_t i = 0; i < into.counters.size(); ++i) {
      into.counters[i] += from.counters[i];
    }
    for (std::size_t i = 0; i < into.gauges.size(); ++i) {
      into.gauges[i] += from.gauges[i];
      into.gauge_peaks[i] += from.gauge_peaks[i];
    }
    for (std::size_t i = 0; i < into.hist_counts.size(); ++i) {
      into.hist_counts[i] += from.hist_counts[i];
      into.hist_sums[i] += from.hist_sums[i];
    }
  };
  while (a < windows.size() || b < other.windows.size()) {
    if (b >= other.windows.size() ||
        (a < windows.size() && windows[a].index < other.windows[b].index)) {
      merged.push_back(std::move(windows[a++]));
    } else if (a >= windows.size() ||
               other.windows[b].index < windows[a].index) {
      merged.push_back(other.windows[b++]);
    } else {
      TimeSeriesWindow row = std::move(windows[a++]);
      add_into(row, other.windows[b++]);
      merged.push_back(std::move(row));
    }
  }
  windows = std::move(merged);
}

std::int64_t TimeSeriesTable::peak_of(std::string_view name) const {
  for (std::size_t g = 0; g < gauge_names.size(); ++g) {
    if (gauge_names[g] != name) continue;
    std::int64_t best = 0;
    for (const TimeSeriesWindow& win : windows) {
      best = std::max(best, win.gauge_peaks[g]);
    }
    return best;
  }
  return 0;
}

namespace {

void append_names(std::ostringstream& out, std::string_view label,
                  const std::vector<std::string>& names) {
  out << label << ":";
  for (const std::string& name : names) out << " " << name;
  out << "\n";
}

}  // namespace

std::string TimeSeriesTable::to_string() const {
  std::ostringstream out;
  out << "timeseries window=" << window << " windows=" << windows.size()
      << " dropped=" << dropped << "\n";
  if (window == 0) return out.str();
  append_names(out, "counters", counter_names);
  append_names(out, "gauges", gauge_names);
  append_names(out, "histograms", histogram_names);
  for (const TimeSeriesWindow& win : windows) {
    out << "win " << win.index << " [" << win.index * window << ","
        << (win.index + 1) * window << "):";
    bool any = false;
    for (std::size_t i = 0; i < counter_names.size(); ++i) {
      if (win.counters[i] == 0) continue;
      out << " " << counter_names[i] << "=" << win.counters[i];
      any = true;
    }
    out << " |";
    for (std::size_t g = 0; g < gauge_names.size(); ++g) {
      if (win.gauges[g] == 0 && win.gauge_peaks[g] == 0) continue;
      out << " " << gauge_names[g] << "=" << win.gauges[g] << "^"
          << win.gauge_peaks[g];
      any = true;
    }
    for (std::size_t i = 0; i < histogram_names.size(); ++i) {
      if (win.hist_counts[i] == 0) continue;
      out << " | " << histogram_names[i] << "+" << win.hist_counts[i] << "/"
          << win.hist_sums[i];
      any = true;
    }
    if (!any) out << " idle";
    out << "\n";
  }
  return out.str();
}

std::string TimeSeriesTable::timeline() const {
  std::ostringstream out;
  out << "timeline window=" << window << " windows=" << windows.size()
      << " dropped=" << dropped << "\n";
  if (window == 0 || windows.empty()) return out.str();

  // One sparkline column per series with any signal: counters by delta,
  // gauges by in-window peak.
  struct Column {
    char tag;
    std::string name;
    bool is_gauge;
    std::size_t slot;
    std::int64_t max = 0;
  };
  std::vector<Column> columns;
  char next_tag = 'a';
  const auto tag_for = [&next_tag]() {
    const char tag = next_tag;
    next_tag = next_tag == 'z' ? 'A' : static_cast<char>(next_tag + 1);
    return tag;
  };
  for (std::size_t i = 0; i < counter_names.size(); ++i) {
    std::int64_t max = 0;
    for (const TimeSeriesWindow& win : windows) {
      max = std::max(max, win.counters[i]);
    }
    if (max > 0) columns.push_back({tag_for(), counter_names[i], false, i, max});
  }
  for (std::size_t g = 0; g < gauge_names.size(); ++g) {
    std::int64_t max = 0;
    for (const TimeSeriesWindow& win : windows) {
      max = std::max(max, win.gauge_peaks[g]);
    }
    if (max > 0) columns.push_back({tag_for(), gauge_names[g], true, g, max});
  }
  for (const Column& col : columns) {
    out << "  " << col.tag << " " << col.name << " (max " << col.max
        << (col.is_gauge ? ", peak)" : ")") << "\n";
  }
  out << "  window     t ";
  for (const Column& col : columns) out << col.tag;
  out << "\n";
  static constexpr char kRamp[] = " .:-=+*#%@";
  for (const TimeSeriesWindow& win : windows) {
    char line[32];
    std::snprintf(line, sizeof(line), "  %6llu %5lld ",
                  static_cast<unsigned long long>(win.index),
                  static_cast<long long>(win.index * window));
    out << line;
    for (const Column& col : columns) {
      const std::int64_t v =
          col.is_gauge ? win.gauge_peaks[col.slot] : win.counters[col.slot];
      int level = 0;
      if (v > 0) level = 1 + static_cast<int>((v * 8) / col.max);
      out << kRamp[std::min(level, 9)];
    }
    out << "\n";
  }
  return out.str();
}

namespace {

void append_json_strings(std::string& out, const std::vector<std::string>& v) {
  out += "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + v[i] + "\"";  // names are identifier-like; no escaping
  }
  out += "]";
}

void append_json_ints(std::string& out, const std::vector<std::int64_t>& v) {
  out += "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(v[i]);
  }
  out += "]";
}

Status json_ints(const util::JsonValue* value, std::size_t expected,
                 std::vector<std::int64_t>* out) {
  if (value == nullptr || !value->is_array() ||
      value->elements.size() != expected) {
    return Status::invalid_argument("timeseries: bad window row");
  }
  out->clear();
  out->reserve(expected);
  for (const util::JsonValue& element : value->elements) {
    if (!element.is_number()) {
      return Status::invalid_argument("timeseries: non-numeric cell");
    }
    out->push_back(element.as_int());
  }
  return Status::ok();
}

Status json_names(const util::JsonValue* value,
                  std::vector<std::string>* out) {
  if (value == nullptr || !value->is_array()) {
    return Status::invalid_argument("timeseries: missing name list");
  }
  out->clear();
  for (const util::JsonValue& element : value->elements) {
    if (!element.is_string()) {
      return Status::invalid_argument("timeseries: non-string name");
    }
    out->push_back(element.string);
  }
  return Status::ok();
}

}  // namespace

std::string TimeSeriesTable::to_json() const {
  std::string out;
  out += "{\n  \"format\": \"caa-timeseries\",\n  \"version\": 1,\n";
  out += "  \"window\": " + std::to_string(window) + ",\n";
  out += "  \"dropped\": " + std::to_string(dropped) + ",\n";
  out += "  \"counters\": ";
  append_json_strings(out, counter_names);
  out += ",\n  \"gauges\": ";
  append_json_strings(out, gauge_names);
  out += ",\n  \"histograms\": ";
  append_json_strings(out, histogram_names);
  out += ",\n  \"windows\": [";
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const TimeSeriesWindow& win = windows[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"index\": " + std::to_string(win.index) + ", \"counters\": ";
    append_json_ints(out, win.counters);
    out += ", \"gauges\": ";
    append_json_ints(out, win.gauges);
    out += ", \"peaks\": ";
    append_json_ints(out, win.gauge_peaks);
    out += ", \"hist_counts\": ";
    append_json_ints(out, win.hist_counts);
    out += ", \"hist_sums\": ";
    append_json_ints(out, win.hist_sums);
    out += "}";
  }
  out += windows.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

Result<TimeSeriesTable> TimeSeriesTable::from_json(std::string_view text) {
  auto parsed = util::parse_json(text);
  if (!parsed.is_ok()) return parsed.status();
  const util::JsonValue& root = parsed.value();
  if (!root.is_object()) {
    return Status::invalid_argument("timeseries: not an object");
  }
  const util::JsonValue* format = root.find("format");
  if (format == nullptr || !format->is_string() ||
      format->string != "caa-timeseries") {
    return Status::invalid_argument("timeseries: not a caa-timeseries file");
  }
  TimeSeriesTable table;
  const util::JsonValue* window = root.find("window");
  if (window == nullptr || !window->is_number()) {
    return Status::invalid_argument("timeseries: missing window");
  }
  table.window = window->as_int();
  if (const util::JsonValue* dropped = root.find("dropped");
      dropped != nullptr && dropped->is_number()) {
    table.dropped = static_cast<std::uint64_t>(dropped->as_int());
  }
  if (Status s = json_names(root.find("counters"), &table.counter_names);
      !s.is_ok()) {
    return s;
  }
  if (Status s = json_names(root.find("gauges"), &table.gauge_names);
      !s.is_ok()) {
    return s;
  }
  if (Status s = json_names(root.find("histograms"), &table.histogram_names);
      !s.is_ok()) {
    return s;
  }
  const util::JsonValue* windows = root.find("windows");
  if (windows == nullptr || !windows->is_array()) {
    return Status::invalid_argument("timeseries: missing windows");
  }
  for (const util::JsonValue& row : windows->elements) {
    if (!row.is_object()) {
      return Status::invalid_argument("timeseries: bad window row");
    }
    TimeSeriesWindow win;
    const util::JsonValue* index = row.find("index");
    if (index == nullptr || !index->is_number()) {
      return Status::invalid_argument("timeseries: window without index");
    }
    win.index = static_cast<std::uint64_t>(index->as_int());
    if (Status s = json_ints(row.find("counters"),
                             table.counter_names.size(), &win.counters);
        !s.is_ok()) {
      return s;
    }
    if (Status s = json_ints(row.find("gauges"), table.gauge_names.size(),
                             &win.gauges);
        !s.is_ok()) {
      return s;
    }
    if (Status s = json_ints(row.find("peaks"), table.gauge_names.size(),
                             &win.gauge_peaks);
        !s.is_ok()) {
      return s;
    }
    if (Status s = json_ints(row.find("hist_counts"),
                             table.histogram_names.size(), &win.hist_counts);
        !s.is_ok()) {
      return s;
    }
    if (Status s = json_ints(row.find("hist_sums"),
                             table.histogram_names.size(), &win.hist_sums);
        !s.is_ok()) {
      return s;
    }
    table.windows.push_back(std::move(win));
  }
  return table;
}

}  // namespace caa::obs
