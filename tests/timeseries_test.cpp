// Virtual-time telemetry: window alignment, delta conservation, ring
// capacity, campaign merge invariance, the JSON round-trip, the committed
// timeline goldens, the zero-drift contract (telemetry on/off checksums)
// and the histogram quantile_bound edge cases.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>

#include "obs/timeseries.h"
#include "run/campaign.h"
#include "scenario/scenarios.h"

#ifndef CAA_TEST_DATA_DIR
#error "CAA_TEST_DATA_DIR must point at the tests/ source directory"
#endif

namespace caa {
namespace {

/// The standard telemetry world of this file: the §4.4 flat scenario with
/// the sampler armed. Everything below derives from its table.
scenario::FlatOptions telemetry_options(sim::Time window = 250) {
  scenario::FlatOptions options;
  options.participants = 6;
  options.raisers = 2;
  options.world.telemetry.window = window;
  return options;
}

std::size_t column(const std::vector<std::string>& names,
                   const std::string& name) {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  ADD_FAILURE() << "tracked column missing: " << name;
  return 0;
}

TEST(TimeSeries, WindowsAreAlignedAndDeltasConserve) {
  scenario::FlatScenario s(telemetry_options());
  s.run();
  const obs::TimeSeriesTable table = s.world().timeseries_table();

  ASSERT_FALSE(table.empty());
  EXPECT_EQ(table.window, 250);
  EXPECT_EQ(table.dropped, 0u);
  // Ascending absolute window indices (gaps are fine: idle stretches
  // produce no rows).
  for (std::size_t i = 1; i < table.windows.size(); ++i) {
    EXPECT_LT(table.windows[i - 1].index, table.windows[i].index);
  }

  // Window deltas are a partition of the run's totals: summing any tracked
  // counter column reproduces the end-of-run counter exactly.
  const auto sum_of = [&](const std::string& name) {
    const std::size_t c = column(table.counter_names, name);
    std::int64_t sum = 0;
    for (const obs::TimeSeriesWindow& w : table.windows) sum += w.counters[c];
    return sum;
  };
  EXPECT_EQ(sum_of("net.sent.Exception"),
            s.world().metrics().sent(net::MsgKind::kException));
  EXPECT_EQ(sum_of("net.sent.ACK"),
            s.world().metrics().sent(net::MsgKind::kAck));
  EXPECT_EQ(sum_of("net.sent.Commit"),
            s.world().metrics().sent(net::MsgKind::kCommit));

  // Gauges returned to zero by the end (the run quiesced), but the peaks
  // saw the action: all six scopes were open at once.
  EXPECT_EQ(table.peak_of("caa.open_scopes"), 6);
  EXPECT_GT(table.peak_of("net.in_flight"), 0);
  EXPECT_GT(table.peak_of("sim.queue_depth"), 0);
  EXPECT_EQ(table.peak_of("no.such.gauge"), 0);
}

TEST(TimeSeries, RingCapacityDropsOldestWindows) {
  scenario::FlatOptions options = telemetry_options(/*window=*/50);
  options.world.telemetry.capacity = 3;
  scenario::FlatScenario s(options);
  s.run();
  const obs::TimeSeriesTable table = s.world().timeseries_table();
  EXPECT_GT(table.dropped, 0u);
  EXPECT_LE(table.windows.size(), 4u);  // ring + the open partial window
}

TEST(TimeSeries, MergeIsWindowIndexAligned) {
  // Hand-built tables: identical schema, overlapping + disjoint windows.
  obs::TimeSeriesTable a;
  a.window = 100;
  a.counter_names = {"c"};
  a.gauge_names = {"g"};
  a.windows.push_back({.index = 0,
                       .counters = {5},
                       .gauges = {2},
                       .gauge_peaks = {3},
                       .hist_counts = {},
                       .hist_sums = {}});
  a.windows.push_back({.index = 2,
                       .counters = {7},
                       .gauges = {1},
                       .gauge_peaks = {1},
                       .hist_counts = {},
                       .hist_sums = {}});
  obs::TimeSeriesTable b = a;
  b.windows[0].counters = {10};
  b.windows[1] = {.index = 3,
                  .counters = {1},
                  .gauges = {4},
                  .gauge_peaks = {9},
                  .hist_counts = {},
                  .hist_sums = {}};

  obs::TimeSeriesTable merged = a;
  merged.merge(b);
  ASSERT_EQ(merged.windows.size(), 3u);  // indices 0 (shared), 2, 3
  EXPECT_EQ(merged.windows[0].index, 0u);
  EXPECT_EQ(merged.windows[0].counters[0], 15);  // element-wise sum
  EXPECT_EQ(merged.windows[0].gauges[0], 4);     // levels add across worlds
  EXPECT_EQ(merged.windows[1].index, 2u);
  EXPECT_EQ(merged.windows[1].counters[0], 7);
  EXPECT_EQ(merged.windows[2].index, 3u);
  EXPECT_EQ(merged.windows[2].gauge_peaks[0], 9);

  // Merge is commutative: b.merge(a) renders the same table.
  obs::TimeSeriesTable reversed = b;
  reversed.merge(a);
  EXPECT_EQ(merged.to_string(), reversed.to_string());

  // Merging into an empty table adopts the other side wholesale.
  obs::TimeSeriesTable empty;
  empty.merge(a);
  EXPECT_EQ(empty.to_string(), a.to_string());
}

run::Campaign telemetry_campaign(unsigned threads) {
  run::Campaign campaign({.seed = 42, .threads = threads});
  for (const int n : {4, 6, 8}) {
    for (int k = 0; k < 3; ++k) {
      campaign.add("flat_n" + std::to_string(n) + "#" + std::to_string(k),
                   [n](const run::WorldContext& ctx) {
                     scenario::FlatOptions options;
                     options.participants = n;
                     options.raisers = 2;
                     options.world.seed = ctx.seed;
                     options.world.telemetry.window = 250;
                     scenario::FlatScenario s(options);
                     return run::measure("flat", s.world(),
                                         [&s] { return s.world().run(); });
                   });
    }
  }
  return campaign;
}

TEST(TimeSeries, CampaignMergeIsThreadCountInvariant) {
  // The tentpole acceptance gate: the merged window table — not just its
  // totals — is byte-identical at any worker count.
  const run::CampaignResult serial = telemetry_campaign(1).run();
  const run::CampaignResult parallel = telemetry_campaign(8).run();
  ASSERT_TRUE(serial.all_ok());
  ASSERT_TRUE(parallel.all_ok());
  ASSERT_FALSE(serial.merged_timeseries.empty());
  EXPECT_EQ(serial.merged_timeseries.to_string(),
            parallel.merged_timeseries.to_string());
  EXPECT_EQ(serial.merged_timeseries.to_json(),
            parallel.merged_timeseries.to_json());
}

TEST(TimeSeries, JsonRoundTripIsLossless) {
  scenario::FlatScenario s(telemetry_options());
  s.run();
  const obs::TimeSeriesTable table = s.world().timeseries_table();
  const auto parsed = obs::TimeSeriesTable::from_json(table.to_json());
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().message();
  EXPECT_EQ(parsed.value().to_string(), table.to_string());
  EXPECT_EQ(parsed.value().to_json(), table.to_json());
  EXPECT_EQ(parsed.value().dropped, table.dropped);

  EXPECT_FALSE(obs::TimeSeriesTable::from_json("{]").is_ok());
  EXPECT_FALSE(obs::TimeSeriesTable::from_json("{}").is_ok());
}

/// The committed timeline goldens: the JSON export and the sparkline
/// rendering of the standard telemetry world, byte-for-byte (tools/check.sh
/// renders the JSON through caa-report and compares against the .txt).
/// Regenerate both with CAA_UPDATE_GOLDEN=1 ./timeseries_test.
TEST(TimeSeries, GoldenTimelineAndJson) {
  scenario::FlatScenario s(telemetry_options());
  s.run();
  const obs::TimeSeriesTable table = s.world().timeseries_table();
  const std::string json_path =
      std::string(CAA_TEST_DATA_DIR) + "/golden/timeseries_flat.json";
  const std::string txt_path =
      std::string(CAA_TEST_DATA_DIR) + "/golden/timeseries_flat_timeline.txt";
  if (std::getenv("CAA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream json(json_path, std::ios::binary | std::ios::trunc);
    json << table.to_json();
    std::ofstream txt(txt_path, std::ios::binary | std::ios::trunc);
    txt << table.timeline();
    GTEST_SKIP() << "goldens rewritten: " << json_path;
  }
  std::ifstream json(json_path, std::ios::binary);
  ASSERT_TRUE(json.good()) << "missing golden " << json_path
                           << " (run with CAA_UPDATE_GOLDEN=1)";
  std::stringstream json_data;
  json_data << json.rdbuf();
  EXPECT_EQ(json_data.str(), table.to_json())
      << "timeseries JSON drifted from the committed golden";

  std::ifstream txt(txt_path, std::ios::binary);
  ASSERT_TRUE(txt.good()) << "missing golden " << txt_path;
  std::stringstream txt_data;
  txt_data << txt.rdbuf();
  EXPECT_EQ(txt_data.str(), table.timeline())
      << "timeline rendering drifted from the committed golden";
}

TEST(TimeSeries, ZeroDriftTelemetryNeverMovesChecksums) {
  // The determinism contract: arming the sampler (and the gauges feeding
  // it) adds no events and writes no counters, so the behaviour checksum is
  // bit-identical with telemetry on or off.
  scenario::FlatOptions with = telemetry_options();
  scenario::FlatScenario on(with);
  const run::WorldResult r_on =
      run::measure("on", on.world(), [&on] { return on.world().run(); });

  scenario::FlatOptions without = telemetry_options();
  without.world.telemetry.window = 0;
  scenario::FlatScenario off(without);
  const run::WorldResult r_off =
      run::measure("off", off.world(), [&off] { return off.world().run(); });

  EXPECT_EQ(r_on.checksum, r_off.checksum);
  EXPECT_EQ(r_on.events, r_off.events);
  EXPECT_EQ(r_on.sim_time, r_off.sim_time);
  EXPECT_FALSE(r_on.timeseries.empty());
  EXPECT_TRUE(r_off.timeseries.empty());
}

TEST(Histogram, QuantileBoundEdgeCases) {
  obs::Histogram h;
  h.record(3);
  h.record(3);
  h.record(100);
  // q=0: the lowest occupied bucket's upper bound (values 3 land in the
  // bit_width=2 bucket, bound 3).
  EXPECT_EQ(h.quantile_bound(0.0), 3);
  // q=1: the exact recorded max, not a power-of-two bucket bound.
  EXPECT_EQ(h.quantile_bound(1.0), 100);
  EXPECT_EQ(h.quantile_bound(0.5), 3);

  obs::Histogram empty;
  EXPECT_EQ(empty.quantile_bound(0.0), 0);
  EXPECT_EQ(empty.quantile_bound(1.0), 0);

  // The snapshot shares the same bucket-scan (and the same edges).
  const obs::HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.quantile_bound(0.0), 3);
  EXPECT_EQ(snap.quantile_bound(1.0), 100);

  // A bucket's upper bound can lie past every sample in it: 600 and 900
  // share the [512, 1023] bucket, yet no quantile exceeds the max.
  obs::Histogram wide;
  wide.record(600);
  wide.record(900);
  EXPECT_EQ(wide.quantile_bound(0.5), 900);
  EXPECT_EQ(wide.quantile_bound(0.99), 900);
  EXPECT_EQ(wide.snapshot().quantile_bound(0.99), 900);
  obs::Histogram one;
  one.record(600);
  EXPECT_EQ(one.quantile_bound(0.5), 600);
}

}  // namespace
}  // namespace caa
