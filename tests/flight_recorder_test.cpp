// Flight recorder + causal extractor tests: ring wraparound, binary
// round-trip, golden caa-inspect decode, critical paths vs the §4.4
// scenarios, and the zero-drift contract (recorder on/off checksums).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "net/message.h"
#include "obs/causal.h"
#include "obs/flight_recorder.h"
#include "scenario/scenarios.h"

#ifndef CAA_TEST_DATA_DIR
#error "CAA_TEST_DATA_DIR must point at the tests/ source directory"
#endif

namespace caa {
namespace {

using obs::FlightDump;
using obs::FlightRecord;
using obs::FlightRecorder;
using obs::RecType;

TEST(FlightRecorder, RingWraparound) {
  FlightRecorder rec;
  sim::Time now = 0;
  rec.bind_clock(&now);
  rec.set_capacity(16);
  for (int i = 0; i < 40; ++i) {
    now = i;
    rec.record_send(100, /*src=*/1, /*dst=*/2);
  }
  EXPECT_EQ(rec.size(), 16u);
  EXPECT_EQ(rec.recorded_total(), 40u);
  EXPECT_EQ(rec.overwritten(), 24u);
  const std::vector<FlightRecord> records = rec.snapshot();
  ASSERT_EQ(records.size(), 16u);
  // Oldest retained record first; ids stay monotonic across the wrap.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].id, 25 + i);
    EXPECT_EQ(records[i].time, static_cast<sim::Time>(24 + i));
  }
}

TEST(FlightRecorder, CapacityFloorAndClear) {
  FlightRecorder rec;
  rec.set_capacity(1);  // clamped to a sane floor
  EXPECT_GE(rec.capacity(), 16u);
  rec.record_send(100, 0, 1);
  EXPECT_EQ(rec.size(), 1u);
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.recorded_total(), 0u);
}

TEST(FlightRecorder, DisabledRecordsNothing) {
  FlightRecorder rec;
  rec.set_enabled(false);
  EXPECT_EQ(rec.record_send(100, 0, 1), 0u);
  rec.record_drop(100, 0, 7);
  EXPECT_EQ(rec.record_protocol(RecType::kRaise, 1, 5, 0, 2), 0u);
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.recorded_total(), 0u);
}

TEST(FlightRecorder, EncodeDecodeRoundTrip) {
  FlightRecorder rec;
  sim::Time now = 1000;
  rec.bind_clock(&now);
  const std::uint64_t send = rec.record_send(100, 3, 7);
  now = 1100;
  const std::uint64_t deliver = rec.record_delivery(100, 7, 3, send);
  rec.set_current_cause(deliver);
  rec.record_protocol(RecType::kResolved, 7, 12, 2, 4);
  rec.record_drop(103, 5, deliver);

  const net::Bytes bytes = rec.encode(0xDEADBEEF, 42);
  const Result<FlightDump> decoded = FlightRecorder::decode(bytes);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status();
  const FlightDump& dump = decoded.value();
  EXPECT_EQ(dump.seed, 0xDEADBEEFu);
  EXPECT_EQ(dump.world_index, 42u);
  EXPECT_EQ(dump.recorded_total, 4u);
  EXPECT_EQ(dump.overwritten, 0u);
  ASSERT_EQ(dump.records.size(), 4u);

  EXPECT_EQ(dump.records[0].type, RecType::kSend);
  EXPECT_EQ(dump.records[0].time, 1000);
  EXPECT_EQ(dump.records[0].actor, 3u);
  EXPECT_EQ(dump.records[0].peer, 7u);
  EXPECT_EQ(dump.records[1].type, RecType::kDeliver);
  EXPECT_EQ(dump.records[1].cause, send);
  EXPECT_EQ(dump.records[2].type, RecType::kResolved);
  EXPECT_EQ(dump.records[2].cause, deliver);
  EXPECT_EQ(dump.records[2].scope, 12u);
  EXPECT_EQ(dump.records[2].round, 2u);
  EXPECT_EQ(dump.records[2].code, 4u);
  EXPECT_EQ(dump.records[3].type, RecType::kDrop);
}

TEST(FlightRecorder, LifecycleRecordsRoundTrip) {
  // One record of every lifecycle type, with the fields each one uses.
  FlightRecorder rec;
  sim::Time now = 500;
  rec.bind_clock(&now);
  const std::vector<FlightRecord> want = {
      {.scope = 3, .actor = 1, .type = RecType::kEnter},
      {.scope = 3, .actor = 1, .code = 0, .round = 2, .type = RecType::kDone},
      {.scope = 3, .actor = 1, .round = 2, .type = RecType::kTakeover},
      {.scope = 3, .actor = 1, .code = 5, .round = 2,
       .type = RecType::kHandler},
      {.scope = 3, .actor = 1, .round = 2, .type = RecType::kHandlerEnd},
      {.scope = 4, .actor = 1, .code = ExceptionId::invalid().value(),
       .type = RecType::kAbortHandler},
      {.scope = 3, .actor = 1, .peer = 1, .code = 2, .round = 3,
       .type = RecType::kLeave},
      {.scope = (2ULL << 32) | 7, .actor = 2, .peer = 1, .code = 7,
       .type = RecType::kTxnBegin},
      {.scope = (2ULL << 32) | 7, .actor = 2, .code = 1,
       .type = RecType::kTxnEnd},
  };
  for (const FlightRecord& r : want) {
    ++now;
    rec.record_protocol(r.type, r.actor, r.scope, r.round, r.code, r.peer);
  }
  const Result<FlightDump> decoded = FlightRecorder::decode(rec.encode(1, 0));
  ASSERT_TRUE(decoded.is_ok()) << decoded.status();
  const std::vector<FlightRecord>& got = decoded.value().records;
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(std::string(obs::rec_type_name(want[i].type)));
    EXPECT_TRUE(obs::is_lifecycle(got[i].type));
    EXPECT_EQ(got[i].type, want[i].type);
    EXPECT_EQ(got[i].id, i + 1);
    EXPECT_EQ(got[i].time, static_cast<sim::Time>(501 + i));
    EXPECT_EQ(got[i].scope, want[i].scope);
    EXPECT_EQ(got[i].actor, want[i].actor);
    EXPECT_EQ(got[i].peer, want[i].peer);
    EXPECT_EQ(got[i].code, want[i].code);
    EXPECT_EQ(got[i].round, want[i].round);
    EXPECT_NE(obs::format_record(got[i]).find(obs::rec_type_name(got[i].type)),
              std::string::npos);
  }
}

TEST(FlightRecorder, ObservedWorldKeepsEveryRecord) {
  // Spans are paired from the whole record, so an observed world's
  // recorder never wraps; the same world unobserved keeps its 4096-record
  // ring and writes no lifecycle record.
  const auto run = [](bool observe) {
    scenario::FlatOptions o;
    o.participants = 100;
    o.raisers = 10;
    o.world.observe = observe;
    auto s = std::make_unique<scenario::FlatScenario>(o);
    s->run();
    return s;
  };
  const auto observed = run(true);
  const FlightRecorder& kept = observed->world().recorder();
  EXPECT_GT(kept.recorded_total(), FlightRecorder::kDefaultCapacity);
  EXPECT_EQ(kept.overwritten(), 0u);
  EXPECT_EQ(kept.size(), kept.recorded_total());
  const std::vector<FlightRecord> records = kept.snapshot();
  for (std::size_t i = 0; i < records.size(); ++i) {
    ASSERT_EQ(records[i].id, i + 1);
  }

  const auto unobserved = run(false);
  const FlightRecorder& ring = unobserved->world().recorder();
  EXPECT_EQ(ring.size(), FlightRecorder::kDefaultCapacity);
  EXPECT_GT(ring.overwritten(), 0u);
  for (const FlightRecord& r : ring.snapshot()) {
    EXPECT_FALSE(obs::is_lifecycle(r.type)) << obs::format_record(r);
  }
  // The lifecycle records are the only difference between the two.
  std::size_t lifecycle = 0;
  for (const FlightRecord& r : records) lifecycle += obs::is_lifecycle(r.type);
  EXPECT_GT(lifecycle, 0u);
  EXPECT_EQ(kept.recorded_total() - lifecycle, ring.recorded_total());
}

TEST(FlightRecorder, DecodeRejectsGarbage) {
  net::Bytes empty;
  EXPECT_FALSE(FlightRecorder::decode(empty).is_ok());

  net::WireWriter w;
  w.str("NOTFR001");
  EXPECT_FALSE(FlightRecorder::decode(w.bytes()).is_ok());

  FlightRecorder rec;
  rec.record_send(100, 0, 1);
  net::Bytes truncated = rec.encode(1, 0);
  truncated.resize(truncated.size() - 3);
  EXPECT_FALSE(FlightRecorder::decode(truncated).is_ok());

  net::Bytes trailing = rec.encode(1, 0);
  trailing.push_back(std::byte{0});
  EXPECT_FALSE(FlightRecorder::decode(trailing).is_ok());

  net::Bytes unknown_type = rec.encode(1, 0);
  unknown_type.back() = std::byte{17};  // the record's type: past kTxnEnd
  EXPECT_FALSE(FlightRecorder::decode(unknown_type).is_ok());
}

// ---------------------------------------------------------------------------
// Causal chains from real scenario runs
// ---------------------------------------------------------------------------

/// Runs a flat (N, P, Q) scenario and returns its critical paths.
std::vector<obs::CriticalPath> flat_paths(int n, int p, int q) {
  scenario::FlatOptions o;
  o.participants = n;
  o.raisers = p;
  o.nested = q;
  scenario::FlatScenario s(o);
  s.run();
  return obs::critical_paths(s.world().recorder().snapshot());
}

TEST(CausalPaths, Flat310CriticalPathIsThreeHops) {
  const std::vector<obs::CriticalPath> paths = flat_paths(3, 1, 0);
  ASSERT_EQ(paths.size(), 1u);
  const obs::CriticalPath& path = paths[0];
  // §4.4: (3,1,0) sends 6 messages total, but the chain that *completes*
  // the resolution is raise -> Exception -> ACK -> Commit: 3 message hops.
  EXPECT_EQ(path.message_hops, 3);
  EXPECT_FALSE(path.truncated);
  EXPECT_EQ(path.hops.back().type, RecType::kResolved);
  // The chain is causally connected: every hop's cause is its predecessor.
  for (std::size_t i = 1; i < path.hops.size(); ++i) {
    EXPECT_EQ(path.hops[i].cause, path.hops[i - 1].id);
  }
  // It starts at the raise (or the raiser's send, when the raise record
  // predates the chain root) and times are monotone.
  for (std::size_t i = 1; i < path.hops.size(); ++i) {
    EXPECT_GE(path.hops[i].time, path.hops[i - 1].time);
  }
}

TEST(CausalPaths, Flat320CriticalPathStaysThreeHops) {
  // Two simultaneous raisers double the traffic (10 messages total) but the
  // longest dependency chain is still Exception -> ACK -> Commit.
  const std::vector<obs::CriticalPath> paths = flat_paths(3, 2, 0);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].message_hops, 3);
  EXPECT_FALSE(paths[0].truncated);
}

TEST(CausalPaths, Flat421NestedAbortDelaysCriticalPath) {
  // One member sits in a nested action. The dependency chain stays
  // Exception -> ACK -> Commit (3 hops) — §4.4's 24 messages are breadth,
  // not depth — but the path runs through the *nested* member, whose ACK
  // cannot leave until its nested action has aborted. A non-zero abort
  // duration therefore stretches the same 3-hop path in time.
  auto run_one = [](sim::Time abort_duration) {
    scenario::FlatOptions o;
    o.participants = 4;
    o.raisers = 2;
    o.nested = 1;
    o.abort_duration = abort_duration;
    scenario::FlatScenario s(o);
    s.run();
    std::vector<obs::CriticalPath> paths =
        obs::critical_paths(s.world().recorder().snapshot());
    EXPECT_EQ(paths.size(), 1u);
    return paths.at(0);
  };
  const obs::CriticalPath instant = run_one(0);
  const obs::CriticalPath delayed = run_one(50);
  EXPECT_EQ(instant.message_hops, 3);
  EXPECT_EQ(delayed.message_hops, 3);
  EXPECT_EQ(delayed.end - delayed.begin, (instant.end - instant.begin) + 50)
      << "nested abort should stretch the critical path by its duration";
  // The stretched hop is the nested member's ACK: it appears on the path
  // as an ACK sent strictly after the Exception delivery that caused it.
  bool saw_delayed_ack = false;
  for (const FlightRecord& hop : delayed.hops) {
    if (hop.type == RecType::kSend &&
        hop.code == static_cast<std::uint32_t>(net::MsgKind::kAck)) {
      for (const FlightRecord& prev : delayed.hops) {
        if (prev.id == hop.cause) {
          saw_delayed_ack = hop.time == prev.time + 50;
        }
      }
    }
  }
  EXPECT_TRUE(saw_delayed_ack);
}

TEST(CausalPaths, ChainToWalksBackwards) {
  scenario::FlatScenario s({});
  s.run();
  const std::vector<FlightRecord> records = s.world().recorder().snapshot();
  // Find the resolved record and ask for its chain explicitly.
  std::uint64_t resolved_id = 0;
  for (const FlightRecord& r : records) {
    if (r.type == RecType::kResolved) resolved_id = r.id;
  }
  ASSERT_NE(resolved_id, 0u);
  bool truncated = true;
  const std::vector<FlightRecord> chain =
      obs::chain_to(records, resolved_id, &truncated);
  ASSERT_FALSE(chain.empty());
  EXPECT_FALSE(truncated);
  EXPECT_EQ(chain.back().id, resolved_id);
  EXPECT_EQ(chain.front().cause, 0u);  // rooted at a spontaneous record
  // Unknown ids yield an empty chain.
  EXPECT_TRUE(obs::chain_to(records, 999999, nullptr).empty());
}

// ---------------------------------------------------------------------------
// Zero drift: the recorder must never change behaviour
// ---------------------------------------------------------------------------

TEST(FlightRecorder, ZeroDriftRecorderOnVsOff) {
  auto run_world = [](bool recorder_on) {
    scenario::FlatOptions o;
    o.participants = 8;
    o.raisers = 2;
    o.nested = 1;
    o.world.link = net::LinkParams::lan();
    o.world.flight_recorder = recorder_on;
    scenario::FlatScenario s(o);
    s.run();
    return std::pair{scenario::world_checksum(s.world(), 0),
                     s.world().metrics().snapshot().to_string()};
  };
  const auto [on_checksum, on_counters] = run_world(true);
  const auto [off_checksum, off_counters] = run_world(false);
  EXPECT_EQ(on_checksum, off_checksum);
  EXPECT_EQ(on_counters, off_counters);
}

TEST(FlightRecorder, ResolveLatencyHistogramRecordedAtRaisers) {
  scenario::FlatOptions o;
  o.participants = 5;
  o.raisers = 2;
  scenario::FlatScenario s(o);
  s.run();
  const obs::MetricsSnapshot snap = s.world().metrics().snapshot();
  const auto it = snap.histograms.find("resolve.latency");
  ASSERT_NE(it, snap.histograms.end());
  EXPECT_EQ(it->second.count, 2);  // one sample per raiser
  EXPECT_GT(it->second.min, 0);
  EXPECT_GE(it->second.quantile_bound(0.99), it->second.min);
}

// ---------------------------------------------------------------------------
// World dump round-trip and the caa-inspect golden
// ---------------------------------------------------------------------------

TEST(FlightRecorder, WorldDumpFileRoundTrip) {
  scenario::FlatScenario s({});
  s.run();
  const std::string path =
      testing::TempDir() + "flight_recorder_world_dump.caafr";
  ASSERT_TRUE(s.world().write_recorder_dump(path, /*world_index=*/9));
  const Result<FlightDump> dump = FlightRecorder::read_dump(path);
  ASSERT_TRUE(dump.is_ok()) << dump.status();
  EXPECT_EQ(dump.value().world_index, 9u);
  EXPECT_EQ(dump.value().seed, 42u);  // default WorldConfig seed
  EXPECT_EQ(dump.value().records.size(), s.world().recorder().size());
  std::remove(path.c_str());
}

/// The golden pins (a) the binary encoding byte-for-byte and (b) the
/// caa-inspect rendering of §4.3 Example 1. Regenerate both with
/// CAA_UPDATE_GOLDEN=1.
TEST(FlightRecorder, GoldenInspectExample1) {
  scenario::Example1Scenario s;
  s.run();
  const net::Bytes bytes = s.world().recorder().encode(/*seed=*/42, 0);
  const Result<FlightDump> decoded = FlightRecorder::decode(bytes);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status();
  const std::string report = obs::inspect_report(decoded.value(), {});

  const std::string bin_path =
      std::string(CAA_TEST_DATA_DIR) + "/golden/example1_recorder.caafr";
  const std::string txt_path =
      std::string(CAA_TEST_DATA_DIR) + "/golden/example1_inspect.txt";
  if (std::getenv("CAA_UPDATE_GOLDEN") != nullptr) {
    std::ofstream bin(bin_path, std::ios::binary);
    ASSERT_TRUE(bin.good()) << "cannot write " << bin_path;
    bin.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    std::ofstream txt(txt_path, std::ios::binary);
    ASSERT_TRUE(txt.good()) << "cannot write " << txt_path;
    txt << report;
    GTEST_SKIP() << "goldens rewritten: " << bin_path;
  }

  std::ifstream bin(bin_path, std::ios::binary);
  ASSERT_TRUE(bin.good()) << "missing golden " << bin_path
                          << " (run with CAA_UPDATE_GOLDEN=1)";
  std::ostringstream bin_data;
  bin_data << bin.rdbuf();
  const std::string& golden_bytes = bin_data.str();
  ASSERT_EQ(golden_bytes.size(), bytes.size());
  EXPECT_EQ(0, std::memcmp(golden_bytes.data(), bytes.data(), bytes.size()))
      << "recorder encoding drifted from the committed golden";

  std::ifstream txt(txt_path, std::ios::binary);
  ASSERT_TRUE(txt.good()) << "missing golden " << txt_path;
  std::ostringstream txt_data;
  txt_data << txt.rdbuf();
  EXPECT_EQ(report, txt_data.str())
      << "caa-inspect rendering drifted from the committed golden";
}

}  // namespace
}  // namespace caa
