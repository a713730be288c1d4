// Unit tests for util: strong ids, member ranks, status/result, RNG,
// interning, counters, logging.
#include <gtest/gtest.h>

#include <set>

#include "caa/action_manager.h"
#include "util/counters.h"
#include "util/ids.h"
#include "util/intern.h"
#include "util/log.h"
#include "util/members.h"
#include "util/rng.h"
#include "util/status.h"

namespace caa {
namespace {

TEST(StrongId, DefaultIsInvalid) {
  ObjectId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, ObjectId::invalid());
}

TEST(StrongId, OrderingAndEquality) {
  const ObjectId a(1), b(2), c(1);
  EXPECT_LT(a, b);
  EXPECT_EQ(a, c);
  EXPECT_NE(a, b);
  EXPECT_GT(b, a);
}

TEST(StrongId, DistinctTagsAreDistinctTypes) {
  static_assert(!std::is_same_v<ObjectId, NodeId>);
  static_assert(!std::is_same_v<ActionId, ActionInstanceId>);
}

TEST(StrongId, Hashable) {
  std::set<ObjectId> ids{ObjectId(3), ObjectId(1), ObjectId(2)};
  EXPECT_EQ(ids.size(), 3u);
  std::unordered_map<ObjectId, int> map;
  map[ObjectId(7)] = 42;
  EXPECT_EQ(map.at(ObjectId(7)), 42);
}

TEST(RankIn, InstanceMembersAreSortedRankedAndQueried) {
  action::ActionManager manager;
  ex::ExceptionTree tree;
  tree.declare("e");
  const action::ActionDecl& decl = manager.declare("A", std::move(tree));
  const action::InstanceInfo& info = manager.create_instance(
      decl, {ObjectId(3), ObjectId(1), ObjectId(2)});
  // Members come back sorted (the §4.1 ordering).
  EXPECT_EQ(info.members,
            (std::vector<ObjectId>{ObjectId(1), ObjectId(2), ObjectId(3)}));
  EXPECT_EQ(rank_in(info.members, ObjectId(1)), 0u);
  EXPECT_EQ(rank_in(info.members, ObjectId(3)), 2u);
  EXPECT_TRUE(info.is_member(ObjectId(2)));
  EXPECT_FALSE(info.is_member(ObjectId(9)));
  EXPECT_FALSE(info.is_member(ObjectId(0)));
  EXPECT_FALSE(info.is_member(ObjectId::invalid()));

  // A gapped list ranks by position; ids between or outside its members
  // are not members (subtracting the first id would rank 4 as 2 here).
  const std::vector<ObjectId> gapped{ObjectId(2), ObjectId(5), ObjectId(9)};
  EXPECT_EQ(rank_in(gapped, ObjectId(5)), 1u);
  EXPECT_EQ(rank_in(gapped, ObjectId(9)), 2u);
  EXPECT_FALSE(rank_in(gapped, ObjectId(4)).has_value());
  EXPECT_FALSE(rank_in(gapped, ObjectId(10)).has_value());
  EXPECT_FALSE(rank_in({}, ObjectId(0)).has_value());
}

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
}

TEST(Status, CarriesCodeAndMessage) {
  const Status s = Status::conflict("lock contention");
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kConflict);
  EXPECT_EQ(s.message(), "lock contention");
}

TEST(Result, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().is_ok());
}

TEST(Result, HoldsError) {
  Result<int> r = Status::not_found("nope");
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(Rng, BetweenInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(7);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(InternPool, RoundTrips) {
  InternPool pool;
  const auto a = pool.intern("alpha");
  const auto b = pool.intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.intern("alpha"), a);
  EXPECT_EQ(pool.name_of(a), "alpha");
  EXPECT_EQ(pool.find("beta"), b);
  EXPECT_EQ(pool.find("gamma"), InternPool::kNotFound);
  EXPECT_EQ(pool.size(), 2u);
}

TEST(InternPool, ManyStringsStableLookups) {
  InternPool pool;
  std::vector<std::uint32_t> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.push_back(pool.intern("name_" + std::to_string(i)));
  }
  // Growth must not invalidate earlier keys (deque-backed storage).
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(pool.find("name_" + std::to_string(i)), ids[i]);
  }
}

TEST(Counters, AddGetReset) {
  Counters c;
  const CounterId x = CounterId::of("x");
  c.add(x);
  c.add(x, 4);
  EXPECT_EQ(c.get(x), 5);
  EXPECT_EQ(c.get(CounterId::of("missing")), 0);
  c.reset(x);
  EXPECT_EQ(c.get(x), 0);
}

TEST(Counters, SumPrefix) {
  Counters c;
  c.add(CounterId::of("net.sent.Exception"), 3);
  c.add(CounterId::of("net.sent.ACK"), 2);
  c.add(CounterId::of("net.dropped.ACK"), 9);
  EXPECT_EQ(c.sum_prefix("net.sent."), 5);
  EXPECT_EQ(c.sum_prefix("net."), 14);
  EXPECT_EQ(c.sum_prefix("zzz"), 0);
}

TEST(Counters, InterningIsStableAndNamesRoundTrip) {
  Counters c;
  const CounterId id = CounterId::of("roundtrip.x");
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.name(), "roundtrip.x");
  EXPECT_EQ(CounterId::of("roundtrip.x"), id) << "interning must be stable";

  c.add(id, 3);
  c.add(CounterId::of("roundtrip.x"), 4);  // re-intern lands on the same slot
  EXPECT_EQ(c.get(id), 7);

  c.reset(id);
  EXPECT_EQ(c.get(id), 0);
}

TEST(Counters, InternedIdsAreIndependentAcrossInstances) {
  const CounterId id = CounterId::of("roundtrip.independent");
  Counters a;
  Counters b;
  a.add(id, 5);
  EXPECT_EQ(a.get(id), 5);
  EXPECT_EQ(b.get(id), 0) << "values are per-Counters, names per-process";
}

TEST(Counters, SumPrefixWorksOverInternedNames) {
  Counters c;
  c.add(CounterId::of("intp.sent.A"), 3);
  c.add(CounterId::of("intp.sent.B"), 4);
  c.add(CounterId::of("intp.dropped.A"), 9);
  EXPECT_EQ(c.sum_prefix("intp.sent."), 7);
  EXPECT_EQ(c.sum_prefix("intp."), 16);
  EXPECT_EQ(c.get(CounterId::of("intp.sent.A")), 3);
  EXPECT_EQ(c.get(CounterId::of("intp.dropped.A")), 9);
}

TEST(Counters, ToStringIsSortedAndSkipsZeroes) {
  Counters c;
  c.add(CounterId::of("zz.last"), 1);
  c.add(CounterId::of("aa.first"), 2);
  c.add(CounterId::of("mm.zeroed"), 5);
  c.reset(CounterId::of("mm.zeroed"));
  EXPECT_EQ(c.to_string(), "aa.first=2\nzz.last=1\n");
  const auto all = c.all();
  EXPECT_EQ(all.size(), 2u);
  EXPECT_EQ(all.at("aa.first"), 2);
}

TEST(Logger, RespectsLevelAndSink) {
  Logger logger;
  std::vector<std::string> lines;
  logger.set_sink([&](LogLevel, std::string_view line) {
    lines.emplace_back(line);
  });
  logger.set_level(LogLevel::kInfo);
  CAA_LOG(logger, LogLevel::kDebug, "test") << "hidden";
  CAA_LOG(logger, LogLevel::kInfo, "test") << "shown " << 42;
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("shown 42"), std::string::npos);
  EXPECT_NE(lines[0].find("[test]"), std::string::npos);
}

TEST(Logger, TimeSourcePrefix) {
  Logger logger;
  std::string captured;
  logger.set_sink(
      [&](LogLevel, std::string_view line) { captured = std::string(line); });
  logger.set_level(LogLevel::kTrace);
  logger.set_time_source([] { return std::int64_t{777}; });
  logger.log(LogLevel::kWarn, "mod", "msg");
  EXPECT_NE(captured.find("@t=777"), std::string::npos);
}

}  // namespace
}  // namespace caa
