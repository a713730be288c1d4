// Stress and determinism tests for the arena event queue.
//
// The queue is the engine under every reproduced claim in the repo, so the
// arena redesign gets adversarial coverage: randomized schedule/cancel/pop
// interleavings checked against a reference model, slot-leak accounting
// and small-buffer-callable semantics. That protocol behaviour stays
// byte-identical is pinned by the §4.3 Example 1 flight-recorder golden
// (FlightRecorder.GoldenInspectExample1).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "sim/event_queue.h"
#include "util/rng.h"

namespace caa::sim {
namespace {

TEST(EventFn, InlineSmallCapturesHeapLargeOnes) {
  int hits = 0;
  EventFn small = [&hits] { ++hits; };
  EXPECT_TRUE(small.is_inline());

  struct Big {
    std::byte blob[2 * EventFn::kInlineSize];
  };
  Big big{};
  EventFn large = [&hits, big] {
    (void)big;
    ++hits;
  };
  EXPECT_FALSE(large.is_inline());

  small();
  large();
  EXPECT_EQ(hits, 2);
}

TEST(EventFn, MoveTransfersTheCallable) {
  int fired = 0;
  EventFn a = [&fired] { ++fired; };
  EventFn b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(fired, 1);
}

TEST(EventFn, SupportsMoveOnlyCaptures) {
  auto value = std::make_unique<int>(7);
  int seen = 0;
  EventFn fn = [&seen, v = std::move(value)] { seen = *v; };
  EventFn moved = std::move(fn);
  moved();
  EXPECT_EQ(seen, 7);
}

TEST(EventFn, DestroysCaptureWithoutFiring) {
  auto tracker = std::make_shared<int>(0);
  {
    EventFn fn = [tracker] { (void)tracker; };
    EXPECT_EQ(tracker.use_count(), 2);
  }
  EXPECT_EQ(tracker.use_count(), 1);
}

/// Randomized interleavings against a reference model: a sorted set of
/// (time, seq) plus id bookkeeping. Verifies pop order (time, then
/// scheduling order), cancel semantics, size accounting, and that the
/// arena never leaks slots.
TEST(EventQueueStress, RandomScheduleCancelPopMatchesReferenceModel) {
  for (const std::uint64_t seed : {1ULL, 42ULL, 0xDEADBEEFULL}) {
    Rng rng(seed);
    EventQueue q;

    struct ModelEvent {
      Time time;
      std::uint64_t order;  // scheduling order among all events
      EventId id;
    };
    // Reference: live events sorted by (time, order).
    std::set<std::pair<Time, std::uint64_t>> model;
    std::map<std::uint64_t, ModelEvent> by_order;  // live only
    std::vector<EventId> dead_ids;
    std::uint64_t next_order = 0;
    std::uint64_t fired_payload = 0;  // written by event bodies
    std::size_t max_live = 0;

    for (int step = 0; step < 20000; ++step) {
      const std::uint64_t action = rng.below(100);
      if (action < 55) {  // schedule
        const Time at = static_cast<Time>(rng.below(500));
        const std::uint64_t order = next_order++;
        const EventId id = q.schedule(at, [order, &fired_payload] {
          fired_payload = fired_payload * 31 + order;
        });
        EXPECT_TRUE(id.valid());
        model.emplace(at, order);
        by_order.emplace(order, ModelEvent{at, order, id});
      } else if (action < 75) {  // cancel a random live event
        if (by_order.empty()) continue;
        auto it = by_order.begin();
        std::advance(it, static_cast<long>(rng.below(by_order.size())));
        EXPECT_TRUE(q.cancel(it->second.id));
        EXPECT_FALSE(q.cancel(it->second.id)) << "double cancel must fail";
        model.erase({it->second.time, it->second.order});
        dead_ids.push_back(it->second.id);
        by_order.erase(it);
      } else if (action < 95) {  // pop
        if (model.empty()) {
          EXPECT_TRUE(q.empty());
          continue;
        }
        const auto expected = *model.begin();
        auto fired = q.pop();
        EXPECT_EQ(fired.time, expected.first);
        const std::uint64_t before = fired_payload;
        fired.fn();
        EXPECT_EQ(fired_payload, before * 31 + expected.second)
            << "pop order diverged from (time, scheduling order)";
        model.erase(model.begin());
        dead_ids.push_back(fired.id);
        by_order.erase(expected.second);
      } else {  // cancel of an already-dead id must fail
        if (dead_ids.empty()) continue;
        const EventId id = dead_ids[rng.below(dead_ids.size())];
        EXPECT_FALSE(q.cancel(id));
      }
      EXPECT_EQ(q.size(), model.size());
      EXPECT_EQ(q.empty(), model.empty());
      if (!model.empty()) {
        EXPECT_EQ(q.next_time(), model.begin()->first);
      }
      max_live = std::max(max_live, model.size());
    }

    // Drain; order must still match the model.
    while (!model.empty()) {
      const auto expected = *model.begin();
      auto fired = q.pop();
      EXPECT_EQ(fired.time, expected.first);
      model.erase(model.begin());
    }
    EXPECT_TRUE(q.empty());

    // No slot leaks: the arena never outgrows the concurrency high-water
    // mark, regardless of how many events passed through in total.
    EXPECT_LE(q.arena_slots(), max_live);
  }
}

TEST(EventQueueStress, ArenaStaysFlatUnderChurn) {
  EventQueue q;
  int fired = 0;
  // 16 pending events at all times, 50k schedule/pop cycles.
  for (int i = 0; i < 16; ++i) q.schedule(i, [&fired] { ++fired; });
  for (int i = 0; i < 50000; ++i) {
    auto f = q.pop();
    f.fn();
    q.schedule(f.time + 16, [&fired] { ++fired; });
  }
  EXPECT_EQ(fired, 50000);
  EXPECT_EQ(q.size(), 16u);
  EXPECT_LE(q.arena_slots(), 16u) << "slot arena leaked under churn";
}

TEST(EventQueueStress, CancelledEventsFreeTheirSlotsImmediately) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int round = 0; round < 1000; ++round) {
    ids.clear();
    for (int i = 0; i < 32; ++i) {
      ids.push_back(q.schedule(round * 100 + i, [] {}));
    }
    for (const EventId id : ids) EXPECT_TRUE(q.cancel(id));
    EXPECT_TRUE(q.empty());
  }
  EXPECT_LE(q.arena_slots(), 32u) << "cancellation accumulated tombstones";
}

TEST(EventQueueStress, StaleIdsNeverCancelRecycledSlots) {
  EventQueue q;
  const EventId first = q.schedule(10, [] {});
  EXPECT_TRUE(q.cancel(first));
  // The slot is recycled for a new event; the stale id must not kill it.
  const EventId second = q.schedule(20, [] {});
  EXPECT_FALSE(q.cancel(first));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(second));
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace caa::sim
