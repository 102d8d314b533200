// Tests for the discrete-event queue: ordering, insertion-order stability at
// equal timestamps, cancellation, and a differential replay against a
// reference model.

#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/rng.h"

namespace elsc {
namespace {

TEST(EventQueueTest, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Size(), 0u);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.Schedule(30, [&] { fired.push_back(3); });
  q.Schedule(10, [&] { fired.push_back(1); });
  q.Schedule(20, [&] { fired.push_back(2); });
  while (!q.Empty()) {
    q.PopNext().fn();
  }
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimestampsFireInInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 20; ++i) {
    q.Schedule(100, [&fired, i] { fired.push_back(i); });
  }
  while (!q.Empty()) {
    q.PopNext().fn();
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(fired[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueueTest, NextTimeReportsEarliest) {
  EventQueue q;
  q.Schedule(50, [] {});
  q.Schedule(40, [] {});
  EXPECT_EQ(q.NextTime(), 40u);
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  const EventId keep = q.Schedule(10, [&] { ++fired; });
  const EventId drop = q.Schedule(20, [&] { fired += 100; });
  EXPECT_TRUE(q.Cancel(drop));
  while (!q.Empty()) {
    q.PopNext().fn();
  }
  EXPECT_EQ(fired, 1);
  (void)keep;
}

TEST(EventQueueTest, CancelSameIdTwiceFails) {
  EventQueue q;
  const EventId id = q.Schedule(10, [] {});
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueueTest, CancelInvalidIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(0));
  EXPECT_FALSE(q.Cancel(12345));
}

TEST(EventQueueTest, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.Schedule(1, [] {});
  q.Schedule(2, [] {});
  EXPECT_EQ(q.Size(), 2u);
  q.Cancel(a);
  EXPECT_EQ(q.Size(), 1u);
  q.PopNext();
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueTest, CancelledHeadIsSkipped) {
  EventQueue q;
  std::vector<int> fired;
  const EventId first = q.Schedule(10, [&] { fired.push_back(1); });
  q.Schedule(20, [&] { fired.push_back(2); });
  q.Cancel(first);
  EXPECT_EQ(q.NextTime(), 20u);
  q.PopNext().fn();
  EXPECT_EQ(fired, (std::vector<int>{2}));
}

TEST(EventQueueTest, CancelAfterFireFailsAndKeepsSizeExact) {
  // Regression: cancelling an id whose event already fired must be a no-op.
  // The old tombstone implementation treated any unseen id below the next
  // counter as pending and decremented its live count, corrupting Empty().
  EventQueue q;
  const EventId fired_id = q.Schedule(10, [] {});
  q.Schedule(20, [] {});
  q.PopNext();  // Fires (and retires) fired_id.
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_FALSE(q.Cancel(fired_id));
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_FALSE(q.Empty());
  q.PopNext();
  EXPECT_TRUE(q.Empty());
  EXPECT_FALSE(q.Cancel(fired_id));
  EXPECT_EQ(q.Size(), 0u);
}

TEST(EventQueueTest, ReusedSlotGetsFreshIdentity) {
  // After a slot is recycled, the old event's id must not cancel the new
  // occupant (generation check).
  EventQueue q;
  const EventId old_id = q.Schedule(10, [] {});
  ASSERT_TRUE(q.Cancel(old_id));
  int fired = 0;
  const EventId new_id = q.Schedule(30, [&] { ++fired; });
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(q.Cancel(old_id));  // Stale generation.
  EXPECT_EQ(q.Size(), 1u);
  q.PopNext().fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTest, SameTimestampOrderSurvivesInterleavedCancels) {
  // Insertion order at an equal timestamp must hold even when events
  // scheduled between the survivors are cancelled (their stale entries
  // stay in the heap between the survivors' entries).
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 40; ++i) {
    ids.push_back(q.Schedule(100, [&fired, i] { fired.push_back(i); }));
  }
  for (int i = 0; i < 40; i += 2) {
    EXPECT_TRUE(q.Cancel(ids[static_cast<size_t>(i)]));
  }
  while (!q.Empty()) {
    q.PopNext().fn();
  }
  ASSERT_EQ(fired.size(), 20u);
  for (size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i], static_cast<int>(2 * i + 1));
  }
}

TEST(EventQueueTest, StatsCountSchedulesFiresAndCancels) {
  EventQueue q;
  const EventId a = q.Schedule(1, [] {});
  q.Schedule(2, [] {});
  q.Schedule(3, [] {});
  q.Cancel(a);
  q.PopNext();
  q.PopNext();
  const EventQueueStats& stats = q.stats();
  EXPECT_EQ(stats.scheduled, 3u);
  EXPECT_EQ(stats.fired, 2u);
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.max_heap_depth, 3u);
  EXPECT_EQ(stats.callback_heap_allocs, 0u);  // Small lambdas stay inline.
}

TEST(EventQueueTest, SlotsAreRecycledNotReallocated) {
  // Steady-state schedule/pop churn must not grow the slab: slot_allocs is
  // bounded by the maximum number of simultaneously pending events.
  EventQueue q;
  for (int round = 0; round < 1000; ++round) {
    q.Schedule(static_cast<Cycles>(round), [] {});
    q.Schedule(static_cast<Cycles>(round) + 1, [] {});
    q.PopNext();
    q.PopNext();
  }
  EXPECT_LE(q.stats().slot_allocs, 2u);
  EXPECT_EQ(q.stats().fired, 2000u);
}

TEST(EventQueuePropertyTest, CancellationHeavyChurnKeepsExactOrder) {
  // Heavier mix than the test below: two-thirds of events are cancelled,
  // forcing constant mid-heap removals and slot reuse, while survivors must
  // still fire in exact (time, insertion) order.
  Rng rng(7);
  for (int round = 0; round < 10; ++round) {
    EventQueue q;
    struct Expected {
      Cycles when;
      uint64_t order;
    };
    std::vector<std::pair<Expected, EventId>> live;
    uint64_t order = 0;
    for (int i = 0; i < 2000; ++i) {
      if (live.empty() || rng.NextBool(0.4)) {
        const Cycles when = rng.NextBelow(50);  // Dense times => many ties.
        const EventId id = q.Schedule(when, [] {});
        live.push_back({{when, order++}, id});
      } else {
        const size_t idx = rng.NextBelow(live.size());
        EXPECT_TRUE(q.Cancel(live[idx].second));
        live.erase(live.begin() + static_cast<long>(idx));
        // Double-cancel of the same id must fail.
        if (!live.empty() && rng.NextBool(0.1)) {
          const EventId survivor = live[rng.NextBelow(live.size())].second;
          EXPECT_TRUE(q.Cancel(survivor));
          EXPECT_FALSE(q.Cancel(survivor));
          live.erase(std::find_if(live.begin(), live.end(),
                                  [survivor](const auto& e) { return e.second == survivor; }));
        }
      }
    }
    ASSERT_EQ(q.Size(), live.size());
    std::sort(live.begin(), live.end(), [](const auto& a, const auto& b) {
      return a.first.when != b.first.when ? a.first.when < b.first.when
                                          : a.first.order < b.first.order;
    });
    for (const auto& expected : live) {
      ASSERT_FALSE(q.Empty());
      const auto fired = q.PopNext();
      EXPECT_EQ(fired.when, expected.first.when);
      EXPECT_EQ(fired.id, expected.second);
    }
    EXPECT_TRUE(q.Empty());
  }
}

TEST(EventQueuePropertyTest, RandomScheduleCancelMaintainsOrder) {
  Rng rng(42);
  for (int round = 0; round < 20; ++round) {
    EventQueue q;
    std::vector<std::pair<Cycles, EventId>> live;
    for (int i = 0; i < 500; ++i) {
      if (live.empty() || rng.NextBool(0.7)) {
        const Cycles when = rng.NextBelow(10000);
        const EventId id = q.Schedule(when, [] {});
        live.emplace_back(when, id);
      } else {
        const size_t idx = rng.NextBelow(live.size());
        EXPECT_TRUE(q.Cancel(live[idx].second));
        live.erase(live.begin() + static_cast<long>(idx));
      }
    }
    ASSERT_EQ(q.Size(), live.size());
    Cycles last = 0;
    size_t popped = 0;
    while (!q.Empty()) {
      const auto fired = q.PopNext();
      EXPECT_GE(fired.when, last);
      last = fired.when;
      ++popped;
    }
    EXPECT_EQ(popped, live.size());
  }
}

TEST(EventQueueTest, CancelDestroysTheCallbackAtOnce) {
  // Cancellation is lazy in the heap but not in the slab: the slot, and the
  // state its callback captured, are released by Cancel() itself.
  EventQueue q;
  auto token = std::make_shared<int>(0);
  const EventId id = q.Schedule(10, [token] { ++*token; });
  q.Schedule(20, [] {});
  EXPECT_EQ(token.use_count(), 2);
  ASSERT_TRUE(q.Cancel(id));
  EXPECT_EQ(token.use_count(), 1);
  q.CheckInvariants();
}

TEST(EventQueueTest, StaleEntriesStayBounded) {
  // Cancelling most of a deep queue leaves stale entries behind; the heap
  // is rebuilt once they exceed the bound CheckInvariants() enforces, and
  // the survivors still fire in order.
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(q.Schedule(static_cast<Cycles>(1000 - i), [] {}));
  }
  for (int i = 0; i < 200; ++i) {
    if (i % 10 != 0) {
      ASSERT_TRUE(q.Cancel(ids[static_cast<size_t>(i)]));
      q.CheckInvariants();
    }
  }
  EXPECT_EQ(q.Size(), 20u);
  Cycles last = 0;
  while (!q.Empty()) {
    const EventQueue::Fired fired = q.PopNext();
    EXPECT_GT(fired.when, last);
    last = fired.when;
    q.CheckInvariants();
  }
  EXPECT_EQ(q.stats().slot_allocs, 200u);
  EXPECT_EQ(q.stats().max_heap_depth, 200u);
}

TEST(EventQueueTest, SchedulesPrebuiltCallbacksAndStdFunctions) {
  EventQueue q;
  std::vector<int> fired;
  EventCallback prebuilt = [&fired] { fired.push_back(1); };
  const std::function<void()> copied = [&fired] { fired.push_back(2); };
  q.Schedule(1, std::move(prebuilt));
  q.Schedule(2, copied);  // Copied into the slot; `copied` stays usable.
  while (!q.Empty()) {
    q.PopNext().fn();
  }
  copied();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 2}));
  EXPECT_EQ(q.stats().callback_heap_allocs, 0u);
}

// ---------------------------------------------------------------------------
// Differential replay: random schedule/cancel/pop sequences run against the
// queue and against a reference model, a sorted map keyed by (when, order of
// scheduling). Every observable must agree after every operation: firing
// order, each Cancel() result, Size()/Empty()/NextTime(), and all six
// EventQueueStats fields.
// ---------------------------------------------------------------------------

struct ReplayParams {
  size_t target_live;     // Depth the schedule/pop mix hovers around.
  double cancel_rate;     // Share of removals that cancel instead of fire.
  int steps;
};

class EventQueueDifferentialTest : public ::testing::TestWithParam<ReplayParams> {};

TEST_P(EventQueueDifferentialTest, MatchesSortedReferenceModel) {
  const ReplayParams params = GetParam();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed * 7919 + params.target_live);
    EventQueue q;

    // Reference model.
    using Key = std::pair<Cycles, uint64_t>;  // (when, scheduling order)
    std::map<Key, std::pair<EventId, uint64_t>> ref;  // -> (id, token)
    std::unordered_map<EventId, Key> live_ids;
    std::vector<EventId> dead_ids;  // Fired or cancelled.
    EventQueueStats want;
    uint64_t order = 0;
    Cycles now = 0;

    std::vector<uint64_t> fired_tokens;
    auto schedule = [&] {
      // Delays clustered like the simulator's: zero-delay handoffs, short
      // picks, segment ends and long sleeps, with frequent exact ties.
      Cycles delay = 0;
      switch (rng.NextBelow(4)) {
        case 0:
          delay = 0;
          break;
        case 1:
          delay = rng.NextBelow(8);
          break;
        case 2:
          delay = 100 + rng.NextBelow(1000);
          break;
        default:
          delay = 10000 * (1 + rng.NextBelow(4));
          break;
      }
      const Cycles when = now + delay;
      const uint64_t token = order;
      EventId id = 0;
      if (rng.NextBool(0.05)) {
        // Too big for the inline buffer: counted in callback_heap_allocs.
        std::array<uint64_t, 8> pad{};
        pad[0] = token;
        id = q.Schedule(when, [&fired_tokens, pad] { fired_tokens.push_back(pad[0]); });
        ++want.callback_heap_allocs;
      } else {
        id = q.Schedule(when, [&fired_tokens, token] { fired_tokens.push_back(token); });
      }
      ASSERT_EQ(live_ids.count(id), 0u) << "id reused while live";
      ref.emplace(Key{when, order}, std::make_pair(id, token));
      live_ids.emplace(id, Key{when, order});
      ++order;
      ++want.scheduled;
      want.max_heap_depth = std::max<uint64_t>(want.max_heap_depth, ref.size());
    };
    auto cancel = [&](EventId id) {
      const auto it = live_ids.find(id);
      const bool expected = it != live_ids.end();
      ASSERT_EQ(q.Cancel(id), expected) << "id " << id;
      if (expected) {
        ref.erase(it->second);
        live_ids.erase(it);
        dead_ids.push_back(id);
        ++want.cancelled;
      }
    };

    for (int step = 0; step < params.steps; ++step) {
      const double r = rng.NextDouble();
      if (r < 0.05 && !dead_ids.empty()) {
        cancel(dead_ids[rng.NextBelow(dead_ids.size())]);  // Fired or cancelled.
      } else if (r < 0.06) {
        // Never issued: a random slot and generation (usually out of range
        // or mismatched; the reference decides what Cancel() must return).
        cancel((rng.NextBelow(1u << 20) << 32) | rng.NextBelow(512));
      } else if (r < 0.07 && !dead_ids.empty()) {
        // The next generation of a dead event's slot: issued only if the
        // slot has been reused since, so a free slot must not match it.
        cancel(dead_ids[rng.NextBelow(dead_ids.size())] + (uint64_t{1} << 32));
      } else if (ref.size() < params.target_live ||
                 (r < 0.5 && ref.size() < 3 * params.target_live)) {
        schedule();
      } else if (rng.NextBool(params.cancel_rate)) {
        // Cancel a live event: pick one by walking the ordered reference.
        auto it = ref.begin();
        std::advance(it, static_cast<long>(rng.NextBelow(ref.size())));
        cancel(it->second.first);
      } else {
        ASSERT_FALSE(q.Empty());
        ASSERT_EQ(q.NextTime(), ref.begin()->first.first);
        const auto expected = ref.begin();
        EventQueue::Fired fired = q.PopNext();
        ASSERT_EQ(fired.when, expected->first.first);
        ASSERT_EQ(fired.id, expected->second.first);
        now = fired.when;
        fired.fn();
        ASSERT_FALSE(fired_tokens.empty());
        ASSERT_EQ(fired_tokens.back(), expected->second.second);
        live_ids.erase(expected->second.first);
        dead_ids.push_back(expected->second.first);
        ref.erase(expected);
        ++want.fired;
      }
      ASSERT_EQ(q.Size(), ref.size());
      ASSERT_EQ(q.Empty(), ref.empty());
      q.CheckInvariants();
    }
    // Drain: the rest fires in reference order.
    while (!ref.empty()) {
      const EventQueue::Fired fired = q.PopNext();
      ASSERT_EQ(fired.id, ref.begin()->second.first);
      ref.erase(ref.begin());
      ++want.fired;
      q.CheckInvariants();
    }
    EXPECT_TRUE(q.Empty());

    const EventQueueStats& got = q.stats();
    EXPECT_EQ(got.scheduled, want.scheduled);
    EXPECT_EQ(got.fired, want.fired);
    EXPECT_EQ(got.cancelled, want.cancelled);
    EXPECT_EQ(got.callback_heap_allocs, want.callback_heap_allocs);
    EXPECT_EQ(got.max_heap_depth, want.max_heap_depth);
    // Slots are reused before the slab grows, so the slab's growth count is
    // exactly the peak number of pending events.
    EXPECT_EQ(got.slot_allocs, want.max_heap_depth);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, EventQueueDifferentialTest,
    ::testing::Values(ReplayParams{5, 0.0, 4000}, ReplayParams{5, 0.02, 4000},
                      ReplayParams{5, 0.2, 4000}, ReplayParams{5, 0.6, 4000},
                      ReplayParams{128, 0.0, 3000}, ReplayParams{128, 0.02, 3000},
                      ReplayParams{128, 0.2, 3000}, ReplayParams{128, 0.6, 3000}),
    [](const ::testing::TestParamInfo<ReplayParams>& info) {
      return "live" + std::to_string(info.param.target_live) + "_cancel" +
             std::to_string(static_cast<int>(info.param.cancel_rate * 100));
    });

}  // namespace
}  // namespace elsc
