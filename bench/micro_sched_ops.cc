// Ablation A3 (google-benchmark): raw run-queue operation costs of the three
// schedulers versus runnable-queue depth.
//
// Two complementary measurements per operation:
//  * wall-clock time of this library's implementation (benchmark's metric) —
//    the host-side algorithmic complexity;
//  * simulated cycles charged by the cost model (exported as a counter) —
//    the quantity the paper's Figure 5 reports.
//
// The stock scheduler's Schedule() is O(queue depth); ELSC's is bounded by
// its search limit; the heap's is O(log n). BM_EventQueueChurn and
// BM_EventQueueMachineMix measure the discrete-event engine's own hot path
// underneath all of them.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/base/arena.h"
#include "src/base/bitmap.h"
#include "src/base/rng.h"
#include "src/base/time_units.h"
#include "src/kernel/task.h"
#include "src/sched/cost_model.h"
#include "src/sched/factory.h"
#include "src/sched/goodness.h"
#include "src/sim/event_queue.h"
#include "tests/sched_test_util.h"

namespace elsc {
namespace {

// Builds a scheduler with `depth` runnable SCHED_OTHER tasks of varied
// static goodness. After each queued task, `spread` unrelated blocked tasks
// are allocated, so queued tasks sit apart in memory as they do in a
// Machine's arena; with no spread TaskFactory hands out back-to-back
// allocations that the hardware prefetcher streams through.
struct Population {
  Population(SchedulerKind kind, int depth, int spread = 0) {
    SchedulerConfig config{2, true};
    scheduler = MakeScheduler(kind, CostModel::PentiumII(), factory.task_list(), config);
    Rng rng(42);
    tasks.reserve(static_cast<size_t>(depth));
    for (int i = 0; i < depth; ++i) {
      const long priority = static_cast<long>(1 + rng.NextBelow(40));
      const long counter = static_cast<long>(1 + rng.NextBelow(static_cast<uint64_t>(2 * priority)));
      Task* t = factory.NewTask(counter, priority);
      t->processor = static_cast<int>(rng.NextBelow(2));
      scheduler->AddToRunQueue(t);
      tasks.push_back(t);
      for (int k = 0; k < spread; ++k) {
        factory.NewTask()->state = TaskState::kInterruptible;
      }
    }
  }

  TaskFactory factory;
  std::unique_ptr<Scheduler> scheduler;
  std::vector<Task*> tasks;
};

// Re-queues each pick so the queue depth stays constant. `prev`, when set,
// is a blocked task off the queue whose mm decides the same-mm bonus.
void RunSchedule(benchmark::State& state, Population& pop, Task* prev = nullptr) {
  uint64_t sim_cycles = 0;
  uint64_t calls = 0;
  for (auto _ : state) {
    CostMeter meter(pop.scheduler->cost_model());
    Task* next = pop.scheduler->Schedule(0, prev, meter);
    benchmark::DoNotOptimize(next);
    sim_cycles += meter.cycles();
    ++calls;
    if (next != nullptr) {
      // Put the pick back so the queue depth stays constant.
      state.PauseTiming();
      pop.scheduler->DelFromRunQueue(next);
      next->run_list.next = nullptr;
      next->run_list.prev = nullptr;
      pop.scheduler->AddToRunQueue(next);
      state.ResumeTiming();
    }
  }
  state.counters["sim_cycles/op"] =
      benchmark::Counter(static_cast<double>(sim_cycles) / static_cast<double>(calls));
}

void BM_Schedule(benchmark::State& state, SchedulerKind kind) {
  Population pop(kind, static_cast<int>(state.range(0)));
  RunSchedule(state, pop);
}

// Seven unrelated tasks per queued one: at depth 2048 the queued tasks span
// ~6 MB, so a scan that loads every task_struct pays its cache misses.
void BM_ScheduleSpread(benchmark::State& state, SchedulerKind kind) {
  Population pop(kind, static_cast<int>(state.range(0)), 7);
  RunSchedule(state, pop);
}

// VolanoMark's pattern: every queued task has the same counter and priority
// and shares one mm with the previous task, so the same-mm bonus applies to
// all and half of them (those that last ran on the deciding CPU) tie at the
// greatest goodness. The pick is decided by list order among those ties.
void BM_ScheduleTies(benchmark::State& state, SchedulerKind kind) {
  Population pop(kind, static_cast<int>(state.range(0)));
  for (size_t i = 0; i < pop.tasks.size(); ++i) {
    Task* t = pop.tasks[i];
    pop.scheduler->DelFromRunQueue(t);
    t->run_list.next = nullptr;
    t->run_list.prev = nullptr;
    t->counter = kDefaultPriority;
    t->priority = kDefaultPriority;
    t->processor = static_cast<int>(i % 2);
    pop.scheduler->AddToRunQueue(t);
  }
  Task* prev = pop.factory.NewTask();  // Same mm as every queued task.
  prev->state = TaskState::kInterruptible;
  RunSchedule(state, pop, prev);
}

void BM_AddDel(benchmark::State& state, SchedulerKind kind) {
  const int depth = static_cast<int>(state.range(0));
  Population pop(kind, depth);
  Task* extra = pop.factory.NewTask(20, 20);
  for (auto _ : state) {
    pop.scheduler->AddToRunQueue(extra);
    pop.scheduler->DelFromRunQueue(extra);
    extra->run_list.next = nullptr;
    extra->run_list.prev = nullptr;
  }
}

// ---------------------------------------------------------------------------
// Table search: "find the highest populated list" — the query at the heart of
// the ELSC table scan — implemented two ways. The linear scan is what the
// run queue did before the occupancy bitmap; the bitmap answers with a
// count-leading-zeros. Sparse occupancy (few populated lists near the bottom
// of a wide table) is the bitmap's best case and the linear scan's worst.
// ---------------------------------------------------------------------------

struct TableOccupancy {
  TableOccupancy(int lists, int populated) : occupied(static_cast<size_t>(lists), false), bitmap(lists) {
    Rng rng(7);
    for (int i = 0; i < populated; ++i) {
      // Bias toward low indices, like a table where most tasks have modest
      // static goodness: the search from the top walks many empty lists.
      const int idx = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(lists / 2)));
      occupied[static_cast<size_t>(idx)] = true;
      bitmap.Set(idx);
    }
  }
  std::vector<bool> occupied;
  OccupancyBitmap bitmap;
};

void BM_TableSearchLinear(benchmark::State& state) {
  const int lists = static_cast<int>(state.range(0));
  TableOccupancy table(lists, /*populated=*/4);
  for (auto _ : state) {
    int found = -1;
    for (int i = lists - 1; i >= 0; --i) {
      if (table.occupied[static_cast<size_t>(i)]) {
        found = i;
        break;
      }
    }
    benchmark::DoNotOptimize(found);
  }
}

void BM_TableSearchBitmap(benchmark::State& state) {
  const int lists = static_cast<int>(state.range(0));
  TableOccupancy table(lists, /*populated=*/4);
  for (auto _ : state) {
    int found = table.bitmap.Highest();
    benchmark::DoNotOptimize(found);
  }
}

// ---------------------------------------------------------------------------
// The O(1) pick primitive against the scans it replaces. Three ways to answer
// "which runnable task runs next?" at queue depth N:
//  * goodness scan — the stock O(n) walk, one Goodness() per runnable task;
//  * ELSC table search — find the highest populated list (BM_TableSearch*);
//  * O(1) pick — find-first-set on a 140-entry priority bitmap, plus the
//    constant-time active/expired array swap when the epoch turns over.
// The O(1) loop below runs the full steady-state cycle (pick → expire the
// level into the other array → swap when the active side drains), so its
// flat line versus depth includes the swap, not just the ffs.
// ---------------------------------------------------------------------------

void BM_GoodnessScanPick(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  TaskFactory factory;
  Rng rng(42);
  std::vector<Task*> tasks;
  tasks.reserve(static_cast<size_t>(depth));
  for (int i = 0; i < depth; ++i) {
    const long priority = static_cast<long>(1 + rng.NextBelow(40));
    Task* t = factory.NewTask(static_cast<long>(1 + rng.NextBelow(2 * priority)), priority);
    t->processor = static_cast<int>(rng.NextBelow(2));
    tasks.push_back(t);
  }
  const MmStruct* mm = tasks.front()->mm;
  for (auto _ : state) {
    long best = kUnschedulableWeight;
    Task* pick = nullptr;
    for (Task* t : tasks) {
      const long g = Goodness(*t, 0, mm, /*smp=*/true);
      if (g > best) {
        best = g;
        pick = t;
      }
    }
    benchmark::DoNotOptimize(pick);
  }
}

void BM_O1BitmapPick(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  constexpr int kLevels = 140;
  // Per-level task counts in two arrays, exactly the O(1) run queue's shape:
  // depth tasks spread over the 40 SCHED_OTHER levels of the active array.
  OccupancyBitmap bitmaps[2] = {OccupancyBitmap(kLevels), OccupancyBitmap(kLevels)};
  int counts[2][kLevels] = {};
  int active = 0;
  Rng rng(42);
  for (int i = 0; i < depth; ++i) {
    const int prio = static_cast<int>(100 + rng.NextBelow(40));
    ++counts[active][prio];
    bitmaps[active].Set(prio);
  }
  for (auto _ : state) {
    int prio = bitmaps[active].Lowest();
    if (prio < 0) {
      active ^= 1;  // Epoch turnover: the arrays swap in O(1).
      prio = bitmaps[active].Lowest();
    }
    benchmark::DoNotOptimize(prio);
    // Expire the picked task into the other array to keep the cycle going.
    if (--counts[active][prio] == 0) {
      bitmaps[active].Clear(prio);
    }
    const int other = active ^ 1;
    if (counts[other][prio]++ == 0) {
      bitmaps[other].Set(prio);
    }
  }
}

// ---------------------------------------------------------------------------
// Task allocation: the slab arena (what the Machine uses) versus a fresh heap
// allocation per task (what it used before). The churn pattern mirrors a
// fork/exit-heavy workload: allocate a batch, release it, repeat — the arena
// serves every post-warmup allocation from its freelist.
// ---------------------------------------------------------------------------

constexpr int kAllocBatch = 64;

void BM_TaskAllocHeap(benchmark::State& state) {
  std::vector<std::unique_ptr<Task>> batch;
  batch.reserve(kAllocBatch);
  for (auto _ : state) {
    for (int i = 0; i < kAllocBatch; ++i) {
      batch.push_back(std::make_unique<Task>());
      benchmark::DoNotOptimize(batch.back().get());
    }
    batch.clear();
  }
  state.SetItemsProcessed(state.iterations() * kAllocBatch);
}

void BM_TaskAllocArena(benchmark::State& state) {
  SlabArena<Task> arena;
  std::vector<Task*> batch;
  batch.reserve(kAllocBatch);
  for (auto _ : state) {
    for (int i = 0; i < kAllocBatch; ++i) {
      batch.push_back(arena.Allocate());
      benchmark::DoNotOptimize(batch.back());
    }
    for (Task* t : batch) {
      arena.Release(t);
    }
    batch.clear();
  }
  state.SetItemsProcessed(state.iterations() * kAllocBatch);
}

// ---------------------------------------------------------------------------
// Event-queue churn shaped like the simulator's usage: a rolling window of
// ~1024 pending timers (ticks, segment ends, sleeps) where most events fire
// but a steady fraction is cancelled first (preemptions, early wakes). Each
// iteration tops the window up, makes one cancel attempt — misses on
// already-fired ids are exactly the Cancel() hot path — and fires one event.
// Items are queue operations (scheduled + fired + cancelled).
// ---------------------------------------------------------------------------

void BM_EventQueueChurn(benchmark::State& state) {
  EventQueue queue;
  Rng rng(42);
  std::vector<EventId> pending;
  pending.reserve(4096);
  uint64_t fired = 0;
  volatile uint64_t sink = 0;  // Keeps callbacks from folding away.
  Cycles now = 0;
  uint64_t scheduled = 0;
  for (auto _ : state) {
    while (queue.Size() < 1024) {
      const Cycles when = now + 1 + rng.NextBelow(400000);
      // Capture shaped like the machine's dispatch events ([this, cpu_id,
      // next, pick_cost] in machine.cc): ~32 bytes of state.
      const uint64_t cpu_id = scheduled++ & 3;
      const uint64_t pick_cost = when & 0xffff;
      pending.push_back(queue.Schedule(when, [&fired, &sink, cpu_id, pick_cost] {
        ++fired;
        sink = fired + cpu_id + pick_cost;
      }));
    }
    const size_t victim = rng.NextBelow(pending.size());
    bool cancelled = queue.Cancel(pending[victim]);
    benchmark::DoNotOptimize(cancelled);
    pending[victim] = pending.back();
    pending.pop_back();
    EventQueue::Fired event = queue.PopNext();
    now = event.when;
    event.fn();
    if (pending.size() > 4096) {
      pending.clear();  // Stale ids; Cancel() on them is a no-op anyway.
    }
  }
  const EventQueueStats& stats = queue.stats();
  state.SetItemsProcessed(static_cast<int64_t>(stats.scheduled + stats.fired + stats.cancelled));
  state.counters["callback_heap_allocs"] =
      benchmark::Counter(static_cast<double>(stats.callback_heap_allocs));
}

// ---------------------------------------------------------------------------
// Event-queue mix shaped from perfbench's Machine workloads: a shallow
// (Arg 5: volano_reg_4p, federation_elsc) or deep (Arg 125: webserver_o1_4p)
// queue of pending events, where nearly every event fires and about one in a
// hundred is cancelled first (a preempted segment, as in
// Machine::StopSegment). Each fired event schedules its successor with a
// delay clustered like the Machine's: zero-delay and pick-cost handoffs,
// segment ends, sleeps and timer ticks. Items are queue operations
// (scheduled + fired + cancelled).
// ---------------------------------------------------------------------------

void BM_EventQueueMachineMix(benchmark::State& state) {
  const auto depth = static_cast<size_t>(state.range(0));
  EventQueue queue;
  Rng rng(42);
  uint64_t fired = 0;
  volatile uint64_t sink = 0;  // Keeps callbacks from folding away.
  Cycles now = 0;
  auto next_delay = [&rng]() -> Cycles {
    const uint64_t kind = rng.NextBelow(100);
    if (kind < 30) {
      return rng.NextBelow(2000);  // Handoff or schedule() pick cost.
    }
    if (kind < 80) {
      return 20000 + rng.NextBelow(400000);  // Segment end.
    }
    if (kind < 95) {
      return MsToCycles(1 + rng.NextBelow(20));  // Sleep.
    }
    return kTickCycles;
  };
  auto schedule = [&](Cycles when) {
    // Capture shaped like the Machine's segment-end event: ~32 bytes.
    const uint64_t cpu_id = fired & 3;
    return queue.Schedule(when, [&fired, &sink, cpu_id, when] {
      ++fired;
      sink = fired + cpu_id + when;
    });
  };
  EventId last = 0;
  for (size_t i = 0; i < depth; ++i) {
    last = schedule(next_delay());
  }
  for (auto _ : state) {
    if (rng.NextBelow(100) == 0 && queue.Cancel(last)) {
      last = schedule(now + next_delay());  // The preempted task's next segment.
    }
    EventQueue::Fired event = queue.PopNext();
    now = event.when;
    event.fn();
    last = schedule(now + next_delay());
  }
  const EventQueueStats& stats = queue.stats();
  state.SetItemsProcessed(static_cast<int64_t>(stats.scheduled + stats.fired + stats.cancelled));
  state.counters["cancels_per_event"] = benchmark::Counter(
      static_cast<double>(stats.cancelled) / static_cast<double>(std::max<uint64_t>(1, stats.fired)));
}

BENCHMARK(BM_TableSearchLinear)->RangeMultiplier(2)->Range(16, 256);
BENCHMARK(BM_TableSearchBitmap)->RangeMultiplier(2)->Range(16, 256);
BENCHMARK(BM_TaskAllocHeap);
BENCHMARK(BM_TaskAllocArena);
BENCHMARK(BM_EventQueueChurn);
BENCHMARK(BM_EventQueueMachineMix)->Arg(5)->Arg(125);

BENCHMARK_CAPTURE(BM_Schedule, linux, SchedulerKind::kLinux)->RangeMultiplier(4)->Range(8, 2048);
BENCHMARK_CAPTURE(BM_Schedule, elsc, SchedulerKind::kElsc)->RangeMultiplier(4)->Range(8, 2048);
BENCHMARK_CAPTURE(BM_Schedule, heap, SchedulerKind::kHeap)->RangeMultiplier(4)->Range(8, 2048);
BENCHMARK_CAPTURE(BM_Schedule, o1, SchedulerKind::kO1)->RangeMultiplier(4)->Range(8, 2048);
BENCHMARK_CAPTURE(BM_ScheduleSpread, linux, SchedulerKind::kLinux)->Arg(8)->Arg(128)->Arg(2048);
BENCHMARK_CAPTURE(BM_ScheduleTies, linux, SchedulerKind::kLinux)->Arg(8)->Arg(128)->Arg(2048);
BENCHMARK_CAPTURE(BM_AddDel, linux, SchedulerKind::kLinux)->RangeMultiplier(4)->Range(8, 2048);
BENCHMARK_CAPTURE(BM_AddDel, elsc, SchedulerKind::kElsc)->RangeMultiplier(4)->Range(8, 2048);
BENCHMARK_CAPTURE(BM_AddDel, heap, SchedulerKind::kHeap)->RangeMultiplier(4)->Range(8, 2048);
BENCHMARK_CAPTURE(BM_AddDel, o1, SchedulerKind::kO1)->RangeMultiplier(4)->Range(8, 2048);

BENCHMARK(BM_GoodnessScanPick)->RangeMultiplier(4)->Range(8, 2048);
BENCHMARK(BM_O1BitmapPick)->RangeMultiplier(4)->Range(8, 2048);

}  // namespace
}  // namespace elsc

BENCHMARK_MAIN();
