// Tests for the stock Linux 2.3.99-pre4 scheduler port: run-queue
// manipulation semantics, the goodness search, tie-breaking, yield handling,
// the recalculation loop, SMP has_cpu filtering (paper §3), and a
// differential test of the scan mirror against the kernel's list walk.

#include "src/sched/linux_scheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "src/base/assert.h"
#include "src/base/rng.h"
#include "src/base/string_util.h"
#include "src/kernel/policy.h"
#include "src/sched/goodness.h"
#include "tests/sched_test_util.h"

namespace elsc {

// Reaches into the scan mirror, so tests can break it and check that
// CheckInvariants() notices.
class LinuxSchedulerMirrorPeer {
 public:
  static size_t Capacity(const LinuxScheduler& s) {
    return s.groups_.size() * LinuxScheduler::kLanes;
  }
  static int32_t& Weight(LinuxScheduler& s, size_t slot) {
    return s.groups_[slot / LinuxScheduler::kLanes].weight[slot % LinuxScheduler::kLanes];
  }
  static int32_t& Processor(LinuxScheduler& s, size_t slot) {
    return s.groups_[slot / LinuxScheduler::kLanes].processor[slot % LinuxScheduler::kLanes];
  }
  static std::vector<Task*>& Flagged(LinuxScheduler& s) { return s.flagged_; }
};

namespace {

class LinuxSchedulerTest : public ::testing::Test {
 protected:
  LinuxSchedulerTest() { Rebuild(1, false); }

  void Rebuild(int cpus, bool smp) {
    sched_ = std::make_unique<LinuxScheduler>(CostModel::PentiumII(), factory_.task_list(),
                                              SchedulerConfig{cpus, smp});
  }

  Task* Schedule(int cpu, Task* prev) {
    CostMeter meter(sched_->cost_model());
    Task* next = sched_->Schedule(cpu, prev, meter);
    sched_->CheckInvariants();
    return next;
  }

  TaskFactory factory_;
  std::unique_ptr<LinuxScheduler> sched_;
};

TEST_F(LinuxSchedulerTest, AddPutsTaskAtFront) {
  Task* a = factory_.NewTask();
  Task* b = factory_.NewTask();
  sched_->AddToRunQueue(a);
  sched_->AddToRunQueue(b);
  const auto snapshot = sched_->QueueSnapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  // Newly woken tasks go to the front (paper §3.2).
  EXPECT_EQ(snapshot[0], b);
  EXPECT_EQ(snapshot[1], a);
  EXPECT_EQ(sched_->nr_running(), 2u);
}

TEST_F(LinuxSchedulerTest, DelRemovesAndMarksOffQueue) {
  Task* a = factory_.NewTask();
  sched_->AddToRunQueue(a);
  EXPECT_TRUE(a->OnRunQueue());
  sched_->DelFromRunQueue(a);
  EXPECT_FALSE(a->OnRunQueue());
  EXPECT_EQ(sched_->nr_running(), 0u);
}

TEST_F(LinuxSchedulerTest, MoveFirstAndLast) {
  Task* a = factory_.NewTask();
  Task* b = factory_.NewTask();
  Task* c = factory_.NewTask();
  sched_->AddToRunQueue(a);
  sched_->AddToRunQueue(b);
  sched_->AddToRunQueue(c);  // [c b a]
  sched_->MoveLastRunQueue(c);
  sched_->MoveFirstRunQueue(a);
  const auto snapshot = sched_->QueueSnapshot();
  EXPECT_EQ(snapshot[0], a);
  EXPECT_EQ(snapshot[1], b);
  EXPECT_EQ(snapshot[2], c);
}

TEST_F(LinuxSchedulerTest, PicksHighestGoodness) {
  Task* low = factory_.NewTask(5, 20);
  Task* high = factory_.NewTask(30, 20);
  Task* mid = factory_.NewTask(15, 20);
  sched_->AddToRunQueue(low);
  sched_->AddToRunQueue(high);
  sched_->AddToRunQueue(mid);
  EXPECT_EQ(Schedule(0, nullptr), high);
}

TEST_F(LinuxSchedulerTest, TieGoesToTaskCloserToFront) {
  Task* a = factory_.NewTask(10, 20);
  Task* b = factory_.NewTask(10, 20);
  sched_->AddToRunQueue(a);
  sched_->AddToRunQueue(b);  // [b a] — b is closer to the front.
  EXPECT_EQ(Schedule(0, nullptr), b);
}

TEST_F(LinuxSchedulerTest, EmptyQueueSchedulesIdleWithoutRecalc) {
  // Paper footnote 1: an empty run queue schedules the idle task rather than
  // triggering the recalculation.
  CostMeter meter(sched_->cost_model());
  EXPECT_EQ(sched_->Schedule(0, nullptr, meter), nullptr);
  EXPECT_EQ(meter.recalc_entries(), 0u);
  EXPECT_EQ(sched_->stats().idle_schedules, 1u);
}

TEST_F(LinuxSchedulerTest, AllExhaustedTriggersRecalculation) {
  Task* a = factory_.NewTask(0, 20);
  Task* b = factory_.NewTask(0, 30);
  Task* sleeper = factory_.NewTask(4, 10);  // Blocked task, not on the queue.
  sleeper->state = TaskState::kInterruptible;
  sched_->AddToRunQueue(a);
  sched_->AddToRunQueue(b);

  CostMeter meter(sched_->cost_model());
  Task* next = sched_->Schedule(0, nullptr, meter);
  EXPECT_EQ(meter.recalc_entries(), 1u);
  // After counter = counter/2 + priority, b (priority 30) wins.
  EXPECT_EQ(next, b);
  EXPECT_EQ(a->counter, 20);
  EXPECT_EQ(b->counter, 30);
  // Recalculation touches every task in the system, including blocked ones.
  EXPECT_EQ(sleeper->counter, 12);
  EXPECT_EQ(meter.recalc_tasks(), 3u);
}

TEST_F(LinuxSchedulerTest, PrevRemainsCandidateWhenRunnable) {
  Task* prev = factory_.NewTask(30, 20);
  sched_->AddToRunQueue(prev);
  prev->has_cpu = 1;  // Running on this CPU, as during a real schedule().
  Task* other = factory_.NewTask(5, 20);
  sched_->AddToRunQueue(other);
  EXPECT_EQ(Schedule(0, prev), prev);
  EXPECT_EQ(sched_->stats().picks_prev, 1u);
}

TEST_F(LinuxSchedulerTest, BlockedPrevIsRemovedFromQueue) {
  Task* prev = factory_.NewTask();
  sched_->AddToRunQueue(prev);
  prev->has_cpu = 1;
  prev->state = TaskState::kInterruptible;
  Task* other = factory_.NewTask();
  sched_->AddToRunQueue(other);
  EXPECT_EQ(Schedule(0, prev), other);
  EXPECT_FALSE(prev->OnRunQueue());
  EXPECT_EQ(sched_->nr_running(), 1u);
}

TEST_F(LinuxSchedulerTest, YieldedPrevLosesToAnyRunnableTask) {
  Task* prev = factory_.NewTask(40, 20);  // Higher goodness than the other.
  sched_->AddToRunQueue(prev);
  prev->has_cpu = 1;
  prev->policy |= kSchedYield;
  Task* weak = factory_.NewTask(1, 20);
  sched_->AddToRunQueue(weak);
  EXPECT_EQ(Schedule(0, prev), weak);
  EXPECT_FALSE(PolicyHasYield(prev->policy));  // prev_goodness cleared it.
}

TEST_F(LinuxSchedulerTest, SoloYieldTriggersExactlyOneRecalc) {
  // The paper's Figure 2 pathology: a task yields and nothing else can be
  // scheduled => the stock scheduler recalculates every counter, then runs
  // the yielder again.
  Task* prev = factory_.NewTask(10, 20);
  sched_->AddToRunQueue(prev);
  prev->has_cpu = 1;
  prev->policy |= kSchedYield;
  CostMeter meter(sched_->cost_model());
  Task* next = sched_->Schedule(0, prev, meter);
  EXPECT_EQ(next, prev);
  EXPECT_EQ(meter.recalc_entries(), 1u);
}

TEST_F(LinuxSchedulerTest, ExhaustedRoundRobinPrevIsRefreshedAndMovedLast) {
  Task* rr = factory_.NewRealtime(kSchedRr, 10);
  rr->counter = 0;
  Task* other_rt = factory_.NewRealtime(kSchedRr, 10);
  other_rt->counter = 5;
  sched_->AddToRunQueue(rr);
  sched_->AddToRunQueue(other_rt);  // [other_rt rr]... add order: rr then other -> [other rr]
  rr->has_cpu = 1;

  Task* next = Schedule(0, rr);
  // Quantum refreshed from priority, moved to the back of the queue, and the
  // rotated task loses the exact goodness tie this once — so the other
  // equal-priority RR task runs (POSIX round-robin rotation).
  EXPECT_EQ(rr->counter, rr->priority);
  EXPECT_EQ(next, other_rt);
  const auto snapshot = sched_->QueueSnapshot();
  EXPECT_EQ(snapshot.back(), rr);
}

TEST_F(LinuxSchedulerTest, RealtimeAlwaysBeatsSchedOther) {
  Task* fat = factory_.NewTask(2 * kMaxPriority, kMaxPriority);
  Task* rt = factory_.NewRealtime(kSchedFifo, 0);
  rt->counter = 0;  // Irrelevant for FIFO.
  sched_->AddToRunQueue(fat);
  sched_->AddToRunQueue(rt);
  EXPECT_EQ(Schedule(0, nullptr), rt);
}

TEST_F(LinuxSchedulerTest, HigherRtPriorityWins) {
  Task* low = factory_.NewRealtime(kSchedFifo, 10);
  Task* high = factory_.NewRealtime(kSchedFifo, 90);
  sched_->AddToRunQueue(low);
  sched_->AddToRunQueue(high);
  EXPECT_EQ(Schedule(0, nullptr), high);
}

TEST_F(LinuxSchedulerTest, SmpSkipsTasksRunningElsewhere) {
  Rebuild(2, true);
  Task* busy = factory_.NewTask(40, 20);
  busy->has_cpu = 1;
  busy->processor = 1;
  Task* free_task = factory_.NewTask(5, 20);
  sched_->AddToRunQueue(busy);
  sched_->AddToRunQueue(free_task);
  EXPECT_EQ(Schedule(0, nullptr), free_task);
}

TEST_F(LinuxSchedulerTest, SmpAffinityBonusBreaksNearTies) {
  Rebuild(2, true);
  Task* remote = factory_.NewTask(20, 20);
  remote->processor = 1;
  Task* local = factory_.NewTask(10, 20);
  local->processor = 0;
  sched_->AddToRunQueue(remote);
  sched_->AddToRunQueue(local);
  // local: 10+20+15 = 45 beats remote: 20+20 = 40.
  EXPECT_EQ(Schedule(0, nullptr), local);
}

TEST_F(LinuxSchedulerTest, MmBonusBreaksExactTies) {
  MmStruct* shared = factory_.NewMm();
  MmStruct* other = factory_.NewMm();
  Task* prev = factory_.NewTask(0, 20, shared);
  prev->state = TaskState::kInterruptible;  // Blocking; not a candidate.
  Task* kin = factory_.NewTask(10, 20, shared);
  Task* stranger = factory_.NewTask(10, 20, other);
  sched_->AddToRunQueue(prev);
  prev->has_cpu = 1;
  sched_->AddToRunQueue(kin);
  sched_->AddToRunQueue(stranger);  // Front: stranger would win the tie.
  EXPECT_EQ(Schedule(0, prev), kin);
}

TEST_F(LinuxSchedulerTest, ExaminesWholeQueueEveryCall) {
  // The O(n) behaviour the paper attacks: every runnable task is evaluated
  // on every invocation.
  for (int i = 0; i < 32; ++i) {
    sched_->AddToRunQueue(factory_.NewTask(10 + i % 5, 20));
  }
  CostMeter meter(sched_->cost_model());
  sched_->Schedule(0, nullptr, meter);
  EXPECT_EQ(meter.tasks_examined(), 32u);
  CostMeter meter2(sched_->cost_model());
  sched_->Schedule(0, nullptr, meter2);
  EXPECT_EQ(meter2.tasks_examined(), 32u);
}

TEST_F(LinuxSchedulerTest, StatsAccumulateAcrossCalls) {
  sched_->AddToRunQueue(factory_.NewTask());
  Schedule(0, nullptr);
  Schedule(0, nullptr);
  EXPECT_EQ(sched_->stats().schedule_calls, 2u);
  EXPECT_GT(sched_->stats().cycles_in_schedule, 0u);
}

TEST_F(LinuxSchedulerTest, PickOnNewProcessorCounted) {
  Rebuild(2, true);
  Task* t = factory_.NewTask(10, 20);
  t->processor = 1;
  sched_->AddToRunQueue(t);
  EXPECT_EQ(Schedule(0, nullptr), t);
  EXPECT_EQ(sched_->stats().picks_new_processor, 1u);
}

// ---------------------------------------------------------------------------
// The scan mirror's cached keys and their invariant.
// ---------------------------------------------------------------------------

constexpr char kStaleKeyMsg[] =
    "scan mirror key stale: queued off-CPU task changed without a re-file";

TEST_F(LinuxSchedulerTest, InvariantsCatchAQueuedTaskChangedBehindTheSchedulersBack) {
  factory_.DefaultMm();
  MmStruct* other_mm = factory_.NewMm();
  const auto mutations = {
      +[](Task* t, MmStruct*) { t->counter = 3; },
      +[](Task* t, MmStruct*) { t->priority = 7; },
      +[](Task* t, MmStruct* mm) { t->mm = mm; },
  };
  for (auto mutate : mutations) {
    Rebuild(2, true);
    Task* victim = factory_.NewTask(10, 20);
    sched_->AddToRunQueue(victim);
    sched_->AddToRunQueue(factory_.NewTask(5, 20));
    sched_->CheckInvariants();
    mutate(victim, other_mm);  // has_cpu == 0, no Del+Add re-file.
    ViolationTrap trap;
    EXPECT_THROW(sched_->CheckInvariants(), InvariantViolation);
    ASSERT_TRUE(trap.triggered());
    EXPECT_STREQ(trap.info().msg, kStaleKeyMsg);
  }
}

TEST_F(LinuxSchedulerTest, InvariantsCatchAnUnflaggedTaskOnACpu) {
  Task* t = factory_.NewTask();
  sched_->AddToRunQueue(t);
  t->has_cpu = 1;  // Claimed without going through Schedule().
  ViolationTrap trap;
  EXPECT_THROW(sched_->CheckInvariants(), InvariantViolation);
  EXPECT_STREQ(trap.info().msg, "scan mirror: unflagged task is on a CPU");
}

TEST_F(LinuxSchedulerTest, JustPickedTaskMayChangeAndIsReKeyedOffCpu) {
  Rebuild(2, true);
  factory_.DefaultMm();
  MmStruct* other_mm = factory_.NewMm();
  Task* a = factory_.NewTask(30, 20);
  Task* b = factory_.NewTask(20, 20);
  sched_->AddToRunQueue(a);
  sched_->AddToRunQueue(b);
  Task* picked = Schedule(0, nullptr);
  ASSERT_EQ(picked, a);
  // The Machine claims the pick, then it runs: ticks, priority and mm
  // changes all land while it holds the CPU.
  a->has_cpu = 1;
  a->counter = 1;
  a->priority = 2;
  a->mm = other_mm;
  {
    ViolationTrap trap;
    EXPECT_NO_THROW(sched_->CheckInvariants());
    EXPECT_FALSE(trap.triggered());
  }
  // Off the CPU again, the next scan re-keys it from the task: 1 + 2 now
  // loses to b's 20 + 20.
  a->has_cpu = 0;
  EXPECT_EQ(Schedule(1, nullptr), b);
}

// ---------------------------------------------------------------------------
// Differential test: Schedule() against the kernel's list walk.
//
// Two identical worlds receive the same random operation sequence. In one,
// LinuxScheduler::Schedule() picks; in the other, a reference written here
// walks the run-queue list (QueueSnapshot()) with can_schedule() and
// goodness(), strict >, prev seeded first — kernel/sched.c's loop. The
// worlds must agree on every pick, examine count and recalculation. The
// operations follow the Machine's calling conventions: run-queue edits,
// has_cpu claim at pick time and release at the context switch, ticks on
// running tasks (draining counters, so recalculations happen, and expiring
// RR quanta), yield, block, wake — including a wake while the blocked
// task's schedule() is still in flight — fork, and priority/policy changes
// that re-file a waiting task.
// ---------------------------------------------------------------------------

struct DiffConfig {
  uint64_t seed;
  int cpus;
  bool smp;
  int steps;
  int tasks = 0;  // 0: drawn from the seed.
};

std::string Repro(const DiffConfig& cfg, int step, const char* op) {
  return StrFormat(
      "repro: RunDifferential(DiffConfig{%llu, %d, %s, %d, %d}) fails at step %d (%s)",
      static_cast<unsigned long long>(cfg.seed), cfg.cpus, cfg.smp ? "true" : "false",
      step + 1, cfg.tasks, step, op);
}

// One side: a scheduler, its tasks and the per-CPU state a Machine keeps.
struct DiffWorld {
  DiffWorld(int cpus, bool smp)
      : sched(CostModel::PentiumII(), factory.task_list(), SchedulerConfig{cpus, smp}),
        current(static_cast<size_t>(cpus), nullptr),
        claimed(static_cast<size_t>(cpus), nullptr),
        in_schedule(static_cast<size_t>(cpus), false) {}

  TaskFactory factory;
  LinuxScheduler sched;
  std::vector<Task*> tasks;
  std::vector<MmStruct*> mms;
  std::vector<Task*> current;      // Task executing on each CPU (nullptr: idle).
  std::vector<Task*> claimed;      // Pick awaiting its context switch.
  std::vector<bool> in_schedule;   // Picked; context switch still pending.
};

struct Pick {
  Task* next = nullptr;
  uint64_t examined = 0;
  uint64_t recalcs = 0;
};

// The kernel's schedule() search, walking the list itself.
Pick ReferenceSchedule(LinuxScheduler& s, TaskList* all_tasks, int this_cpu, Task* prev,
                       bool smp) {
  Pick pick;
  const MmStruct* this_mm = prev != nullptr ? prev->mm : nullptr;
  bool rr_expired = false;
  if (prev != nullptr) {
    if (PolicyBase(prev->policy) == kSchedRr && prev->counter == 0) {
      prev->counter = prev->priority;
      s.MoveLastRunQueue(prev);
      rr_expired = true;
    }
    if (prev->state != TaskState::kRunning && prev->OnRunQueue()) {
      s.DelFromRunQueue(prev);
    }
  }
  while (true) {
    Task* next = nullptr;
    long c = kUnschedulableWeight;
    if (prev != nullptr && prev->state == TaskState::kRunning) {
      c = PrevGoodness(*prev, this_cpu, this_mm, smp) - (rr_expired ? 1 : 0);
      next = prev;
    }
    for (const Task* p : s.QueueSnapshot()) {
      if (p->has_cpu != 0) {  // can_schedule()
        continue;
      }
      ++pick.examined;
      const long weight = Goodness(*p, this_cpu, this_mm, smp);
      if (weight > c) {
        c = weight;
        next = const_cast<Task*>(p);
      }
    }
    if (c == 0) {
      ++pick.recalcs;
      all_tasks->ForEach([](Task* p) { p->counter = (p->counter >> 1) + p->priority; });
      continue;
    }
    pick.next = next;
    return pick;
  }
}

enum class DiffOp {
  kSchedule, kSwitch, kTick, kWake, kBlock, kYield, kMoveFirst, kMoveLast, kDel,
  kSetPriority, kSetPolicy, kFork,
};

const char* DiffOpName(DiffOp op) {
  static const char* const kNames[] = {"schedule", "switch", "tick", "wake",
                                       "block", "yield", "move-first", "move-last",
                                       "del", "set-priority", "set-policy", "fork"};
  return kNames[static_cast<int>(op)];
}

// One operation with every random choice already made, so both worlds
// apply exactly the same thing. Task and CPU choices are indices.
struct DiffStep {
  DiffOp op;
  int cpu = 0;
  int task = 0;
  long value = 0;
  uint32_t policy = kSchedOther;
};

int PidOf(const Task* t) { return t != nullptr ? t->pid : 0; }

void AddTask(DiffWorld& w, long counter, long priority, uint32_t policy, long rt_priority,
             int mm, int processor) {
  Task* t = w.factory.NewTask(counter, priority);
  t->policy = policy;
  t->rt_priority = rt_priority;
  t->mm = mm < static_cast<int>(w.mms.size()) ? w.mms[static_cast<size_t>(mm)] : nullptr;
  t->processor = processor;
  t->state = TaskState::kInterruptible;  // Woken by a later kWake.
  w.tasks.push_back(t);
}

// Applies `step` to `w`. Schedule steps go through `pick`, which is either
// LinuxScheduler::Schedule() or the reference walk.
template <typename PickFn>
Pick Apply(DiffWorld& w, const DiffStep& step, PickFn pick) {
  const auto cpu = static_cast<size_t>(step.cpu);
  Task* t = w.tasks[static_cast<size_t>(step.task)];
  Task* cur = w.current[cpu];
  switch (step.op) {
    case DiffOp::kSchedule: {
      const Pick p = pick(step.cpu, cur);
      if (p.next != nullptr) {
        p.next->has_cpu = 1;  // Claimed at pick time, as Machine::DoSchedule does.
      }
      w.claimed[cpu] = p.next;
      w.in_schedule[cpu] = true;
      return p;
    }
    case DiffOp::kSwitch: {  // Machine::Dispatch: the context switch.
      Task* next = w.claimed[cpu];
      if (cur != next) {
        if (cur != nullptr) {
          cur->has_cpu = 0;
        }
        if (next != nullptr) {
          next->has_cpu = 1;
          next->processor = step.cpu;
        }
        w.current[cpu] = next;
      }
      w.in_schedule[cpu] = false;
      break;
    }
    case DiffOp::kTick:
      if (PolicyBase(cur->policy) != kSchedFifo && cur->counter > 0) {
        --cur->counter;
      }
      break;
    case DiffOp::kWake:  // try_to_wake_up(); the task may still hold a CPU.
      t->state = TaskState::kRunning;
      if (!t->OnRunQueue()) {
        w.sched.AddToRunQueue(t);
      }
      break;
    case DiffOp::kBlock:  // set_current_state(); the next schedule() dequeues.
      cur->state = TaskState::kInterruptible;
      break;
    case DiffOp::kYield:
      if (PolicyBase(cur->policy) == kSchedOther) {
        cur->policy |= kSchedYield;
      }
      w.sched.MoveLastRunQueue(cur);
      break;
    case DiffOp::kMoveFirst:
      w.sched.MoveFirstRunQueue(t);
      break;
    case DiffOp::kMoveLast:
      w.sched.MoveLastRunQueue(t);
      break;
    case DiffOp::kDel:
      t->state = TaskState::kInterruptible;
      w.sched.DelFromRunQueue(t);
      break;
    case DiffOp::kSetPriority:
    case DiffOp::kSetPolicy:
      // Machine::SetTaskPriority / SetTaskPolicy: re-file a waiting task.
      if (step.op == DiffOp::kSetPriority) {
        t->priority = step.value;
      } else {
        t->policy = (t->policy & kSchedYield) | step.policy;
        t->rt_priority = PolicyIsRealtime(step.policy) ? step.value : 0;
      }
      if (t->OnRunQueue() && t->has_cpu == 0) {
        w.sched.DelFromRunQueue(t);
        w.sched.AddToRunQueue(t);
      }
      break;
    case DiffOp::kFork: {  // Machine::ForkTask from the running parent.
      const long child_counter = (cur->counter + 1) >> 1;
      cur->counter >>= 1;
      AddTask(w, child_counter, cur->priority, PolicyBase(cur->policy), cur->rt_priority, 0,
              cur->processor);
      w.tasks.back()->mm = cur->mm;
      w.tasks.back()->state = TaskState::kRunning;
      w.sched.AddToRunQueue(w.tasks.back());
      break;
    }
  }
  return Pick{};
}

// Draws the next operation that is legal in `w` (both worlds are in the
// same state, so it is legal in both).
DiffStep NextStep(Rng& rng, const DiffWorld& w) {
  const int cpus = static_cast<int>(w.current.size());
  const int ntasks = static_cast<int>(w.tasks.size());
  while (true) {
    DiffStep step;
    step.cpu = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(cpus)));
    step.task = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(ntasks)));
    const auto cpu = static_cast<size_t>(step.cpu);
    const Task* cur = w.current[cpu];
    const bool busy = w.in_schedule[cpu];
    const bool running = !busy && cur != nullptr;  // Executing, no pick in flight.
    const Task* t = w.tasks[static_cast<size_t>(step.task)];
    const uint64_t roll = rng.NextBelow(100);
    if (roll < 25) {
      step.op = DiffOp::kSchedule;
      if (!busy) return step;
    } else if (roll < 45) {
      step.op = DiffOp::kSwitch;
      if (busy) return step;
    } else if (roll < 60) {
      step.op = DiffOp::kTick;
      if (running) return step;
    } else if (roll < 70) {
      step.op = DiffOp::kWake;
      if (t->state != TaskState::kRunning) return step;
    } else if (roll < 74) {
      step.op = DiffOp::kBlock;
      if (running && cur->state == TaskState::kRunning) return step;
    } else if (roll < 78) {
      step.op = DiffOp::kYield;
      if (running && cur->state == TaskState::kRunning) return step;
    } else if (roll < 84) {
      step.op = rng.NextBool(0.5) ? DiffOp::kMoveFirst : DiffOp::kMoveLast;
      if (t->OnRunQueue()) return step;
    } else if (roll < 86) {
      step.op = DiffOp::kDel;
      if (t->OnRunQueue() && t->has_cpu == 0) return step;
    } else if (roll < 91) {
      step.op = DiffOp::kSetPriority;
      step.value = rng.NextInRange(1, 6);
      return step;
    } else if (roll < 94) {
      step.op = DiffOp::kSetPolicy;
      const uint64_t kind = rng.NextBelow(6);
      step.policy = kind == 0 ? kSchedFifo : kind == 1 ? kSchedRr : kSchedOther;
      step.value = rng.NextInRange(0, kMaxRtPriority);
      return step;
    } else {
      step.op = DiffOp::kFork;
      if (running && cur->state == TaskState::kRunning && ntasks < 160) return step;
    }
  }
}

// How often the sequences reached the cases the mirror must get right.
struct DiffCoverage {
  uint64_t recalcs = 0;
  uint64_t on_cpu_skips = 0;     // Picks that skipped a queued task on a CPU.
  uint64_t wakes_on_cpu = 0;     // Re-adds while the dequeued prev still has the CPU.
  uint64_t yielded_prevs = 0;
  uint64_t rr_expiries = 0;
  uint64_t realtime_picks = 0;
  uint64_t idle_picks = 0;
  uint64_t queue_lengths = 0;    // Bit k: a pick ran with k tasks queued (k < 64).
};

void RunDifferential(const DiffConfig& cfg, DiffCoverage* coverage = nullptr) {
  DiffCoverage unused;
  DiffCoverage& cov = coverage != nullptr ? *coverage : unused;
  DiffWorld mirror(cfg.cpus, cfg.smp);
  DiffWorld kernel(cfg.cpus, cfg.smp);
  Rng rng(cfg.seed);
  // Few, short-quantum tasks so counters drain and recalculations happen;
  // some real-time ones; shared, private and absent (kernel-thread) mms.
  const int ntasks =
      cfg.tasks > 0 ? cfg.tasks : static_cast<int>(rng.NextInRange(2, 2 + 2 * cfg.cpus + 6));
  for (DiffWorld* w : {&mirror, &kernel}) {
    for (int i = 0; i < 3; ++i) {
      w->mms.push_back(w->factory.NewMm());
    }
  }
  for (int i = 0; i < ntasks; ++i) {
    const long priority = rng.NextInRange(1, 6);
    const long counter = rng.NextBool(0.4) ? 0 : rng.NextInRange(0, 2 * priority);
    const uint64_t kind = rng.NextBelow(10);
    const uint32_t policy = kind == 0 ? kSchedFifo : kind == 1 ? kSchedRr : kSchedOther;
    const long rt_priority = PolicyIsRealtime(policy) ? rng.NextInRange(0, kMaxRtPriority) : 0;
    const int mm = static_cast<int>(rng.NextBelow(4));  // 3 is nullptr.
    const int processor = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(cfg.cpus)));
    for (DiffWorld* w : {&mirror, &kernel}) {
      AddTask(*w, counter, priority, policy, rt_priority, mm, processor);
    }
  }
  for (int step_no = 0; step_no < cfg.steps; ++step_no) {
    const DiffStep step = NextStep(rng, mirror);
    const char* op = DiffOpName(step.op);
    const Task* prev = kernel.current[static_cast<size_t>(step.cpu)];
    if (step.op == DiffOp::kSchedule && prev != nullptr) {
      cov.yielded_prevs += PolicyHasYield(prev->policy) ? 1 : 0;
      cov.rr_expiries += PolicyBase(prev->policy) == kSchedRr && prev->counter == 0 ? 1 : 0;
    }
    if (step.op == DiffOp::kWake) {
      const Task* t = kernel.tasks[static_cast<size_t>(step.task)];
      cov.wakes_on_cpu += t->has_cpu != 0 && !t->OnRunQueue() ? 1 : 0;
    }
    const size_t queued = kernel.sched.nr_running();
    ViolationTrap trap;
    try {
      const Pick got = Apply(mirror, step, [&](int cpu, Task* prev) {
        CostMeter meter(mirror.sched.cost_model());
        Pick p;
        p.next = mirror.sched.Schedule(cpu, prev, meter);
        p.examined = meter.tasks_examined();
        p.recalcs = meter.recalc_entries();
        return p;
      });
      const Pick want = Apply(kernel, step, [&](int cpu, Task* prev) {
        return ReferenceSchedule(kernel.sched, kernel.factory.task_list(), cpu, prev, cfg.smp);
      });
      ASSERT_EQ(PidOf(got.next), PidOf(want.next)) << Repro(cfg, step_no, op);
      ASSERT_EQ(got.examined, want.examined) << Repro(cfg, step_no, op);
      ASSERT_EQ(got.recalcs, want.recalcs) << Repro(cfg, step_no, op);
      if (step.op == DiffOp::kSchedule) {
        cov.recalcs += want.recalcs;
        cov.on_cpu_skips += want.examined < kernel.sched.nr_running() && queued > 0 ? 1 : 0;
        cov.realtime_picks += want.next != nullptr && want.next->IsRealtime() ? 1 : 0;
        cov.idle_picks += want.next == nullptr ? 1 : 0;
        cov.queue_lengths |= queued < 64 ? uint64_t{1} << queued : 0;
      }
      mirror.sched.CheckInvariants();
    } catch (const InvariantViolation& v) {
      FAIL() << Repro(cfg, step_no, op) << ": " << (v.info.msg != nullptr ? v.info.msg : v.info.expr);
    }
    std::vector<int> got_queue;
    std::vector<int> want_queue;
    for (const Task* p : mirror.sched.QueueSnapshot()) got_queue.push_back(p->pid);
    for (const Task* p : kernel.sched.QueueSnapshot()) want_queue.push_back(p->pid);
    ASSERT_EQ(got_queue, want_queue) << Repro(cfg, step_no, op);
  }
}

TEST(LinuxSchedulerDifferentialTest, MirrorScanMatchesKernelListWalk) {
  std::vector<DiffConfig> configs;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    configs.push_back({seed, 1, false, 3000});  // UP kernel.
    for (int cpus : {1, 2, 3, 4, 8, 16, 64}) {
      configs.push_back({seed * 131 + static_cast<uint64_t>(cpus), cpus, true, 3000});
    }
  }
  DiffCoverage cov;
  for (const DiffConfig& cfg : configs) {
    RunDifferential(cfg, &cov);
    if (HasFatalFailure()) {
      return;
    }
  }
  EXPECT_GT(cov.recalcs, 0u);
  EXPECT_GT(cov.on_cpu_skips, 0u);
  EXPECT_GT(cov.wakes_on_cpu, 0u);
  EXPECT_GT(cov.yielded_prevs, 0u);
  EXPECT_GT(cov.rr_expiries, 0u);
  EXPECT_GT(cov.realtime_picks, 0u);
  EXPECT_GT(cov.idle_picks, 0u);
}

// Queues of 0 to 9 tasks: every length mod 4, so the last vector group of
// the scan is full, partial or absent, and the pick can sit in any lane.
TEST(LinuxSchedulerDifferentialTest, MirrorScanMatchesKernelListWalkAcrossLaneBoundaries) {
  DiffCoverage cov;
  for (int tasks = 1; tasks <= 9; ++tasks) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      for (const auto& [cpus, smp] : {std::pair{1, false}, std::pair{1, true}, std::pair{2, true},
                                      std::pair{4, true}}) {
        RunDifferential({seed * 977 + static_cast<uint64_t>(tasks * 8 + cpus), cpus, smp, 600,
                         tasks},
                        &cov);
        if (HasFatalFailure()) {
          return;
        }
      }
    }
  }
  for (int length = 0; length <= 9; ++length) {
    EXPECT_NE(cov.queue_lengths & (uint64_t{1} << length), 0u)
        << "no pick at queue length " << length;
  }
  EXPECT_GT(cov.recalcs, 0u);
  EXPECT_GT(cov.on_cpu_skips, 0u);
  EXPECT_GT(cov.idle_picks, 0u);
}

// Picks `want` for a blocked `prev` with the kernel's list walk and checks
// Schedule() against it. prev is off the queue and every queued counter is
// non-zero, so the walk changes nothing.
void ExpectPickMatchesListWalk(LinuxScheduler& sched, TaskList* all_tasks, int cpu, Task* prev,
                               const std::string& where) {
  const Pick want = ReferenceSchedule(sched, all_tasks, cpu, prev, sched.config().smp);
  ASSERT_EQ(want.recalcs, 0u) << where;
  CostMeter meter(sched.cost_model());
  Task* got = sched.Schedule(cpu, prev, meter);
  sched.CheckInvariants();
  ASSERT_EQ(PidOf(got), PidOf(want.next)) << where;
  ASSERT_EQ(meter.tasks_examined(), want.examined) << where;
}

TEST_F(LinuxSchedulerTest, DrainedQueueNeverPicksOrExaminesPaddingOrStaleSlots) {
  // Grow the mirror past 1,000 slots with tasks that would win every pick,
  // drain it down to a few weak ones, and pick at every length on the way
  // down: a scan that read the vacated slots would examine too many tasks
  // or return one that left the queue.
  Rebuild(4, true);
  Rng rng(17);
  std::vector<Task*> strong;
  std::vector<Task*> weak;
  for (int i = 0; i < 1030; ++i) {
    const bool is_weak = i % 205 == 0;  // 6 weak tasks, spread over the slots.
    Task* t = factory_.NewTask(is_weak ? 1 + i % 3 : 40, 20);
    t->processor = static_cast<int>(rng.NextBelow(4));
    sched_->AddToRunQueue(t);
    (is_weak ? weak : strong).push_back(t);
  }
  const size_t grown = LinuxSchedulerMirrorPeer::Capacity(*sched_);
  ASSERT_GE(grown, 1030u);
  sched_->CheckInvariants();
  Task* prev = factory_.NewTask();
  prev->state = TaskState::kInterruptible;
  while (!strong.empty()) {
    const size_t victim = rng.NextBelow(strong.size());
    sched_->DelFromRunQueue(strong[victim]);
    strong[victim] = strong.back();
    strong.pop_back();
    if (strong.size() % 97 == 0) {
      ExpectPickMatchesListWalk(*sched_, factory_.task_list(), 0, prev,
                                StrFormat("%zu strong tasks left", strong.size()));
    }
  }
  ASSERT_EQ(LinuxSchedulerMirrorPeer::Capacity(*sched_), grown);
  while (true) {
    for (int cpu = 0; cpu < 4; ++cpu) {
      ExpectPickMatchesListWalk(*sched_, factory_.task_list(), cpu, prev,
                                StrFormat("%zu weak tasks, cpu %d", weak.size(), cpu));
      if (HasFatalFailure()) {
        return;
      }
    }
    if (weak.empty()) {
      break;
    }
    sched_->DelFromRunQueue(weak.back());
    weak.pop_back();
  }
  EXPECT_EQ(sched_->nr_running(), 0u);
}

TEST(LinuxSchedulerTieTest, ExactTiesAcrossLanesPickTheFrontmostTask) {
  // Every task has the same counter, priority and mm, so goodness differs
  // only by the affinity bonus and most picks are decided by list order
  // among many exact ties spread over the vector lanes. Picks stay on their
  // CPU for a while (flagged slots: up to 64 at once at 64 CPUs) and come
  // back with a new processor, which the re-key must pick up.
  for (int cpus : {1, 4, 64}) {
    SCOPED_TRACE(StrFormat("%d CPUs", cpus));
    TaskFactory factory;
    LinuxScheduler sched(CostModel::PentiumII(), factory.task_list(), SchedulerConfig{cpus, true});
    Rng rng(static_cast<uint64_t>(cpus));
    std::vector<Task*> tasks;
    for (int i = 0; i < 103; ++i) {
      Task* t = factory.NewTask(10, 20);
      t->processor = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(cpus)));
      sched.AddToRunQueue(t);
      tasks.push_back(t);
    }
    Task* prev = factory.NewTask();  // Same mm: the bonus applies to every task.
    prev->state = TaskState::kInterruptible;
    std::vector<Task*> running(static_cast<size_t>(cpus), nullptr);
    size_t most_on_cpu = 0;
    for (int step = 0; step < 1500; ++step) {
      const int cpu = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(cpus)));
      Task*& current = running[static_cast<size_t>(cpu)];
      if (current != nullptr) {
        current->has_cpu = 0;  // Context switch away; it stays queued.
      }
      for (int k = 0; k < 3; ++k) {
        Task* t = tasks[rng.NextBelow(tasks.size())];
        if (rng.NextBool(0.5)) {
          sched.MoveFirstRunQueue(t);
        } else {
          sched.MoveLastRunQueue(t);
        }
      }
      const Pick want =
          ReferenceSchedule(sched, factory.task_list(), cpu, prev, /*smp=*/true);
      CostMeter meter(sched.cost_model());
      Task* got = sched.Schedule(cpu, prev, meter);
      ASSERT_EQ(PidOf(got), PidOf(want.next)) << "step " << step;
      ASSERT_EQ(meter.tasks_examined(), want.examined) << "step " << step;
      most_on_cpu = std::max<size_t>(most_on_cpu, sched.nr_running() - want.examined);
      got->has_cpu = 1;
      got->processor = cpu;
      current = got;
      sched.CheckInvariants();
    }
    EXPECT_GE(most_on_cpu, static_cast<size_t>(cpus) - 1);
  }
}

// ---------------------------------------------------------------------------
// Teeth for the mirror's own invariants.
// ---------------------------------------------------------------------------

void ExpectViolation(const LinuxScheduler& sched, const char* msg) {
  ViolationTrap trap;
  EXPECT_THROW(sched.CheckInvariants(), InvariantViolation);
  ASSERT_TRUE(trap.triggered());
  EXPECT_STREQ(trap.info().msg, msg);
}

TEST_F(LinuxSchedulerTest, InvariantsCatchAPaddingSlotThatIsNotASentinel) {
  // Padding after a partial group, and stale slots left by a drain.
  for (const auto& [queued, grown] : {std::pair{1, 1}, std::pair{5, 5}, std::pair{3, 12}}) {
    Rebuild(2, true);
    std::vector<Task*> tasks;
    for (int i = 0; i < grown; ++i) {
      tasks.push_back(factory_.NewTask());
      sched_->AddToRunQueue(tasks.back());
    }
    for (int i = queued; i < grown; ++i) {
      sched_->DelFromRunQueue(tasks[static_cast<size_t>(i)]);
    }
    sched_->CheckInvariants();
    const size_t capacity = LinuxSchedulerMirrorPeer::Capacity(*sched_);
    ASSERT_GT(capacity, static_cast<size_t>(queued));
    // The first padding slot, then the last slot of the arrays.
    for (size_t slot : {static_cast<size_t>(queued), capacity - 1}) {
      int32_t& weight = LinuxSchedulerMirrorPeer::Weight(*sched_, slot);
      const int32_t saved = weight;
      weight = 30;
      ExpectViolation(*sched_, "scan mirror padding slot is not a sentinel");
      weight = saved;
      sched_->CheckInvariants();
    }
  }
}

TEST_F(LinuxSchedulerTest, InvariantsCatchAFlaggedListOutOfSyncWithTheFlaggedSlots) {
  constexpr char kOutOfSync[] = "scan mirror flagged list out of sync with flagged slots";
  Rebuild(2, true);
  Task* a = factory_.NewTask(30, 20);
  Task* b = factory_.NewTask(20, 20);
  sched_->AddToRunQueue(a);
  sched_->AddToRunQueue(b);
  ASSERT_EQ(Schedule(0, nullptr), a);  // a's slot is flagged now.
  a->has_cpu = 1;
  std::vector<Task*>& flagged = LinuxSchedulerMirrorPeer::Flagged(*sched_);
  ASSERT_EQ(flagged, std::vector<Task*>{a});

  flagged.clear();  // A flagged slot missing from the list.
  ExpectViolation(*sched_, kOutOfSync);
  flagged = {a, a};  // Listed twice.
  ExpectViolation(*sched_, kOutOfSync);
  flagged = {a, b};  // An unflagged task listed.
  ExpectViolation(*sched_, kOutOfSync);
  flagged = {a};
  sched_->CheckInvariants();

  // A flagged slot must hold the whole sentinel key, not just its weight.
  LinuxSchedulerMirrorPeer::Processor(*sched_, static_cast<size_t>(a->scan_slot)) = 0;
  ExpectViolation(*sched_, "scan mirror flagged slot is not a sentinel");
}

}  // namespace
}  // namespace elsc
