#include "src/sched/linux_scheduler.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>

#include "src/base/assert.h"
#include "src/kernel/policy.h"
#include "src/base/string_util.h"
#include "src/sched/goodness.h"

namespace elsc {

template class PolicyScheduler<LinuxScheduler>;
namespace {

// Four int32 lanes as a GCC/Clang generic vector: baseline SSE2 on x86-64,
// NEON on arm64. Signed lanes, so == and > lower to pcmpeqd / pcmpgtd.
typedef int32_t Lanes __attribute__((vector_size(16)));

// Keys keep the base weight within +-2^14, far above the sentinel weight
// even after both bonuses.
constexpr long kWeightLimit = long{1} << 14;

Lanes Splat(int32_t x) { return Lanes{x, x, x, x}; }

Lanes LoadLanes(const int32_t* p) {
  Lanes v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// The halves of an mm pointer as two int32 lanes.
int32_t MmLo(const MmStruct* mm) {
  return static_cast<int32_t>(static_cast<uint32_t>(reinterpret_cast<uintptr_t>(mm)));
}
int32_t MmHi(const MmStruct* mm) {
  const uint64_t bits = reinterpret_cast<uintptr_t>(mm);
  return static_cast<int32_t>(static_cast<uint32_t>(bits >> 32));
}

}  // namespace

LinuxScheduler::ScanKey LinuxScheduler::KeyOf(const Task& p) {
  long weight = 0;
  bool bonus = false;
  if (PolicyHasYield(p.policy)) {
    weight = -1;
  } else if (PolicyIsRealtime(p.policy)) {
    weight = kRealtimeBase + p.rt_priority;
  } else if (p.counter != 0) {
    weight = p.counter + p.priority;
    bonus = true;
  }
  ELSC_VERIFY_MSG(weight > -kWeightLimit && weight < kWeightLimit,
                  "goodness outside the scan key's range");
  ELSC_VERIFY_MSG(p.processor >= 0, "processor outside the scan key's range");
  if (!bonus) {
    return {static_cast<int32_t>(weight), kNoProcessor, kNoMm, 0};
  }
  if (p.mm == nullptr) {
    // A kernel thread earns the same-mm bonus from every deciding CPU.
    return {static_cast<int32_t>(weight + kSameMmBonus), p.processor, kNoMm, 0};
  }
  return {static_cast<int32_t>(weight), p.processor, MmLo(p.mm), MmHi(p.mm)};
}

void LinuxScheduler::Enqueue(Task* task) {
  // Newly created or awakened tasks go to the *front* of the run queue
  // (paper §3.2): list_add(&p->run_list, &runqueue_head).
  ListAdd(&task->run_list, &runqueue_head_);
  const size_t slot = nr_running_;
  if (slot == groups_.size() * kLanes) {
    groups_.push_back(kSentinelGroup);
  }
  task->scan_slot = static_cast<int>(slot);
  TaskAt(slot) = task;
  StampAt(slot) = --front_stamp_;
  // A task woken while its last schedule() is still in flight keeps the CPU
  // until the context switch; it may change again before then. Its slot
  // already holds the sentinel key.
  if (task->has_cpu != 0) {
    flagged_.push_back(task);
  } else {
    StoreKey(slot, KeyOf(*task));
  }
}

void LinuxScheduler::Dequeue(Task* task) {
  ListDel(&task->run_list);
  const size_t slot = static_cast<size_t>(task->scan_slot);
  if (IsFlagged(slot)) {
    for (Task*& flagged : flagged_) {
      if (flagged == task) {
        flagged = flagged_.back();
        flagged_.pop_back();
        break;
      }
    }
  }
  // Swap-pop the slot; the moved entry keeps its stamp and its flag (a
  // flagged task is in flagged_ by pointer, not by slot). The vacated last
  // slot turns back into sentinel padding.
  const size_t last = nr_running_ - 1;
  StoreKey(slot, KeyAt(last));
  TaskAt(slot) = TaskAt(last);
  StampAt(slot) = StampAt(last);
  TaskAt(slot)->scan_slot = static_cast<int>(slot);
  StoreKey(last, kSentinelKey);
  TaskAt(last) = nullptr;
  StampAt(last) = 0;
  task->scan_slot = -1;
}

void LinuxScheduler::MoveFirstRunQueue(Task* task) {
  ELSC_VERIFY(task->OnRunQueue());
  ListMove(&task->run_list, &runqueue_head_);
  StampAt(static_cast<size_t>(task->scan_slot)) = --front_stamp_;
}

void LinuxScheduler::MoveLastRunQueue(Task* task) {
  ELSC_VERIFY(task->OnRunQueue());
  ListMoveTail(&task->run_list, &runqueue_head_);
  StampAt(static_cast<size_t>(task->scan_slot)) = ++back_stamp_;
}

Task* LinuxScheduler::PickNext(int this_cpu, Task* prev, CostMeter& meter) {
  const MmStruct* this_mm = prev != nullptr ? prev->mm : nullptr;
  // prev is on a CPU and about to change (prev_goodness(), RR refresh).
  FlagMaybeOnCpu(prev);

  bool rr_expired = false;
  if (prev != nullptr) {
    // Move an exhausted RR process to be last, refreshing its quantum. The
    // rotated task must lose exact goodness ties this once (POSIX round-
    // robin: the task goes to the tail and the next equal-priority task
    // runs), so its seed value is docked one point below.
    if (PolicyBase(prev->policy) == kSchedRr && prev->counter == 0) {
      prev->counter = prev->priority;
      MoveLastRunQueue(prev);
      rr_expired = true;
    }
    // A task that stopped being runnable leaves the run queue here.
    if (prev->state != TaskState::kRunning && prev->OnRunQueue()) {
      DelFromRunQueue(prev);
    }
  }

  // The deciding CPU's bonus operands, one per lane. KeyOf() keeps
  // processors non-negative, so -1 turns affinity off.
  const Lanes affinity_cpu = Splat(config_.smp ? this_cpu : -1);
  const Lanes this_mm_lo = Splat(MmLo(this_mm));
  const Lanes this_mm_hi = Splat(MmHi(this_mm));
  const Lanes proc_bonus = Splat(kProcChangePenalty);
  const Lanes mm_bonus = Splat(kSameMmBonus);
  // goodness() of a group's slots: the cached weight plus both bonuses, each
  // masked by its compare.
  auto goodness_of = [&](const SlotGroup& g) {
    const Lanes same_mm = (LoadLanes(g.mm_lo) == this_mm_lo) & (LoadLanes(g.mm_hi) == this_mm_hi);
    return LoadLanes(g.weight) + ((LoadLanes(g.processor) == affinity_cpu) & proc_bonus) +
           (same_mm & mm_bonus);
  };

  while (true) {
    // Default pick: the idle task (returned as nullptr).
    Task* next = nullptr;
    long c = kUnschedulableWeight;

    // still_running: the previous task is the first candidate. If it has
    // yielded, prev_goodness() clears the bit and scores it zero so anything
    // else runnable beats it.
    if (prev != nullptr && prev->state == TaskState::kRunning) {
      c = PrevGoodness(*prev, this_cpu, this_mm, config_.smp);
      if (rr_expired) {
        --c;  // Lose ties against equal-rt_priority peers, beat everyone else.
      }
      next = prev;
    }

    // The heart of the stock scheduler: evaluate goodness() for every task
    // on the run queue that is not currently executing on a processor.
    //
    // The evaluation runs over the mirror instead of the list, adds the
    // dynamic bonuses to each slot's cached base weight instead of loading
    // the task, and takes the pick in two passes — host-time only.
    // Equivalence with the list walk: the kernel loop examines every queued
    // task with has_cpu == 0 and keeps the *first* one in list order whose
    // goodness strictly exceeds everything before it (ties lose to the
    // earlier task and to prev's seed value `c`). That is the task of
    // greatest goodness gmax, and among several at gmax the one nearest the
    // front: the smallest stamp, since stamps strictly increase
    // front-to-back. It replaces `c` iff gmax > c.
    //
    // First, the flagged tasks: those still on a CPU are not examined, and
    // the rest are re-keyed from the task and unflagged. Afterwards every
    // queued task with has_cpu == 0 holds its exact key (CheckInvariants()
    // verifies an unflagged slot's key and has_cpu), and every other slot
    // of the live groups, on-CPU or padding, holds the sentinel key, whose
    // goodness kSentinelWeight stays below any real one.
    size_t on_cpu = 0;
    for (size_t k = 0; k < flagged_.size();) {
      Task* t = flagged_[k];
      if (!CanSchedule(*t)) {
        ++on_cpu;
        ++k;
        continue;
      }
      StoreKey(static_cast<size_t>(t->scan_slot), KeyOf(*t));
      flagged_[k] = flagged_.back();
      flagged_.pop_back();
    }
    meter.ChargeExamine(nr_running_ - on_cpu);

    // Pass 1: gmax, four lanes at a time. The max is a lane-wise select, as
    // SSE2 has no signed 32-bit max. The scan stops at the last live group.
    const SlotGroup* groups = groups_.data();
    const size_t live_groups = (nr_running_ + kLanes - 1) / kLanes;
    Lanes lane_max = Splat(kSentinelWeight);
    for (size_t i = 0; i < live_groups; ++i) {
      const Lanes g = goodness_of(groups[i]);
      const Lanes greater = g > lane_max;
      lane_max = (g & greater) | (lane_max & ~greater);
    }
    int32_t gmax = lane_max[0];
    for (size_t j = 1; j < kLanes; ++j) {
      gmax = lane_max[j] > gmax ? lane_max[j] : gmax;
    }

    // Pass 2, only when a real candidate beats prev: the smallest stamp at
    // goodness gmax. Few groups hold a slot at gmax, and only those reach
    // the scalar stamp compare.
    if (gmax != kSentinelWeight && gmax > c) {
      const Lanes target = Splat(gmax);
      const Lanes lane_bit = Lanes{1, 2, 4, 8};
      const SlotGroup* pick_group = nullptr;
      size_t pick_lane = 0;
      int64_t pick_stamp = std::numeric_limits<int64_t>::max();
      for (size_t i = 0; i < live_groups; ++i) {
        // The group's hits as a 4-bit mask: each hit lane holds its own
        // bit, and the four lanes are OR-ed together.
        uint64_t halves[2];
        const Lanes bits = (goodness_of(groups[i]) == target) & lane_bit;
        std::memcpy(halves, &bits, sizeof(halves));
        uint64_t hits = halves[0] | halves[1];
        hits = (hits | hits >> 32) & 0xf;
        while (hits != 0) {
          const auto j = static_cast<size_t>(__builtin_ctzll(hits));
          hits &= hits - 1;
          if (groups[i].stamp[j] < pick_stamp) {
            pick_stamp = groups[i].stamp[j];
            pick_group = &groups[i];
            pick_lane = j;
          }
        }
      }
      c = gmax;
      next = pick_group->task[pick_lane];
    }

    // Do we need to re-calculate counters? c == 0 means a runnable task was
    // found but every candidate's quantum is exhausted (or the yielded prev
    // was the only choice). An *empty* run queue leaves c at -1000 and
    // schedules the idle task instead (paper footnote 1).
    if (c == 0) {
      // Queued tasks are re-keyed on the way past, except flagged ones,
      // which are re-keyed once they are off their CPU; a queued task outside
      // all_tasks_ (exiting, its last schedule() in flight) keeps its counter
      // and so its key.
      RecalculateCounters(meter, [this](Task* p) {
        if (p->scan_slot >= 0 && !IsFlagged(static_cast<size_t>(p->scan_slot))) {
          StoreKey(static_cast<size_t>(p->scan_slot), KeyOf(*p));
        }
      });
      continue;
    }

    // The pick takes a CPU; the Machine sets has_cpu and processor next.
    FlagMaybeOnCpu(next);
    return next;
  }
}

std::vector<const Task*> LinuxScheduler::QueueSnapshot() const {
  std::vector<const Task*> out;
  for (const ListHead* node = runqueue_head_.next; node != &runqueue_head_; node = node->next) {
    out.push_back(ListEntry<Task, &Task::run_list>(const_cast<ListHead*>(node)));
  }
  return out;
}

std::string LinuxScheduler::DebugString() const {
  // "listhead -> [g] -> [g] -> ..." — the run queue of Figure 1a, where the
  // labels are static goodness values.
  std::string out = "runqueue(listhead)";
  for (const ListHead* node = runqueue_head_.next; node != &runqueue_head_; node = node->next) {
    const Task* p = ListEntry<Task, &Task::run_list>(const_cast<ListHead*>(node));
    out += StrFormat(" -> [%ld%s]", StaticGoodness(*p), p->has_cpu != 0 ? "*" : "");
  }
  out += StrFormat("  (nr_running=%zu)", nr_running_);
  return out;
}

void LinuxScheduler::CheckInvariants() const {
  // The list must be a consistent circular doubly-linked list whose length
  // matches nr_running, and every member must be TASK_RUNNING. The scan
  // mirror must hold exactly the list's members in its first nr_running
  // slots, each task's scan_slot must point at its own slot, and stamps must
  // strictly increase along the list front-to-back. Every slot past the
  // live ones must be sentinel padding; a flagged live slot must hold the
  // sentinel key and its task must be in flagged_ exactly once, and nothing
  // else may be; every unflagged slot must be off-CPU with a key that
  // matches its task (the properties the PickNext() equivalence relies on).
  const size_t size = groups_.size() * kLanes;
  ELSC_VERIFY_MSG(nr_running_ <= size, "scan mirror smaller than the run queue");
  for (size_t slot = nr_running_; slot < size; ++slot) {
    ELSC_VERIFY_MSG(KeyAt(slot) == kSentinelKey &&
                        groups_[slot / kLanes].task[slot % kLanes] == nullptr,
                    "scan mirror padding slot is not a sentinel");
  }
  size_t count = 0;
  size_t flagged = 0;
  int64_t prev_stamp = front_stamp_ - 1;  // Strictly below every live stamp.
  for (const ListHead* node = runqueue_head_.next; node != &runqueue_head_; node = node->next) {
    ELSC_VERIFY(node->next->prev == node);
    ELSC_VERIFY(node->prev->next == node);
    const Task* p = ListEntry<Task, &Task::run_list>(const_cast<ListHead*>(node));
    // A task that just marked itself INTERRUPTIBLE stays on the queue until
    // its own schedule() call removes it (it still has the CPU meanwhile) —
    // exactly the kernel's window between set_current_state and schedule().
    ELSC_VERIFY_MSG(p->state == TaskState::kRunning || p->has_cpu != 0,
                   "non-runnable task on run queue");
    const auto slot = static_cast<size_t>(p->scan_slot);
    ELSC_VERIFY_MSG(p->scan_slot >= 0 && slot < nr_running_ &&
                        groups_[slot / kLanes].task[slot % kLanes] == p,
                    "scan mirror out of sync with run queue list");
    const int64_t stamp = groups_[slot / kLanes].stamp[slot % kLanes];
    ELSC_VERIFY_MSG(stamp > prev_stamp, "scan mirror stamps not increasing in list order");
    prev_stamp = stamp;
    if (IsFlagged(slot)) {
      ELSC_VERIFY_MSG(KeyAt(slot) == kSentinelKey, "scan mirror flagged slot is not a sentinel");
      ELSC_VERIFY_MSG(std::count(flagged_.begin(), flagged_.end(), p) == 1,
                      "scan mirror flagged list out of sync with flagged slots");
      ++flagged;
    } else {
      ELSC_VERIFY_MSG(p->has_cpu == 0, "scan mirror: unflagged task is on a CPU");
      ELSC_VERIFY_MSG(KeyAt(slot) == KeyOf(*p),
                      "scan mirror key stale: queued off-CPU task changed without a re-file");
    }
    ++count;
    // Bounded by nr_running, not by all_tasks_: every CPU can have an
    // exiting task, already gone from all_tasks_, queued until its last
    // schedule() removes it.
    ELSC_VERIFY_MSG(count <= nr_running_ + 1, "run queue list is corrupt (cycle?)");
  }
  ELSC_VERIFY_MSG(count == nr_running_, "nr_running out of sync with run queue length");
  ELSC_VERIFY_MSG(flagged_.size() == flagged,
                  "scan mirror flagged list out of sync with flagged slots");
}

}  // namespace elsc
