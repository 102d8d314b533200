#include "src/sched/linux_scheduler.h"

#include <cstdint>
#include <limits>

#include "src/base/assert.h"
#include "src/kernel/policy.h"
#include "src/base/string_util.h"
#include "src/sched/goodness.h"

namespace elsc {
namespace {

// Packed scan key: goodness in the high bits, list order below it. Any
// goodness times 2^48 plus an order offset in [0, 2^48) orders exactly as
// the pair (goodness, -stamp), so one signed compare replaces two. Stamps
// must stay within +-2^47 (minting verifies it; that is 10^14 queue
// operations) and goodness within +-2^15 to fit 64 bits (FillKey keeps the
// base weight within +-2^14, leaving room for the bonuses).
constexpr int kKeyOrderBits = 48;
constexpr int64_t kStampLimit = int64_t{1} << (kKeyOrderBits - 1);
constexpr long kWeightLimit = long{1} << 14;

int64_t PackKey(long goodness, int64_t stamp) {
  return goodness * (int64_t{1} << kKeyOrderBits) + (kStampLimit - stamp);
}

}  // namespace

void LinuxScheduler::FillKey(ScanEntry& e) {
  // goodness() without its dynamic bonuses, branch for branch.
  const Task& p = *e.task;
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
                  "goodness outside the scan key's packed range");
  ELSC_VERIFY_MSG(p.processor >= 0 && p.processor <= std::numeric_limits<int16_t>::max(),
                  "processor outside the scan key's range");
  e.mm = p.mm;
  e.weight = static_cast<int32_t>(weight);
  e.processor = static_cast<int16_t>(p.processor);
  e.bonus = bonus ? 1 : 0;
}

int64_t LinuxScheduler::NextFrontStamp() {
  ELSC_VERIFY_MSG(front_stamp_ > -kStampLimit + 1, "scan stamps outside the packed range");
  return --front_stamp_;
}

int64_t LinuxScheduler::NextBackStamp() {
  ELSC_VERIFY_MSG(back_stamp_ < kStampLimit - 1, "scan stamps outside the packed range");
  return ++back_stamp_;
}

void LinuxScheduler::AddToRunQueue(Task* task) {
  ELSC_VERIFY_MSG(!task->OnRunQueue(), "add_to_runqueue: task already on run queue");
  // Newly created or awakened tasks go to the *front* of the run queue
  // (paper §3.2): list_add(&p->run_list, &runqueue_head).
  ListAdd(&task->run_list, &runqueue_head_);
  ++nr_running_;
  ++stats_.wakeups;
  task->scan_slot = static_cast<int>(scan_.size());
  ScanEntry& e = scan_.emplace_back();
  e.task = task;
  e.stamp = NextFrontStamp();
  // A task woken while its last schedule() is still in flight keeps the CPU
  // until the context switch; it may change again before then.
  e.maybe_on_cpu = task->has_cpu != 0 ? 1 : 0;
  FillKey(e);
}

void LinuxScheduler::DelFromRunQueue(Task* task) {
  ELSC_VERIFY_MSG(task->OnRunQueue(), "del_from_runqueue: task not on run queue");
  --nr_running_;
  ListDel(&task->run_list);
  // The kernel marks "off the run queue" by nulling only the next pointer.
  task->run_list.next = nullptr;
  task->run_list.prev = nullptr;
  // Swap-pop the mirror slot; the moved entry keeps its stamp.
  const size_t slot = static_cast<size_t>(task->scan_slot);
  scan_[slot] = scan_.back();
  scan_[slot].task->scan_slot = static_cast<int>(slot);
  scan_.pop_back();
  task->scan_slot = -1;
}

void LinuxScheduler::MoveFirstRunQueue(Task* task) {
  ELSC_VERIFY(task->OnRunQueue());
  ListMove(&task->run_list, &runqueue_head_);
  scan_[task->scan_slot].stamp = NextFrontStamp();
}

void LinuxScheduler::MoveLastRunQueue(Task* task) {
  ELSC_VERIFY(task->OnRunQueue());
  ListMoveTail(&task->run_list, &runqueue_head_);
  scan_[task->scan_slot].stamp = NextBackStamp();
}

void LinuxScheduler::RecalculateCounters() {
  // for_each_task(p): p->counter = (p->counter >> 1) + p->priority. Touches
  // every task in the system, runnable or not (paper §3.3.2). Queued tasks
  // are re-keyed on the way past; a queued task outside all_tasks_ (exiting,
  // its last schedule() in flight) keeps its counter and so its key.
  all_tasks_->ForEach([this](Task* p) {
    p->counter = (p->counter >> 1) + p->priority;
    if (p->scan_slot >= 0) {
      FillKey(scan_[static_cast<size_t>(p->scan_slot)]);
    }
  });
}

Task* LinuxScheduler::Schedule(int this_cpu, Task* prev, CostMeter& meter) {
  meter.ChargeEntry();
  meter.ChargeLock();

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
    // The walk runs over the dense mirror instead of the list, and adds the
    // dynamic bonuses to each entry's cached base weight instead of loading
    // the task — host-time only. Equivalence with the list walk: the kernel
    // loop keeps the *first* task in list order whose goodness strictly
    // exceeds everything before it (ties lose to the earlier task and to
    // prev's seed value `c`). Mirror stamps strictly increase front-to-back,
    // so that task is exactly the one with the greatest packed (goodness,
    // -stamp) key over the same examined set; comparing its goodness against
    // `c` with strict > once at the end preserves prev's tie win. An
    // unflagged entry's task has has_cpu == 0 and its cached fields equal
    // the task's (CheckInvariants() verifies both), so the examined set —
    // every queued task with has_cpu == 0 — the charged examines and each
    // goodness value are identical.
    //
    // FillKey() keeps processors non-negative, so -1 turns affinity off.
    const int affinity_cpu = config_.smp ? this_cpu : -1;
    const ScanEntry* best = nullptr;
    int64_t best_key = std::numeric_limits<int64_t>::min();
    size_t on_cpu = 0;
    for (ScanEntry& e : scan_) {
      if (__builtin_expect(e.maybe_on_cpu != 0, 0)) {
        if (!CanSchedule(*e.task)) {
          ++on_cpu;
          continue;
        }
        FillKey(e);
        e.maybe_on_cpu = 0;
      }
      // Both bonuses, masked off when they do not apply: no branch.
      const long bonuses = (e.processor == affinity_cpu ? kProcChangePenalty : 0) +
                           ((e.mm == this_mm) | (e.mm == nullptr) ? kSameMmBonus : 0);
      const int64_t key = PackKey(e.weight + (bonuses & -static_cast<long>(e.bonus)), e.stamp);
      if (key > best_key) {
        best_key = key;
        best = &e;
      }
    }
    meter.ChargeExamine(scan_.size() - on_cpu);
    if (best != nullptr) {
      const long cand_w = static_cast<long>(best_key >> kKeyOrderBits);
      if (cand_w > c) {
        c = cand_w;
        next = best->task;
      }
    }

    // Do we need to re-calculate counters? c == 0 means a runnable task was
    // found but every candidate's quantum is exhausted (or the yielded prev
    // was the only choice). An *empty* run queue leaves c at -1000 and
    // schedules the idle task instead (paper footnote 1).
    if (c == 0) {
      meter.ChargeRecalc(all_tasks_->size());
      RecalculateCounters();
      continue;
    }

    meter.ChargeFinish();
    // The pick takes a CPU; the Machine sets has_cpu and processor next.
    FlagMaybeOnCpu(next);
    RecordPick(this_cpu, prev, next, meter);
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
  // mirror must contain exactly the list's members, each task's scan_slot
  // must point at its own entry, stamps must strictly increase along the
  // list front-to-back and stay in the packed range, and every entry not
  // flagged maybe_on_cpu must be off-CPU with a key that matches its task
  // (the properties the Schedule() equivalence relies on).
  size_t count = 0;
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
    ELSC_VERIFY_MSG(p->scan_slot >= 0 && static_cast<size_t>(p->scan_slot) < scan_.size() &&
                        scan_[p->scan_slot].task == p,
                    "scan mirror out of sync with run queue list");
    const ScanEntry& e = scan_[static_cast<size_t>(p->scan_slot)];
    ELSC_VERIFY_MSG(e.stamp > prev_stamp, "scan mirror stamps not increasing in list order");
    ELSC_VERIFY_MSG(e.stamp > -kStampLimit && e.stamp < kStampLimit,
                    "scan stamps outside the packed range");
    prev_stamp = e.stamp;
    if (e.maybe_on_cpu == 0) {
      ELSC_VERIFY_MSG(p->has_cpu == 0, "scan mirror: unflagged task is on a CPU");
      ScanEntry fresh = e;
      FillKey(fresh);
      ELSC_VERIFY_MSG(fresh.weight == e.weight && fresh.bonus == e.bonus &&
                          fresh.processor == e.processor && fresh.mm == e.mm,
                      "scan mirror key stale: queued off-CPU task changed without a re-file");
    }
    ++count;
    ELSC_VERIFY_MSG(count <= all_tasks_->size() + 1, "run queue list is corrupt (cycle?)");
  }
  ELSC_VERIFY_MSG(count == nr_running_, "nr_running out of sync with run queue length");
  ELSC_VERIFY_MSG(scan_.size() == count, "scan mirror size out of sync with run queue length");
}

}  // namespace elsc
