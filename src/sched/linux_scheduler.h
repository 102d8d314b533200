// The stock Linux 2.3.99-pre4 scheduler (paper §3), ported from
// kernel/sched.c to the simulation's Scheduler interface.
//
// The run queue is a single circular doubly-linked list of all TASK_RUNNING
// tasks, kept in no particular order; newly woken tasks are added at the
// front. schedule() evaluates goodness() for every task on the queue that is
// not currently executing on a processor and picks the maximum; when no task
// has goodness greater than zero (all runnable quanta exhausted, or the
// previous task yielded and nothing else is schedulable), it recalculates the
// counter of every task in the system and searches again. This linear,
// redundant evaluation is the scalability problem the paper attacks, and the
// simulation charges it in full: every examined task costs simulated cycles.

#ifndef SRC_SCHED_LINUX_SCHEDULER_H_
#define SRC_SCHED_LINUX_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "src/base/intrusive_list.h"
#include "src/sched/scheduler.h"

namespace elsc {

class LinuxScheduler : public Scheduler {
 public:
  LinuxScheduler(const CostModel& cost_model, TaskList* all_tasks, const SchedulerConfig& config)
      : Scheduler(cost_model, all_tasks, config) {
    InitListHead(&runqueue_head_);
  }

  const char* name() const override { return "linux-2.3.99"; }

  void AddToRunQueue(Task* task) override;
  void DelFromRunQueue(Task* task) override;
  void MoveFirstRunQueue(Task* task) override;
  void MoveLastRunQueue(Task* task) override;

  Task* Schedule(int this_cpu, Task* prev, CostMeter& meter) override;

  void CheckInvariants() const override;

  // Figure 1a: the single circular list, front to back, with each task's
  // static goodness.
  std::string DebugString() const override;

  // Test/diagnostic access: front-to-back snapshot of the queue.
  std::vector<const Task*> QueueSnapshot() const;

 private:
  // Recalculates every task's counter: p->counter = p->counter/2 + priority.
  void RecalculateCounters();

  // can_schedule(): a task already executing on a processor cannot be picked.
  // (The previous task keeps has_cpu == 1 while schedule() runs, so the
  // search loop never re-evaluates it; it is handled via prev_goodness().)
  static bool CanSchedule(const Task& p) { return p.has_cpu == 0; }

  ListHead runqueue_head_;

  // Dense mirror of the run queue, used only by the Schedule() scan. The
  // circular list above stays authoritative (kernel parity, snapshots,
  // invariants); the mirror lets the O(n) goodness scan read one contiguous
  // array instead of chasing list nodes and loading every candidate's
  // task_struct. Host-time only: the examine count, the recalculations and
  // the picked task are provably identical to the list walk (see the
  // equivalence argument in Schedule()).
  //
  // Each entry caches the task-only part of goodness(): the base weight
  // (counter + priority, 0 when the quantum is exhausted, 1000 + rt_priority
  // for real-time tasks, -1 after a yield), whether the affinity and
  // same-mm bonuses apply, and the `processor` and `mm` those bonuses
  // compare. The scan adds the bonuses for the deciding CPU without touching
  // the Task. The cache is exact by the calling convention in scheduler.h: a
  // queued task that is not on a CPU changes counter, priority, policy or mm
  // only through a Del+Add re-file or a counter recalculation, both of which
  // re-key it. Everything else, `processor` included, happens while the
  // task holds a CPU, and such entries carry `maybe_on_cpu`: set on the
  // picked task, on `prev` at Schedule() entry, and on a task added while it
  // still has the CPU. The scan reads the Task only for flagged entries: it
  // skips them while has_cpu is set, and re-keys and unflags them once they
  // are off the CPU. So a pick touches about one task_struct per CPU, not
  // one per runnable task.
  //
  // `stamp` reproduces list order without ever shifting the array: stamps
  // strictly increase from list front to list back (front inserts take
  // --front_stamp_, tail moves take ++back_stamp_), so "first task with the
  // strictly greatest goodness in list order" equals "task with the greatest
  // packed key (goodness, -stamp)". CheckInvariants() verifies mirror
  // membership, stamp order and range, and every unflagged key against the
  // list and the tasks.
  struct ScanEntry {
    Task* task;
    const MmStruct* mm;    // task->mm when keyed.
    int64_t stamp;
    int32_t weight;        // Base weight, without the dynamic bonuses.
    int16_t processor;     // task->processor when keyed.
    uint8_t bonus;         // 1 when the affinity and same-mm bonuses apply.
    uint8_t maybe_on_cpu;  // 1 when the Task may have changed since keying.
  };
  static_assert(sizeof(ScanEntry) <= 32, "two scan entries per cache line");

  // Fills e's cached goodness fields from *e.task; leaves stamp and flag.
  static void FillKey(ScanEntry& e);
  // Mint the stamps for a front insert and a tail move.
  int64_t NextFrontStamp();
  int64_t NextBackStamp();
  // Marks `task`'s entry, if it is queued, as possibly stale.
  void FlagMaybeOnCpu(const Task* task) {
    if (task != nullptr && task->scan_slot >= 0) {
      scan_[static_cast<size_t>(task->scan_slot)].maybe_on_cpu = 1;
    }
  }

  std::vector<ScanEntry> scan_;
  int64_t front_stamp_ = 0;  // Last stamp minted for a front insert.
  int64_t back_stamp_ = 0;   // Last stamp minted for a tail move.
};

}  // namespace elsc

#endif  // SRC_SCHED_LINUX_SCHEDULER_H_
