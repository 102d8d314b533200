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

class LinuxScheduler : public PolicyScheduler<LinuxScheduler> {
 public:
  LinuxScheduler(const CostModel& cost_model, TaskList* all_tasks, const SchedulerConfig& config)
      : PolicyScheduler(cost_model, all_tasks, config) {
    InitListHead(&runqueue_head_);
  }

  const char* name() const override { return "linux-2.3.99"; }

  void MoveFirstRunQueue(Task* task) override;
  void MoveLastRunQueue(Task* task) override;

  void CheckInvariants() const override;

  // Figure 1a: the single circular list, front to back, with each task's
  // static goodness.
  std::string DebugString() const override;

  // Test/diagnostic access: front-to-back snapshot of the queue.
  std::vector<const Task*> QueueSnapshot() const;

 private:
  friend class PolicyScheduler<LinuxScheduler>;
  void Enqueue(Task* task);
  void Dequeue(Task* task);
  Task* PickNext(int this_cpu, Task* prev, CostMeter& meter);

  // can_schedule(): a task already executing on a processor cannot be picked.
  // (The previous task keeps has_cpu == 1 while schedule() runs, so the
  // search loop never re-evaluates it; it is handled via prev_goodness().)
  static bool CanSchedule(const Task& p) { return p.has_cpu == 0; }

  ListHead runqueue_head_;

  // Dense structure-of-arrays mirror of the run queue, used only by the
  // Schedule() scan. The circular list above stays authoritative (kernel
  // parity, snapshots, invariants); the mirror lets the O(n) goodness scan
  // read contiguous int32 lanes, four tasks per vector step, instead of
  // chasing list nodes and loading every candidate's task_struct. Host-time
  // only: the examine count, the recalculations and the picked task are
  // provably identical to the list walk (see the equivalence argument in
  // PickNext()).
  //
  // Slot i < nr_running_ holds one queued task; Task::scan_slot points back
  // at it, and a delete swap-pops the last slot into the hole. A slot is 32
  // bytes in six parallel arrays, stored kLanes slots at a time (SlotGroup):
  // the int32 lanes the scan reads — the task-only part of goodness() as a
  // base weight (counter + priority, 0 when the quantum is exhausted, 1000 +
  // rt_priority for real-time tasks, -1 after a yield), the `processor` the
  // affinity bonus compares and the two halves of the `mm` pointer the
  // same-mm bonus compares — and two cold arrays, the Task* and the 64-bit
  // list-order stamp, read only to break ties. A task the bonuses do not
  // apply to stores processor kNoProcessor and an mm of kNoMm, values no
  // deciding CPU and no address space can have, so the scan adds both
  // bonuses to every lane without a per-entry flag. A task without an mm (a
  // kernel thread) earns the same-mm bonus on every CPU: its base weight
  // includes the bonus and its mm is kNoMm, so the scan compares the mm
  // halves only against the deciding CPU's mm.
  //
  // The cache is exact by the calling convention in scheduler.h: a queued
  // task that is not on a CPU changes counter, priority, policy or mm only
  // through a Del+Add re-file or a counter recalculation, both of which
  // re-key it. Everything else, `processor` included, happens while the task
  // holds a CPU. Such tasks are flagged: the picked task, `prev` at
  // Schedule() entry, and a task added while it still has the CPU. A flagged
  // slot holds the sentinel key (weight kSentinelWeight, processor
  // kNoProcessor, mm kNoMm), which can never reach the maximum while a real
  // entry exists, and its task sits in the small side list flagged_ (about
  // one per CPU). Schedule() walks that list first: it counts the tasks still
  // on a CPU, and re-keys and unflags the rest. So a pick touches about one
  // task_struct per CPU, not one per runnable task.
  //
  // The last group is padded with sentinel slots, and a slot vacated by a
  // delete is reset to the sentinel, so every slot at or past nr_running_ is
  // a sentinel. The scan stops at the last live group, never at the end of
  // the mirror: the queue can grow to thousands of entries at set-up and
  // then stay near a hundred.
  //
  // The stamps reproduce list order without ever moving a slot: stamps
  // strictly increase from list front to list back (front inserts take
  // --front_stamp_, tail moves take ++back_stamp_), so "first task with the
  // strictly greatest goodness in list order" equals "task with the
  // smallest stamp among those with the greatest goodness". CheckInvariants()
  // verifies mirror membership, stamp order, the sentinel padding, the side
  // list against the flagged slots, and every unflagged key against its task.
  friend class LinuxSchedulerMirrorPeer;  // Test-only access to the mirror.

  struct ScanKey {
    int32_t weight;     // Base weight, plus the same-mm bonus without an mm.
    int32_t processor;  // task->processor, or kNoProcessor.
    int32_t mm_lo;      // Low and high halves of task->mm, or kNoMm.
    int32_t mm_hi;
    bool operator==(const ScanKey&) const = default;
  };
  static constexpr size_t kLanes = 4;
  static constexpr int32_t kSentinelWeight = -(int32_t{1} << 30);
  static constexpr int32_t kNoProcessor = -2;  // Affinity is off at -1.
  static constexpr int32_t kNoMm = 1;          // No address space lives at 1.
  static constexpr ScanKey kSentinelKey = {kSentinelWeight, kNoProcessor, kNoMm, 0};

  // kLanes consecutive slots: the four lane arrays, which are all the scan
  // reads for most groups, then the cold arrays. One vector of groups keeps
  // the mirror a single block. (Aligning groups to cache lines was measured:
  // no faster, and the over-aligned allocations raised volano_reg_4p's peak
  // RSS by half a MiB.)
  struct SlotGroup {
    int32_t weight[kLanes];
    int32_t processor[kLanes];
    int32_t mm_lo[kLanes];
    int32_t mm_hi[kLanes];
    Task* task[kLanes];
    int64_t stamp[kLanes];
  };
  static_assert(sizeof(SlotGroup) <= kLanes * 32, "a mirror slot stays within 32 bytes");
  static constexpr SlotGroup kSentinelGroup = {
      {kSentinelWeight, kSentinelWeight, kSentinelWeight, kSentinelWeight},
      {kNoProcessor, kNoProcessor, kNoProcessor, kNoProcessor},
      {kNoMm, kNoMm, kNoMm, kNoMm},
      {},
      {},
      {}};

  // goodness() without the bonuses that depend on the deciding CPU, branch
  // for branch.
  static ScanKey KeyOf(const Task& p);
  ScanKey KeyAt(size_t slot) const {
    const SlotGroup& g = groups_[slot / kLanes];
    const size_t j = slot % kLanes;
    return {g.weight[j], g.processor[j], g.mm_lo[j], g.mm_hi[j]};
  }
  void StoreKey(size_t slot, const ScanKey& key) {
    SlotGroup& g = groups_[slot / kLanes];
    const size_t j = slot % kLanes;
    g.weight[j] = key.weight;
    g.processor[j] = key.processor;
    g.mm_lo[j] = key.mm_lo;
    g.mm_hi[j] = key.mm_hi;
  }
  Task*& TaskAt(size_t slot) { return groups_[slot / kLanes].task[slot % kLanes]; }
  int64_t& StampAt(size_t slot) { return groups_[slot / kLanes].stamp[slot % kLanes]; }
  bool IsFlagged(size_t slot) const { return KeyAt(slot).weight == kSentinelWeight; }
  // Flags `task`'s slot, if it is queued, as possibly stale.
  void FlagMaybeOnCpu(Task* task) {
    if (task != nullptr && task->scan_slot >= 0 &&
        !IsFlagged(static_cast<size_t>(task->scan_slot))) {
      StoreKey(static_cast<size_t>(task->scan_slot), kSentinelKey);
      flagged_.push_back(task);
    }
  }

  // Slots [0, nr_running_) are queued tasks; the rest are sentinel padding.
  std::vector<SlotGroup> groups_;
  std::vector<Task*> flagged_;  // Tasks whose slots hold the sentinel key.
  int64_t front_stamp_ = 0;     // Last stamp minted for a front insert.
  int64_t back_stamp_ = 0;      // Last stamp minted for a tail move.
};

extern template class PolicyScheduler<LinuxScheduler>;  // In linux_scheduler.cc.

}  // namespace elsc

#endif  // SRC_SCHED_LINUX_SCHEDULER_H_
