// The scheduler interface, and the framework the built-in schedulers share.
//
// Scheduler mirrors the kernel's contract (paper §5.1): four run-queue
// manipulation functions plus schedule() itself, which is the only function
// allowed to manipulate the run queue directly in any other way. The Machine
// sees nothing else, so any implementation plugs in through
// MachineConfig::scheduler_factory.
//
// What the Machine guarantees every Scheduler:
//  * The previous task still has has_cpu == 1 while Schedule() runs (it is
//    cleared by the Machine during the context switch), so SMP search loops
//    naturally skip tasks executing elsewhere — including prev itself.
//  * A queued task that is not on a CPU (has_cpu == 0) changes counter,
//    priority, policy or mm only through a DelFromRunQueue + AddToRunQueue
//    re-file or the scheduler's own counter recalculation; all other writes
//    land while the task holds a CPU. Sorted or cached run-queue structures
//    rely on this (the ELSC table's sort, the stock scheduler's goodness
//    keys). The Machine upholds it: SetTaskPriority and SetTaskPolicy
//    re-file a waiting task, timer ticks skip CPUs whose schedule() is in
//    flight (schedule_pending), and fork runs only from the running parent.
//  * AddToRunQueue() is called only for a task off the run queue, and
//    DelFromRunQueue() only for a task on it (Task::OnRunQueue()).
//
// What every Scheduler owes the Machine:
//  * Schedule() must return the next task to run, or nullptr to schedule the
//    CPU's idle task. It may return prev.
//  * Schedule() charges its simulated cost to the CostMeter; the Machine
//    turns that into simulated time and run-queue-lock occupancy — the one
//    global runqueue_lock for global-lock schedulers, or this CPU's own lock
//    (plus any remote locks reported via ChargeRemoteLock) for per-CPU-queue
//    schedulers.
//  * nr_running() is the number of tasks on the run queue, and stats()
//    carries the pick and wakeup counters the reports and digests read.
//
// PolicyScheduler<Backend> keeps that second list once for every built-in
// backend, so a backend is only its policy: its run-queue structure behind
// three private hooks, Enqueue(task) (queue), Dequeue(task) (unqueue) and
// PickNext(this_cpu, prev, meter) (pick). What it guarantees the hooks:
//  * Enqueue() gets only a task off the run queue and must leave it on
//    (checked); Dequeue() gets only a task on it, and the framework then
//    clears the on-queue marker. Both see nr_running_ as it was before the
//    call. Only AddToRunQueue() and DelFromRunQueue() count nr_running_ and
//    wakeups, so a move between a backend's own queues (a steal, a pull)
//    goes through the backend's own helpers.
//  * PickNext() runs after the entry and lock charges and before the finish
//    charge and RecordPick(), whichever way it returns. It handles prev
//    (re-filing it, or dropping it through DelFromRunQueue()) and charges
//    its own search.
//  * RecalculateCounters() charges and runs the whole-system counter
//    recalculation; MoveFirstRunQueue()/MoveLastRunQueue() default to no-ops.

#ifndef SRC_SCHED_SCHEDULER_H_
#define SRC_SCHED_SCHEDULER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/base/assert.h"
#include "src/kernel/task.h"
#include "src/kernel/task_list.h"
#include "src/sched/cost_model.h"
#include "src/sched/sched_stats.h"

namespace elsc {

struct SchedulerConfig {
  int num_cpus = 1;
  // SMP semantics: has_cpu checks, affinity bonus, lock costs. A "UP" kernel
  // build (paper's UP configuration) runs with smp == false; the "1P"
  // configuration is smp == true with num_cpus == 1.
  bool smp = false;
};

class Scheduler {
 public:
  Scheduler(const CostModel& cost_model, TaskList* all_tasks, const SchedulerConfig& config)
      : cost_model_(cost_model), all_tasks_(all_tasks), config_(config),
        cpu_dispatch_seq_(static_cast<size_t>(config.num_cpus), 0) {}

  virtual ~Scheduler() = default;

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  virtual const char* name() const = 0;

  // Whether this scheduler's schedule() path contends on the kernel's single
  // global runqueue_lock (true for everything the paper measures: linux,
  // elsc, heap). Per-CPU-queue designs (multiqueue, o1) return false and use
  // the Machine's *per-CPU* lock model instead: each pick holds only its own
  // CPU's run-queue lock for the pick's duration, and a pick that migrates
  // tasks reports each source CPU through CostMeter::ChargeRemoteLock — the
  // Machine acquires those double-locks in ascending CPU index (the
  // deadlock-avoidance order), charges any residual hold time of a remote
  // holder to this pick, and accounts per-CPU hold/wait cycles in SchedStats
  // (percpu_lock_*) and Machine::cpu_lock().
  virtual bool uses_global_lock() const { return true; }

  // ---- Run-queue manipulation (the four kernel functions, paper §5.1) ----
  virtual void AddToRunQueue(Task* task) = 0;
  virtual void DelFromRunQueue(Task* task) = 0;
  virtual void MoveFirstRunQueue(Task* task) = 0;
  virtual void MoveLastRunQueue(Task* task) = 0;

  // ---- schedule() ----
  // Picks the task to run next on `this_cpu`, replacing `prev` (the task
  // whose context the call runs in; may be the CPU's idle task, passed as
  // nullptr). Returns nullptr for idle.
  virtual Task* Schedule(int this_cpu, Task* prev, CostMeter& meter) = 0;

  // goodness(candidate) - goodness(running) as *this* scheduler would see it;
  // used by the Machine's reschedule_idle() to decide preemption on wakeup.
  virtual long PreemptionDelta(const Task& candidate, const Task& running, int cpu) const;

  // ---- Introspection ----
  size_t nr_running() const { return nr_running_; }
  const SchedStats& stats() const { return stats_; }
  SchedStats& mutable_stats() { return stats_; }
  const CostModel& cost_model() const { return cost_model_; }
  const SchedulerConfig& config() const { return config_; }
  bool smp() const { return config_.smp; }
  int num_cpus() const { return config_.num_cpus; }

  // Validates internal invariants (tests call this after every operation in
  // property sweeps). Aborts on violation.
  virtual void CheckInvariants() const {}

  // Human-readable rendering of the run-queue structure (the paper's
  // Figure 1 shows these for the stock and ELSC schedulers). For debugging
  // and the procfs-style reports.
  virtual std::string DebugString() const { return name(); }

  // How many dispatches CPU `cpu` has performed (grows by one per pick that
  // lands a task there). The gap between this and a task's last_run_stamp
  // measures cache-footprint staleness.
  uint64_t CpuDispatchSeq(int cpu) const {
    return cpu_dispatch_seq_[static_cast<size_t>(cpu)];
  }

 protected:
  // Common post-pick accounting shared by implementations.
  void RecordPick(int this_cpu, const Task* prev, Task* next, const CostMeter& meter);

  size_t nr_running_ = 0;
  CostModel cost_model_;
  TaskList* all_tasks_;
  SchedulerConfig config_;
  SchedStats stats_;
  std::vector<uint64_t> cpu_dispatch_seq_;
};

// The hooks are bound at compile time: a second virtual call per add or
// delete measured ~4 ns slower on micro_sched_ops BM_AddDel/linux. A backend
// befriends PolicyScheduler<Backend>, instantiates it in its own .cc, where
// the hooks inline, and declares that instantiation extern in its header.
template <typename Policy>
class PolicyScheduler : public Scheduler {
 public:
  using Scheduler::Scheduler;

  [[gnu::flatten]] void AddToRunQueue(Task* task) override {
    ELSC_VERIFY_MSG(!task->OnRunQueue(), "add_to_runqueue: task already on run queue");
    policy().Enqueue(task);
    ELSC_VERIFY_MSG(task->OnRunQueue(), "add_to_runqueue: policy left the task off the run queue");
    ++nr_running_;
    ++stats_.wakeups;
  }

  [[gnu::flatten]] void DelFromRunQueue(Task* task) override {
    ELSC_VERIFY_MSG(task->OnRunQueue(), "del_from_runqueue: task not on run queue");
    policy().Dequeue(task);
    // The kernel marks "off the run queue" by nulling the next pointer; the
    // table-based structures also test prev (paper footnote 3), so clear both.
    task->run_list.next = nullptr;
    task->run_list.prev = nullptr;
    --nr_running_;
  }

  void MoveFirstRunQueue(Task* task) override { (void)task; }
  void MoveLastRunQueue(Task* task) override { (void)task; }

  Task* Schedule(int this_cpu, Task* prev, CostMeter& meter) override {
    meter.ChargeEntry();
    meter.ChargeLock();  // The global runqueue_lock, or this CPU's own lock.
    Task* next = policy().PickNext(this_cpu, prev, meter);
    meter.ChargeFinish();
    RecordPick(this_cpu, prev, next, meter);
    return next;
  }

 protected:
  // for_each_task(p): p->counter = (p->counter >> 1) + p->priority, then
  // then(p), charged as one recalculation-loop entry. Touches every task in
  // the system, runnable or not (paper §3.3.2).
  template <typename Then = void (*)(Task*)>
  void RecalculateCounters(CostMeter& meter, Then then = [](Task*) {}) {
    meter.ChargeRecalc(all_tasks_->size());
    all_tasks_->ForEach([&then](Task* p) {
      p->counter = (p->counter >> 1) + p->priority;
      then(p);
    });
  }

  // The CPU whose queue a wakeup joins in a per-CPU-queue design: the task's
  // last processor, or CPU 0 if it has none.
  int HomeCpu(const Task& task) const {
    return task.processor >= 0 && task.processor < config_.num_cpus ? task.processor : 0;
  }

  // The on-queue marker for structures that do not link run_list itself.
  static void MarkQueued(Task* task) {
    task->run_list.next = &task->run_list;
    task->run_list.prev = &task->run_list;
  }

 private:
  Policy& policy() { return static_cast<Policy&>(*this); }
};

}  // namespace elsc

#endif  // SRC_SCHED_SCHEDULER_H_
