// Custom-scheduler example: how to plug your own scheduling policy into the
// simulated kernel.
//
// Implements a deliberately naive FIFO scheduler (ignore goodness entirely;
// run whoever has waited longest) on PolicyScheduler's hooks, then
// races it against the stock and ELSC schedulers on a small VolanoMark run.
// The point: the library's Machine, workloads, and statistics all work with
// any Scheduler implementation — this is the extension surface the paper's
// future-work section invites ("we are also interested in exploring
// alternative scheduler designs").
//
//   $ ./custom_scheduler

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>

#include "src/kernel/policy.h"
#include "src/sched/scheduler.h"
#include "src/smp/machine.h"
#include "src/stats/table.h"
#include "src/workloads/volano.h"

namespace {

// First-in, first-out: tasks run in wake order, full quantum each time.
// Interactive tasks get no preference, so latency suffers — measurably.
//
// A policy is three hooks on PolicyScheduler: queue a task, unqueue a task,
// pick the next one. The framework does the rest of the kernel contract: the
// on-run-queue checks, nr_running, the wakeup count, and schedule()'s cost
// bracket and pick statistics.
class FifoScheduler : public elsc::PolicyScheduler<FifoScheduler> {
 public:
  using PolicyScheduler::PolicyScheduler;

  const char* name() const override { return "naive-fifo"; }

 private:
  friend class elsc::PolicyScheduler<FifoScheduler>;

  void Enqueue(elsc::Task* task) {
    MarkQueued(task);
    queue_.push_back(task);
  }

  void Dequeue(elsc::Task* task) {
    // A running task is on the run queue but not in queue_.
    const auto it = std::find(queue_.begin(), queue_.end(), task);
    if (it != queue_.end()) {
      queue_.erase(it);
    }
  }

  elsc::Task* PickNext(int this_cpu, elsc::Task* prev, elsc::CostMeter& meter) {
    if (prev != nullptr) {
      prev->policy &= ~elsc::kSchedYield;
      if (prev->state == elsc::TaskState::kRunning) {
        if (prev->counter == 0) {
          prev->counter = prev->priority;  // FIFO ignores fairness anyway.
        }
        queue_.push_back(prev);  // Back of the line.
      } else if (prev->OnRunQueue()) {
        DelFromRunQueue(prev);
      }
    }
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      elsc::Task* candidate = *it;
      meter.ChargeExamine();
      if (config_.smp && candidate->has_cpu != 0 && candidate->processor != this_cpu) {
        continue;
      }
      queue_.erase(it);
      return candidate;
    }
    return nullptr;
  }

  std::deque<elsc::Task*> queue_;
};

}  // namespace

int main() {
  std::printf("Racing a custom FIFO scheduler against the built-ins (2 rooms, 2P)...\n\n");

  elsc::TextTable table({"scheduler", "completed", "throughput", "cycles/sched", "wakeups"});

  auto report = [&table](const char* label, elsc::Machine& machine, bool done,
                         const elsc::VolanoWorkload& workload) {
    const elsc::VolanoResult result = workload.Result();
    const elsc::SchedStats& stats = machine.scheduler().stats();
    char tput[32], cps[32], wakeups[32];
    std::snprintf(tput, sizeof(tput), "%.0f", result.throughput);
    std::snprintf(cps, sizeof(cps), "%.0f", stats.CyclesPerSchedule());
    std::snprintf(wakeups, sizeof(wakeups), "%llu", (unsigned long long)stats.wakeups);
    table.AddRow({label, done ? "yes" : "NO", tput, cps, wakeups});
  };

  elsc::VolanoConfig volano;
  volano.rooms = 2;

  // Built-ins, via the factory.
  for (const auto kind : {elsc::SchedulerKind::kLinux, elsc::SchedulerKind::kElsc}) {
    elsc::MachineConfig config;
    config.num_cpus = 2;
    config.smp = true;
    config.scheduler = kind;
    elsc::Machine machine(config);
    elsc::VolanoWorkload workload(machine, volano);
    workload.Setup();
    machine.Start();
    const bool done =
        machine.RunUntil([&workload] { return workload.Done(); }, elsc::SecToCycles(3600));
    report(elsc::SchedulerKindName(kind), machine, done, workload);
  }

  // The custom scheduler, through the Machine's extension seam: set
  // MachineConfig::scheduler_factory and everything else — workloads,
  // statistics, procfs reports — works unchanged.
  {
    elsc::MachineConfig config;
    config.num_cpus = 2;
    config.smp = true;
    config.scheduler_factory = [](const elsc::CostModel& cost_model, elsc::TaskList* tasks,
                                  const elsc::SchedulerConfig& sched_config) {
      return std::make_unique<FifoScheduler>(cost_model, tasks, sched_config);
    };
    elsc::Machine machine(config);
    elsc::VolanoWorkload workload(machine, volano);
    workload.Setup();
    machine.Start();
    const bool done =
        machine.RunUntil([&workload] { return workload.Done(); }, elsc::SecToCycles(3600));
    report(machine.scheduler().name(), machine, done, workload);
  }

  table.Print();
  return 0;
}
