// The dispatch framework's contract, checked from outside on every backend.
//
// A counting forwarding Scheduler sits between the Machine and the scheduler
// under test (installed through MachineConfig::scheduler_factory) and counts
// what the Machine asked for. After every call it checks that the run-queue
// count says exactly what the calls did; at the end of the run, that the
// pick and wakeup counters and the cost sums equal what the calls and their
// CostMeters carried. The five built-in backends and a stride scheduler
// written only against PolicyScheduler's hooks all run one chaos mix at UP,
// 2P and 4P under the strict auditor, with invariant checks after every
// scheduler operation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/api/simulation.h"
#include "src/base/assert.h"
#include "src/base/string_util.h"
#include "src/kernel/policy.h"
#include "src/sched/factory.h"
#include "src/sched/scheduler.h"

namespace elsc {
namespace {

// What the Machine asked of the scheduler, and what the CostMeters carried.
struct Tally {
  uint64_t adds = 0;
  uint64_t dels = 0;  // DelFromRunQueue calls plus prevs a Schedule() dropped.
  uint64_t schedules = 0;
  uint64_t examined = 0;
  uint64_t recalc_entries = 0;
  uint64_t recalc_tasks = 0;
  Cycles cycles = 0;
  uint64_t nr_running_mismatches = 0;
  std::string first_mismatch;
};

// SchedStats is a flat block of 64-bit counters: fold it word by word, so a
// counter added later is folded too.
constexpr size_t kStatWords = sizeof(SchedStats) / sizeof(uint64_t);
static_assert(sizeof(SchedStats) == kStatWords * sizeof(uint64_t) &&
              std::is_trivially_copyable_v<SchedStats>);

// Forwards every call to `inner`. The Machine reads nr_running() and writes
// its own counters (lock waits, IPIs) through this object; after each call
// the wrapper mirrors nr_running and folds the inner counters' growth into
// its stats, so stats() reads as the bare scheduler's would.
class CountingScheduler final : public Scheduler {
 public:
  CountingScheduler(const CostModel& cost_model, TaskList* all_tasks,
                    const SchedulerConfig& config, std::unique_ptr<Scheduler> inner, Tally* tally)
      : Scheduler(cost_model, all_tasks, config), inner_(std::move(inner)), tally_(tally) {}

  const char* name() const override { return inner_->name(); }
  bool uses_global_lock() const override { return inner_->uses_global_lock(); }

  void AddToRunQueue(Task* task) override {
    inner_->AddToRunQueue(task);
    ++tally_->adds;
    Sync("AddToRunQueue");
  }
  void DelFromRunQueue(Task* task) override {
    inner_->DelFromRunQueue(task);
    ++tally_->dels;
    Sync("DelFromRunQueue");
  }
  void MoveFirstRunQueue(Task* task) override {
    inner_->MoveFirstRunQueue(task);
    Sync("MoveFirstRunQueue");
  }
  void MoveLastRunQueue(Task* task) override {
    inner_->MoveLastRunQueue(task);
    Sync("MoveLastRunQueue");
  }
  Task* Schedule(int this_cpu, Task* prev, CostMeter& meter) override {
    const bool prev_queued = prev != nullptr && prev->OnRunQueue();
    Task* next = inner_->Schedule(this_cpu, prev, meter);
    ++tally_->schedules;
    if (prev_queued && !prev->OnRunQueue()) {
      ++tally_->dels;  // A prev that stopped being runnable left the queue.
    }
    tally_->examined += meter.tasks_examined();
    tally_->recalc_entries += meter.recalc_entries();
    tally_->recalc_tasks += meter.recalc_tasks();
    tally_->cycles += meter.cycles();
    Sync("Schedule");
    return next;
  }
  long PreemptionDelta(const Task& candidate, const Task& running, int cpu) const override {
    return inner_->PreemptionDelta(candidate, running, cpu);
  }

  void CheckInvariants() const override { inner_->CheckInvariants(); }
  std::string DebugString() const override { return inner_->DebugString(); }

 private:
  void Sync(const char* call) {
    nr_running_ = inner_->nr_running();
    if (nr_running_ != tally_->adds - tally_->dels && tally_->nr_running_mismatches++ == 0) {
      tally_->first_mismatch = StrFormat("after %s #%llu: nr_running %zu, adds - dels %llu", call,
                                         (unsigned long long)(tally_->adds + tally_->dels),
                                         nr_running_,
                                         (unsigned long long)(tally_->adds - tally_->dels));
    }
    uint64_t outer[kStatWords];
    uint64_t now[kStatWords];
    uint64_t seen[kStatWords];
    std::memcpy(outer, &stats_, sizeof(outer));
    std::memcpy(now, &inner_->stats(), sizeof(now));
    std::memcpy(seen, &inner_seen_, sizeof(seen));
    for (size_t i = 0; i < kStatWords; ++i) {
      outer[i] += now[i] - seen[i];
    }
    std::memcpy(&stats_, outer, sizeof(outer));
    inner_seen_ = inner_->stats();
  }

  std::unique_ptr<Scheduler> inner_;
  Tally* tally_;
  SchedStats inner_seen_;  // Inner counters already folded into stats_.
};

// Stride scheduling (Waldspurger and Weihl): a task holds tickets, here its
// priority, and its stride is kStride1 / tickets. The queued task with the
// smallest pass runs next, and each dispatch advances its pass by one
// stride, so CPU share follows tickets. Real-time tasks run first, highest
// rt_priority first. Written only against PolicyScheduler's hooks: the
// framework keeps nr_running, the wakeup count and the cost bracket.
class StrideScheduler final : public PolicyScheduler<StrideScheduler> {
 public:
  using PolicyScheduler::PolicyScheduler;

  const char* name() const override { return "stride"; }

  void CheckInvariants() const override {
    ELSC_VERIFY_MSG(queue_.size() == nr_running_, "stride queue out of sync with nr_running");
    for (const Task* t : queue_) {
      ELSC_VERIFY_MSG(t->OnRunQueue(), "stride queue holds a task off the run queue");
    }
  }

 private:
  friend class PolicyScheduler<StrideScheduler>;

  static constexpr uint64_t kStride1 = uint64_t{1} << 20;

  static uint64_t StrideOf(const Task& t) {
    return kStride1 / static_cast<uint64_t>(std::max(t.priority, 1L));
  }

  // Whether `a` runs before `b`.
  bool Before(const Task& a, const Task& b) const {
    if (a.IsRealtime() != b.IsRealtime()) {
      return a.IsRealtime();
    }
    if (a.IsRealtime()) {
      return a.rt_priority > b.rt_priority;
    }
    return pass_.at(&a) < pass_.at(&b);
  }

  void Enqueue(Task* task) {
    MarkQueued(task);
    queue_.push_back(task);
    // A joining task starts no earlier than the current pass, so it cannot
    // bank credit while it sleeps.
    uint64_t& pass = pass_[task];
    pass = std::max(pass, global_pass_);
  }

  void Dequeue(Task* task) { queue_.erase(std::find(queue_.begin(), queue_.end(), task)); }

  Task* PickNext(int this_cpu, Task* prev, CostMeter& meter) {
    (void)this_cpu;
    if (prev != nullptr) {
      if (prev->HasYielded()) {
        prev->policy &= ~kSchedYield;
        pass_[prev] += StrideOf(*prev);  // A yield gives up one turn.
      }
      if (prev->state != TaskState::kRunning && prev->OnRunQueue()) {
        DelFromRunQueue(prev);
      }
    }
    Task* best = nullptr;
    for (Task* t : queue_) {
      if (t->has_cpu != 0 && t != prev) {
        continue;  // Running on another CPU.
      }
      meter.ChargeExamine();
      if (best == nullptr || Before(*t, *best)) {
        best = t;
      }
    }
    if (best == nullptr) {
      return nullptr;
    }
    if (best->counter == 0) {
      best->counter = best->priority;  // A fresh quantum for each turn.
    }
    if (!best->IsRealtime()) {
      uint64_t& pass = pass_[best];
      global_pass_ = std::max(global_pass_, pass);
      pass += StrideOf(*best);
    }
    return best;
  }

  std::vector<Task*> queue_;  // Every queued task, running ones included.
  std::unordered_map<const Task*, uint64_t> pass_;
  uint64_t global_pass_ = 0;  // The largest pass dispatched so far.
};

using InnerFactory = std::function<std::unique_ptr<Scheduler>(const CostModel&, TaskList*,
                                                              const SchedulerConfig&)>;

struct Backend {
  std::string name;
  InnerFactory make;
};

std::vector<Backend> Backends() {
  std::vector<Backend> backends;
  for (SchedulerKind kind : AllSchedulerKinds()) {
    backends.push_back({SchedulerKindName(kind), [kind](const CostModel& cost_model,
                                                        TaskList* tasks,
                                                        const SchedulerConfig& config) {
                          return MakeScheduler(kind, cost_model, tasks, config);
                        }});
  }
  backends.push_back({"stride", [](const CostModel& cost_model, TaskList* tasks,
                                   const SchedulerConfig& config) -> std::unique_ptr<Scheduler> {
                        return std::make_unique<StrideScheduler>(cost_model, tasks, config);
                      }});
  return backends;
}

struct ContractCase {
  Backend backend;
  KernelConfig kernel;
  const char* kernel_name;
};

std::vector<ContractCase> ContractCases() {
  std::vector<ContractCase> cases;
  for (const Backend& backend : Backends()) {
    cases.push_back({backend, KernelConfig::kUp, "UP"});
    cases.push_back({backend, KernelConfig::kSmp2, "2P"});
    cases.push_back({backend, KernelConfig::kSmp4, "4P"});
  }
  return cases;
}

class PolicyContractTest : public ::testing::TestWithParam<ContractCase> {};

INSTANTIATE_TEST_SUITE_P(AllBackends, PolicyContractTest, ::testing::ValuesIn(ContractCases()),
                         [](const auto& info) {
                           return info.param.backend.name + "_" + info.param.kernel_name;
                         });

TEST_P(PolicyContractTest, CountersMatchTheCallsOnAChaosMix) {
  const ContractCase& c = GetParam();
  constexpr uint64_t kSeed = 11;
  Tally tally;
  MachineConfig config = MakeMachineConfig(c.kernel, SchedulerKind::kLinux, kSeed);
  config.check_invariants = true;
  config.scheduler_factory = [&tally, make = c.backend.make](const CostModel& cost_model,
                                                             TaskList* tasks,
                                                             const SchedulerConfig& sched) {
    return std::make_unique<CountingScheduler>(cost_model, tasks, sched,
                                               make(cost_model, tasks, sched), &tally);
  };
  ChaosMixConfig mix;
  mix.seed = kSeed;
  mix.spinners = 10;
  mix.interactive = 8;
  mix.rt_tasks = 2;
  // Every injector of FullChaosPlan, on a timeline compressed to fit a run
  // of about a tenth of a simulated second.
  ChaosOptions chaos;
  chaos.faults = FullChaosPlan(kSeed);
  chaos.faults.timer_period = MsToCycles(3);
  chaos.faults.fork_storm_period = MsToCycles(10);
  chaos.faults.spurious_wake_period = MsToCycles(2);
  chaos.faults.cpu_stall_period = MsToCycles(12);
  chaos.faults.cpu_stall_duration = MsToCycles(3);
  chaos.faults.lock_stall_period = MsToCycles(4);
  chaos.audit = StrictAudit();

  const ChaosMixRun run = RunChaosMix(config, mix, SecToCycles(120), chaos);
  EXPECT_TRUE(run.result.completed);
  EXPECT_FALSE(run.stats.failed) << run.stats.failure;
  EXPECT_EQ(run.stats.audit.violations(), 0u)
      << "conservation=" << run.stats.audit.conservation_violations
      << " counter=" << run.stats.audit.counter_violations
      << " structure=" << run.stats.audit.structure_violations
      << " table=" << run.stats.audit.table_violations
      << " ordering=" << run.stats.audit.ordering_violations;
  EXPECT_EQ(run.stats.audit.watchdog_firings(), 0u);

  // The run exercised every call and the injectors.
  EXPECT_GT(run.stats.faults.cpu_stalls, 0u);
  EXPECT_GT(run.stats.faults.storm_bursts, 0u);
  EXPECT_GT(run.stats.faults.spurious_wakes, 0u);
  EXPECT_GT(run.stats.faults.lock_stalls, 0u);
  EXPECT_GT(tally.adds, 0u);
  EXPECT_GT(tally.dels, 0u);
  EXPECT_GT(tally.schedules, 0u);
  EXPECT_EQ(tally.nr_running_mismatches, 0u) << tally.first_mismatch;

  const SchedStats& s = run.stats.sched;
  EXPECT_EQ(s.schedule_calls, tally.schedules);
  EXPECT_EQ(s.wakeups, tally.adds);
  EXPECT_EQ(s.tasks_examined, tally.examined);
  EXPECT_EQ(s.recalc_entries, tally.recalc_entries);
  EXPECT_EQ(s.recalc_tasks_touched, tally.recalc_tasks);
  EXPECT_EQ(s.cycles_in_schedule, tally.cycles);
}

// The wrapper is transparent: a built-in backend behind it produces the same
// digest as the bare backend, so the counts above describe the real run.
TEST(PolicyContractWrapperTest, WrappedRunDigestEqualsBareRun) {
  for (SchedulerKind kind : AllSchedulerKinds()) {
    SCOPED_TRACE(SchedulerKindName(kind));
    ChaosMixConfig mix;
    mix.seed = 5;
    const MachineConfig bare = MakeMachineConfig(KernelConfig::kSmp2, kind, 5);
    Tally tally;
    MachineConfig wrapped = bare;
    wrapped.scheduler_factory = [&tally, kind](const CostModel& cost_model, TaskList* tasks,
                                               const SchedulerConfig& sched) {
      return std::make_unique<CountingScheduler>(
          cost_model, tasks, sched, MakeScheduler(kind, cost_model, tasks, sched), &tally);
    };
    const ChaosMixRun expected = RunChaosMix(bare, mix, SecToCycles(60));
    const ChaosMixRun actual = RunChaosMix(wrapped, mix, SecToCycles(60));
    EXPECT_EQ(RunStatsDigest(actual.stats), RunStatsDigest(expected.stats));
  }
}

}  // namespace
}  // namespace elsc
