#include "perfbench/timed_layers.h"

#include <utility>

namespace perfbench {

void Tracer::Reset() {
  totals_ = {};
  depth_ = 0;
  Begin();
}

void Tracer::End(Layer layer) {
  const uint64_t end = NowNs();
  ELSC_CHECK_MSG(depth_ > 0, "span end without a begin");
  const Frame frame = frames_[--depth_];
  const uint64_t duration = end - frame.start_ns;
  LayerTotals& totals = totals_[static_cast<size_t>(layer)];
  ++totals.calls;
  totals.total_ns += duration;
  totals.self_ns += duration - frame.child_ns;
  if (depth_ > 0) {
    frames_[depth_ - 1].child_ns += duration;
  }
}

namespace {

// Every SchedStats field; the static_assert below trips when a field is
// added without being listed here.
#define PERFBENCH_SCHED_STATS_FIELDS(X)                                         \
  X(schedule_calls) X(idle_schedules) X(cycles_in_schedule) X(lock_wait_cycles) \
  X(tasks_examined) X(recalc_entries) X(recalc_tasks_touched)                   \
  X(picks_new_processor) X(picks_prev) X(picks_no_affinity) X(yield_reruns)     \
  X(wakeups) X(preemption_ipis) X(percpu_lock_acquisitions)                     \
  X(percpu_lock_contended) X(percpu_lock_hold_cycles)                           \
  X(percpu_lock_wait_cycles) X(double_locks) X(load_balance_calls)              \
  X(pull_migrations) X(array_swaps)

#define PERFBENCH_COUNT_FIELD(field) +1
static_assert(sizeof(elsc::SchedStats) ==
                  (0 PERFBENCH_SCHED_STATS_FIELDS(PERFBENCH_COUNT_FIELD)) * sizeof(uint64_t),
              "SchedStats changed: update PERFBENCH_SCHED_STATS_FIELDS");
#undef PERFBENCH_COUNT_FIELD

}  // namespace

void TimedScheduler::Sync() {
  nr_running_ = inner_->nr_running();
  const elsc::SchedStats& now = inner_->stats();
#define PERFBENCH_FOLD_FIELD(field) stats_.field += now.field - inner_seen_.field;
  PERFBENCH_SCHED_STATS_FIELDS(PERFBENCH_FOLD_FIELD)
#undef PERFBENCH_FOLD_FIELD
  inner_seen_ = now;
}

void TimedScheduler::AddToRunQueue(elsc::Task* task) {
  {
    Span span(*tracer_, Layer::kEnqueue);
    inner_->AddToRunQueue(task);
  }
  Sync();
}

void TimedScheduler::DelFromRunQueue(elsc::Task* task) {
  {
    Span span(*tracer_, Layer::kEnqueue);
    inner_->DelFromRunQueue(task);
  }
  Sync();
}

void TimedScheduler::MoveFirstRunQueue(elsc::Task* task) {
  {
    Span span(*tracer_, Layer::kEnqueue);
    inner_->MoveFirstRunQueue(task);
  }
  Sync();
}

void TimedScheduler::MoveLastRunQueue(elsc::Task* task) {
  {
    Span span(*tracer_, Layer::kEnqueue);
    inner_->MoveLastRunQueue(task);
  }
  Sync();
}

elsc::Task* TimedScheduler::Schedule(int this_cpu, elsc::Task* prev, elsc::CostMeter& meter) {
  elsc::Task* next = nullptr;
  {
    Span span(*tracer_, Layer::kPick);
    next = inner_->Schedule(this_cpu, prev, meter);
  }
  Sync();
  return next;
}

long TimedScheduler::PreemptionDelta(const elsc::Task& candidate, const elsc::Task& running,
                                     int cpu) const {
  Span span(*tracer_, Layer::kPreemptCheck);
  return inner_->PreemptionDelta(candidate, running, cpu);
}

decltype(elsc::MachineConfig::scheduler_factory) TimedSchedulerFactory(
    elsc::SchedulerKind kind, const elsc::ElscOptions& elsc_options, Tracer* tracer) {
  return [kind, elsc_options, tracer](const elsc::CostModel& cost_model,
                                      elsc::TaskList* tasks,
                                      const elsc::SchedulerConfig& config) {
    return std::make_unique<TimedScheduler>(
        cost_model, tasks, config,
        elsc::MakeScheduler(kind, cost_model, tasks, config, elsc_options), tracer);
  };
}

elsc::Segment TimedBehavior::NextSegment(elsc::Machine& machine, elsc::Task& task) {
  Span span(*tracer_, Layer::kSegment);
  return inner_->NextSegment(machine, task);
}

void TimedBehavior::OnWoken(elsc::Machine& machine, elsc::Task& task) {
  Span span(*tracer_, Layer::kSegment);
  inner_->OnWoken(machine, task);
}

void TimedBehavior::OnExit(elsc::Machine& machine, elsc::Task& task) {
  Span span(*tracer_, Layer::kSegment);
  inner_->OnExit(machine, task);
}

void BehaviorWrapper::Wrap() {
  const std::vector<elsc::Task*>& tasks = machine_.all_tasks();
  for (; next_ < tasks.size(); ++next_) {
    elsc::Task* task = tasks[next_];
    if (task->behavior == nullptr) {
      continue;
    }
    wrappers_.emplace_back(task->behavior, tracer_);
    task->behavior = &wrappers_.back();
    ++wrapped_;
    if (task->stats.times_scheduled == 0) {
      ++wrapped_before_dispatch_;
    }
  }
}

}  // namespace perfbench
