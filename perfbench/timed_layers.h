// Host-time attribution measured from outside the simulator.
//
// The benchmark never edits the program it measures. It times calls into
// each layer's public surface instead:
//
//  * sched     — TimedScheduler, a forwarding Scheduler decorator installed
//                through MachineConfig::scheduler_factory.
//  * workloads — TimedBehavior, a forwarding TaskBehavior swapped onto each
//                Task::behavior as the task appears in Machine::all_tasks().
//  * sim + smp — one span per engine event, closed by the Machine::RunUntil
//                predicate (which the engine calls after every event).
//
// Spans nest (event > behavior callback > scheduler call). A layer's self
// time is its spans' duration minus the time covered by their child spans.
// Only per-layer totals are kept, in memory, and read once the run ends.

#ifndef PERFBENCH_TIMED_LAYERS_H_
#define PERFBENCH_TIMED_LAYERS_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>

#include "src/base/assert.h"
#include "src/kernel/behavior.h"
#include "src/sched/scheduler.h"
#include "src/smp/machine.h"

namespace perfbench {

enum class Layer {
  kEvent,         // One engine event, including the RunUntil predicate.
  kPick,          // Scheduler::Schedule.
  kEnqueue,       // Add/Del/MoveFirst/MoveLast run-queue calls.
  kPreemptCheck,  // Scheduler::PreemptionDelta.
  kSegment,       // TaskBehavior::NextSegment / OnWoken / OnExit.
  kCount,
};

struct LayerTotals {
  uint64_t calls = 0;
  uint64_t total_ns = 0;  // Span durations, children included.
  uint64_t self_ns = 0;   // Span durations minus child spans.
};

// Span accounting for one Machine. Single-threaded, like the Machine.
class Tracer {
 public:
  static uint64_t NowNs() {
    return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                     std::chrono::steady_clock::now().time_since_epoch())
                                     .count());
  }

  // Zeroes every total and opens the root frame, which is never closed:
  // spans outside any event (set-up) nest under it and are still counted.
  void Reset();

  void Begin() {
    ELSC_CHECK_MSG(depth_ < kMaxDepth, "spans nested too deep");
    frames_[depth_++] = Frame{NowNs(), 0};
  }
  void End(Layer layer);

  const LayerTotals& totals(Layer layer) const {
    return totals_[static_cast<size_t>(layer)];
  }

 private:
  struct Frame {
    uint64_t start_ns = 0;
    uint64_t child_ns = 0;
  };
  // Deepest nesting seen: root > event > behavior > scheduler call, with
  // headroom.
  static constexpr size_t kMaxDepth = 16;
  std::array<Frame, kMaxDepth> frames_{};
  size_t depth_ = 0;
  std::array<LayerTotals, static_cast<size_t>(Layer::kCount)> totals_{};
};

// RAII span: exception-safe, so an unwinding InvariantViolation cannot leave
// the frame stack unbalanced.
class Span {
 public:
  Span(Tracer& tracer, Layer layer) : tracer_(tracer), layer_(layer) { tracer_.Begin(); }
  ~Span() { tracer_.End(layer_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  Layer layer_;
};

// Forwards every Scheduler call to `inner`, timing it.
//
// The Machine talks to the *outer* object: it reads nr_running() and writes
// lock_wait_cycles, preemption_ipis and the percpu_lock_* counters through
// mutable_stats(), while the inner scheduler writes its own counters into its
// own SchedStats. After every forwarded call the decorator mirrors
// nr_running and folds the inner counters' growth into the outer stats, so
// stats() reads exactly as the undecorated scheduler's would.
class TimedScheduler final : public elsc::Scheduler {
 public:
  TimedScheduler(const elsc::CostModel& cost_model, elsc::TaskList* all_tasks,
                 const elsc::SchedulerConfig& config, std::unique_ptr<elsc::Scheduler> inner,
                 Tracer* tracer)
      : Scheduler(cost_model, all_tasks, config), inner_(std::move(inner)), tracer_(tracer) {}

  const char* name() const override { return inner_->name(); }
  bool uses_global_lock() const override { return inner_->uses_global_lock(); }

  void AddToRunQueue(elsc::Task* task) override;
  void DelFromRunQueue(elsc::Task* task) override;
  void MoveFirstRunQueue(elsc::Task* task) override;
  void MoveLastRunQueue(elsc::Task* task) override;
  elsc::Task* Schedule(int this_cpu, elsc::Task* prev, elsc::CostMeter& meter) override;
  long PreemptionDelta(const elsc::Task& candidate, const elsc::Task& running,
                       int cpu) const override;

  void CheckInvariants() const override { inner_->CheckInvariants(); }
  std::string DebugString() const override { return inner_->DebugString(); }

 private:
  void Sync();

  std::unique_ptr<elsc::Scheduler> inner_;
  Tracer* tracer_;
  elsc::SchedStats inner_seen_;  // Inner counters already folded into stats_.
};

// A MachineConfig::scheduler_factory that builds `kind` (with `elsc_options`)
// behind a TimedScheduler reporting to `tracer`.
decltype(elsc::MachineConfig::scheduler_factory) TimedSchedulerFactory(
    elsc::SchedulerKind kind, const elsc::ElscOptions& elsc_options, Tracer* tracer);

// Forwards every TaskBehavior callback to `inner`, timing it.
class TimedBehavior final : public elsc::TaskBehavior {
 public:
  TimedBehavior(elsc::TaskBehavior* inner, Tracer* tracer) : inner_(inner), tracer_(tracer) {}

  elsc::Segment NextSegment(elsc::Machine& machine, elsc::Task& task) override;
  void OnWoken(elsc::Machine& machine, elsc::Task& task) override;
  void OnExit(elsc::Machine& machine, elsc::Task& task) override;

 private:
  elsc::TaskBehavior* inner_;
  Tracer* tracer_;
};

// Swaps a TimedBehavior onto every task as it appears in all_tasks(). Call
// Wrap() before Machine::Start() and after every event.
class BehaviorWrapper {
 public:
  BehaviorWrapper(elsc::Machine& machine, Tracer* tracer) : machine_(machine), tracer_(tracer) {}

  void Wrap();

  uint64_t wrapped() const { return wrapped_; }
  // Tasks wrapped before their first dispatch, whose every callback was timed.
  uint64_t wrapped_before_dispatch() const { return wrapped_before_dispatch_; }

 private:
  elsc::Machine& machine_;
  Tracer* tracer_;
  size_t next_ = 0;  // Index into all_tasks() of the first unseen task.
  uint64_t wrapped_ = 0;
  uint64_t wrapped_before_dispatch_ = 0;
  std::deque<TimedBehavior> wrappers_;  // Stable addresses for Task::behavior.
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMED_LAYERS_H_
