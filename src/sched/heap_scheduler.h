// A heap-based scheduler — the alternative design sketched in the paper's
// future-work section (§8): "sorting tasks by static goodness within heaps
// ... One could choose the absolute best task available simply by examining
// the top of each heap."
//
// This implementation keeps a single global binary max-heap of runnable
// tasks keyed by static goodness (real-time tasks key above all others, as
// goodness() mandates). Selection pops the best task not running on another
// CPU; insertion and removal are O(log n). It deliberately ignores the
// dynamic affinity/mm bonuses — that is the design's documented trade-off,
// which the ablation benchmarks quantify against ELSC (whose bounded in-list
// search *does* apply the bonuses).
//
// Yield handling follows the stock scheduler's spirit: a yielded task is
// (re)inserted with key 0, so anything runnable beats it, but if it reaches
// the top it simply runs again — no whole-system recalculation storm.

#ifndef SRC_SCHED_HEAP_SCHEDULER_H_
#define SRC_SCHED_HEAP_SCHEDULER_H_

#include <vector>

#include "src/sched/scheduler.h"

namespace elsc {

// Tie-biasing has no meaning inside a heap, so MoveFirstRunQueue and
// MoveLastRunQueue keep the framework's no-ops.
class HeapScheduler : public PolicyScheduler<HeapScheduler> {
 public:
  using PolicyScheduler::PolicyScheduler;

  const char* name() const override { return "heap"; }

  void CheckInvariants() const override;

  size_t heap_size() const { return heap_.size(); }

 private:
  friend class PolicyScheduler<HeapScheduler>;
  void Enqueue(Task* task);
  void Dequeue(Task* task);
  Task* PickNext(int this_cpu, Task* prev, CostMeter& meter);

  // Static-goodness key; the heap is ordered by it.
  static long KeyOf(const Task& p);

  void HeapPush(Task* task, CostMeter* meter, long key_penalty = 0);
  Task* HeapPopAt(size_t index, CostMeter* meter);
  void SiftUp(size_t index);
  void SiftDown(size_t index);
  void ChargeHeapOp(CostMeter* meter) const;

  // Recalculates every counter, then rebuilds the heap over the new keys.
  void RecalculateAndRebuild(CostMeter& meter);

  std::vector<Task*> heap_;
  std::vector<long> keys_;  // keys_[i] caches KeyOf(*heap_[i]) at insert time.
};

extern template class PolicyScheduler<HeapScheduler>;  // In heap_scheduler.cc.

}  // namespace elsc

#endif  // SRC_SCHED_HEAP_SCHEDULER_H_
