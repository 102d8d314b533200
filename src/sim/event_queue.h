// Stable priority queue of timed events for the discrete-event engine.
//
// Events with equal timestamps fire in insertion order (a strict requirement
// for reproducibility: a timer tick and a segment end at the same cycle must
// resolve deterministically).
//
// Hot-path design: event state lives in a slab of reusable slots indexed by
// a 4-ary min-heap of (when, seq, slot) entries, and each callback is built
// directly in its slot's small-buffer EventCallback — so scheduling, firing,
// and cancelling events allocate nothing in steady state (the slab and heap
// arrays grow to the high-water mark once and are then recycled).
//
// Cancellation is lazy. Slots do not know where their heap entry sits, so
// no sift step writes back to the slab. Cancel() releases the slot at once
// and leaves the entry behind: an entry is live iff its slot's current `seq`
// equals the entry's `seq` (sequence numbers are never reused). Stale
// entries are dropped when they reach the top, and the heap is rebuilt
// without them once they outnumber the live events (see kStaleSlack), so
// the array stays within a constant factor of the live count. Cancels are
// rare in the simulator (one event in fifty at most), while every event
// pays for the sift.
//
// Event ids carry the slot's generation counter, which makes Cancel() exact:
// ids of events that already fired or were cancelled never match a live
// slot, so a stale id cannot corrupt the live count.
//
// Everything is defined in this header: schedule/pop/sift are called once or
// more per simulated event from several translation units (engine, machine,
// benches), and cross-TU inlining of this path is a measurable share of the
// simulator's host time.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/base/assert.h"
#include "src/base/time_units.h"
#include "src/sim/event_callback.h"

namespace elsc {

// Encodes {slot index, slot generation}; 0 is never a valid id.
using EventId = uint64_t;

// Allocation and depth counters for the event hot path. All steady-state
// values should be flat: callback_heap_allocs counts closures too big for
// EventCallback's inline buffer, slot_allocs counts slab growths (bounded by
// the maximum number of simultaneously pending events). max_heap_depth is
// the peak number of pending (live) events.
struct EventQueueStats {
  uint64_t scheduled = 0;
  uint64_t fired = 0;
  uint64_t cancelled = 0;
  uint64_t callback_heap_allocs = 0;
  uint64_t slot_allocs = 0;
  uint64_t max_heap_depth = 0;
};

class EventQueue {
 public:
  struct Fired {
    Cycles when = 0;
    EventId id = 0;
    EventCallback fn;
  };

  // Schedules `fn` (any void() callable, or an EventCallback) to fire at
  // absolute time `when`. Returns an id usable with Cancel().
  template <typename F>
  EventId Schedule(Cycles when, F&& fn) {
    const uint32_t index = AcquireSlot();
    Slot& slot = slots_[index];
    slot.fn.Emplace(std::forward<F>(fn));
    if (slot.fn.heap_allocated()) {
      ++stats_.callback_heap_allocs;
    }
    slot.seq = next_seq_++;
    heap_.push_back(HeapEntry{when, slot.seq, index});
    SiftUp(heap_.size() - 1);
    ++stats_.scheduled;
    ++live_;
    if (live_ > stats_.max_heap_depth) {
      stats_.max_heap_depth = live_;
    }
    return MakeId(index, slot.generation);
  }

  // Cancels a pending event. Returns false (no-op) if the event already fired
  // or was already cancelled — the generation check makes this exact.
  bool Cancel(EventId id) {
    const uint32_t low = static_cast<uint32_t>(id);
    if (low == 0 || low > slots_.size()) {
      return false;
    }
    const uint32_t index = low - 1;
    Slot& slot = slots_[index];
    if (slot.generation != static_cast<uint32_t>(id >> 32) || slot.seq == kFreeSeq) {
      return false;  // Already fired, already cancelled, or never issued.
    }
    ReleaseSlot(index);  // Its heap entry is stale from here on.
    --live_;
    ++stats_.cancelled;
    DropStale();
    return true;
  }

  bool Empty() const { return live_ == 0; }
  size_t Size() const { return live_; }

  // Time of the earliest pending event. Only valid when !Empty().
  Cycles NextTime() const {
    ELSC_CHECK_MSG(live_ != 0, "NextTime() on empty event queue");
    return heap_[0].when;  // The top entry is always live (see DropStale).
  }

  // Pops and returns the earliest pending event. Only valid when !Empty().
  Fired PopNext() {
    ELSC_CHECK_MSG(live_ != 0, "PopNext() on empty event queue");
    const HeapEntry top = heap_[0];
    Slot& slot = slots_[top.slot];
    Fired fired{top.when, MakeId(top.slot, slot.generation), std::move(slot.fn)};
    ReleaseSlot(top.slot);
    --live_;
    ++stats_.fired;
    PopTop();
    if (heap_.size() != live_) {
      DropStale();
    }
    return fired;
  }

  const EventQueueStats& stats() const { return stats_; }

  // Verifies the queue's structure; aborts with a message on violation.
  // O(slots + heap), for tests:
  //  * heap order: no entry sorts before its parent;
  //  * each occupied slot has exactly one live entry, and free slots none;
  //  * the top entry is live, and stale entries stay within kStaleSlack;
  //  * the free list holds exactly the unoccupied slots.
  void CheckInvariants() const {
    for (size_t pos = 1; pos < heap_.size(); ++pos) {
      ELSC_VERIFY_MSG(!Before(heap_[pos], heap_[(pos - 1) / kArity]), "heap order violated");
    }
    std::vector<uint32_t> live_entries(slots_.size(), 0);
    for (const HeapEntry& entry : heap_) {
      ELSC_VERIFY_MSG(entry.slot < slots_.size(), "heap entry names no slot");
      ELSC_VERIFY_MSG(entry.seq < next_seq_, "heap entry from the future");
      if (Live(entry)) {
        ++live_entries[entry.slot];
      }
    }
    size_t occupied = 0;
    for (size_t i = 0; i < slots_.size(); ++i) {
      const bool in_use = slots_[i].seq != kFreeSeq;
      occupied += in_use ? 1 : 0;
      ELSC_VERIFY_MSG(live_entries[i] == (in_use ? 1u : 0u),
                      "slot does not have exactly one live entry");
      ELSC_VERIFY_MSG(in_use == static_cast<bool>(slots_[i].fn), "slot callback out of sync");
    }
    ELSC_VERIFY_MSG(occupied == live_, "live count out of sync");
    ELSC_VERIFY_MSG(heap_.empty() || Live(heap_[0]), "stale entry at the top");
    ELSC_VERIFY_MSG(heap_.size() <= kStaleSlack * live_ + kStaleFloor, "stale entries unbounded");
    size_t free_slots = 0;
    for (uint32_t i = free_head_; i != kNullIndex; i = slots_[i].next_free) {
      ELSC_VERIFY_MSG(slots_[i].seq == kFreeSeq, "occupied slot on the free list");
      ELSC_VERIFY_MSG(++free_slots <= slots_.size(), "free list cycles");
    }
    ELSC_VERIFY_MSG(free_slots + live_ == slots_.size(), "free list out of sync");
  }

 private:
  static constexpr uint32_t kNullIndex = 0xffffffffu;
  static constexpr uint64_t kFreeSeq = ~uint64_t{0};  // seq of an unoccupied slot.
  // A 4-ary heap trades slightly more comparisons per level for half the
  // levels and far better cache behavior than a binary heap: the four
  // children of a node are adjacent in the entry array.
  static constexpr size_t kArity = 4;
  // The heap is rebuilt without its stale entries when it holds more than
  // kStaleSlack * live + kStaleFloor of them. Each rebuild is paid for by
  // the cancels that made the entries stale.
  static constexpr size_t kStaleSlack = 2;
  static constexpr size_t kStaleFloor = 8;

  struct Slot {
    EventCallback fn;
    // seq of the heap entry that is this slot's live event; kFreeSeq when
    // the slot is free. The (when, seq) sort key lives in the heap entry.
    uint64_t seq = kFreeSeq;
    uint32_t generation = 1;  // Bumped on release; stale ids never match.
    uint32_t next_free = kNullIndex;
  };

  static EventId MakeId(uint32_t index, uint32_t generation) {
    return (static_cast<uint64_t>(generation) << 32) | (index + 1);
  }

  // Heap entries carry the full sort key alongside the slot index, so sift
  // comparisons read only the (hot, densely packed) heap array and never
  // touch the slot slab — a Slot is dominated by its callback buffer, and
  // chasing it per comparison was the queue's main cache-miss source.
  struct HeapEntry {
    Cycles when;
    uint64_t seq;
    uint32_t slot;
  };

  // (when, seq) as one integer, so ordering is a single wide compare that
  // the compiler can lower to branch-free code. seq is unique, so the order
  // is strict: earliest time, then insertion order.
  __extension__ using Key = unsigned __int128;
  static Key KeyOf(const HeapEntry& e) { return (static_cast<Key>(e.when) << 64) | e.seq; }
  static bool Before(const HeapEntry& a, const HeapEntry& b) { return KeyOf(a) < KeyOf(b); }

  bool Live(const HeapEntry& e) const { return slots_[e.slot].seq == e.seq; }

  uint32_t AcquireSlot() {
    if (free_head_ != kNullIndex) {
      const uint32_t index = free_head_;
      free_head_ = slots_[index].next_free;
      slots_[index].next_free = kNullIndex;
      return index;
    }
    slots_.emplace_back();
    ++stats_.slot_allocs;
    return static_cast<uint32_t>(slots_.size() - 1);
  }

  void ReleaseSlot(uint32_t index) {
    Slot& slot = slots_[index];
    ++slot.generation;  // Invalidate every outstanding id for this slot.
    slot.seq = kFreeSeq;
    slot.fn = EventCallback();
    slot.next_free = free_head_;
    free_head_ = index;
  }

  // Restores "the top entry is live" after a slot release, and rebuilds the
  // heap once stale entries exceed their bound.
  void DropStale() {
    while (!heap_.empty() && !Live(heap_[0])) {
      PopTop();
    }
    if (heap_.size() > kStaleSlack * live_ + kStaleFloor) {
      heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                                 [this](const HeapEntry& e) { return !Live(e); }),
                  heap_.end());
      // Rare (amortized over the cancels that made the entries stale), so
      // the simplest valid heap will do: a sorted array.
      std::sort(heap_.begin(), heap_.end(), Before);
    }
  }

  void SiftUp(size_t pos) {
    HeapEntry* const heap = heap_.data();
    const HeapEntry entry = heap[pos];
    const Key key = KeyOf(entry);
    while (pos > 0) {
      const size_t parent = (pos - 1) / kArity;
      if (key >= KeyOf(heap[parent])) {
        break;
      }
      heap[pos] = heap[parent];
      pos = parent;
    }
    heap[pos] = entry;
  }

  // Removes heap_[0] (Floyd's bottom-up pop): the hole at the root walks
  // down along the smallest child to a leaf, with no compare against the
  // displaced last entry on the way; that entry is then sifted up from the
  // leaf, which is almost always where it belongs.
  void PopTop() {
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    const size_t size = heap_.size();
    if (size == 0) {
      return;
    }
    HeapEntry* const heap = heap_.data();
    size_t hole = 0;
    size_t child = 1;
    while (child + kArity <= size) {
      // Branch-free tournament over the four children. Compare results
      // are added to (or multiply) indices rather than branched on: which
      // child is smallest is a coin flip the branch predictor cannot learn.
      const Key k0 = KeyOf(heap[child]);
      const Key k1 = KeyOf(heap[child + 1]);
      const Key k2 = KeyOf(heap[child + 2]);
      const Key k3 = KeyOf(heap[child + 3]);
      const bool right_of_first = k1 < k0;
      const bool right_of_second = k3 < k2;
      const size_t a = child + right_of_first;
      const size_t b = child + 2 + right_of_second;
      const Key ka = right_of_first ? k1 : k0;
      const Key kb = right_of_second ? k3 : k2;
      const size_t best = a + (b - a) * (kb < ka);
      heap[hole] = heap[best];
      hole = best;
      child = hole * kArity + 1;
    }
    if (child < size) {
      // A partial last family: its members have no children.
      size_t best = child;
      for (size_t c = child + 1; c < size; ++c) {
        if (Before(heap[c], heap[best])) {
          best = c;
        }
      }
      heap[hole] = heap[best];
      hole = best;
    }
    heap[hole] = last;
    SiftUp(hole);
  }

  std::vector<Slot> slots_;
  std::vector<HeapEntry> heap_;  // 4-ary min-heap keyed by (when, seq).
  size_t live_ = 0;              // Pending events; heap_ may also hold stale entries.
  uint32_t free_head_ = kNullIndex;
  uint64_t next_seq_ = 0;
  EventQueueStats stats_;
};

}  // namespace elsc

#endif  // SRC_SIM_EVENT_QUEUE_H_
