// Move-only callable with inline (small-buffer) storage, used for event
// callbacks on the simulator's hottest path.
//
// Every simulated context switch, segment end, timer tick, and wakeup
// schedules a closure; with std::function each of those is a heap
// allocation. All of this library's event closures capture at most a few
// pointers and integers, so EventCallback stores up to kInlineSize bytes of
// captures in place and only falls back to the heap for oversized or
// throwing-move callables (the EventQueue counts those fallbacks in its
// stats so regressions are visible).

#ifndef SRC_SIM_EVENT_CALLBACK_H_
#define SRC_SIM_EVENT_CALLBACK_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace elsc {

class EventCallback {
 public:
  // Sized for the largest closure the Machine schedules (this + CPU id +
  // task pointer + cost), with headroom for embedders' callbacks.
  static constexpr size_t kInlineSize = 48;

  EventCallback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    Emplace(std::forward<F>(f));
  }

  EventCallback(EventCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      MoveFrom(other);
    }
  }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        MoveFrom(other);
      }
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { Reset(); }

  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const { return ops_ != nullptr; }

  // Replaces the held callable with `f`, constructed directly in this
  // object's storage. The EventQueue builds each event's callback in its
  // slot this way, with no temporary EventCallback to move from. Passing an
  // EventCallback moves it in.
  template <typename F>
  void Emplace(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (std::is_same_v<Fn, EventCallback>) {
      *this = std::forward<F>(f);
    } else {
      static_assert(std::is_invocable_r_v<void, Fn&>, "event callbacks take no arguments");
      Reset();
      if constexpr (sizeof(Fn) <= kInlineSize && alignof(Fn) <= alignof(std::max_align_t) &&
                    std::is_nothrow_move_constructible_v<Fn>) {
        ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
        ops_ = &InlineOps<Fn>::kOps;
      } else {
        *reinterpret_cast<Fn**>(storage_) = new Fn(std::forward<F>(f));
        ops_ = &HeapOps<Fn>::kOps;
      }
    }
  }

  // True when the callable did not fit the inline buffer.
  bool heap_allocated() const { return ops_ != nullptr && ops_->heap; }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move-constructs the callable from `from` into `to`, destroying `from`.
    void (*relocate)(void* from, void* to);
    void (*destroy)(void* storage);
    bool heap;
    // Trivially-copyable inline callables (almost every closure the Machine
    // schedules: captures of pointers and integers only) relocate by plain
    // memcpy and need no destructor call. Each event is built in its queue
    // slot, moved out when it fires, and destroyed — skipping the indirect
    // relocate/destroy calls on that path is a measurable share of the
    // simulator's host time.
    bool trivial;
  };

  template <typename Fn>
  struct InlineOps {
    static void Invoke(void* storage) { (*std::launder(reinterpret_cast<Fn*>(storage)))(); }
    static void Relocate(void* from, void* to) {
      Fn* src = std::launder(reinterpret_cast<Fn*>(from));
      ::new (to) Fn(std::move(*src));
      src->~Fn();
    }
    static void Destroy(void* storage) { std::launder(reinterpret_cast<Fn*>(storage))->~Fn(); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy, false,
                              std::is_trivially_copyable_v<Fn>};
  };

  template <typename Fn>
  struct HeapOps {
    static Fn* Get(void* storage) { return *reinterpret_cast<Fn**>(storage); }
    static void Invoke(void* storage) { (*Get(storage))(); }
    static void Relocate(void* from, void* to) {
      *reinterpret_cast<Fn**>(to) = Get(from);
    }
    static void Destroy(void* storage) { delete Get(storage); }
    static constexpr Ops kOps{&Invoke, &Relocate, &Destroy, true, false};
  };

  // Precondition: ops_ == other.ops_ != nullptr. Leaves `other` empty.
  void MoveFrom(EventCallback& other) noexcept {
    if (ops_->trivial) {
      // Copying the whole buffer (rather than sizeof(Fn)) keeps this a fixed-
      // size, branch-free copy; the tail bytes are indeterminate but unused,
      // which GCC's -Wuninitialized cannot see once this inlines.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
      std::memcpy(storage_, other.storage_, kInlineSize);
#pragma GCC diagnostic pop
    } else {
      ops_->relocate(other.storage_, storage_);
    }
    other.ops_ = nullptr;
  }

  void Reset() {
    if (ops_ != nullptr) {
      if (!ops_->trivial) {
        ops_->destroy(storage_);
      }
      ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
};

}  // namespace elsc

#endif  // SRC_SIM_EVENT_CALLBACK_H_
