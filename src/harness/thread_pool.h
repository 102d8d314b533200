// Fixed-size thread pool for the parallel experiment harness.
//
// Workers consume a FIFO of jobs; Wait() blocks until the queue is drained
// and every worker is idle, so one pool can serve several fan-out rounds.
// The pool is deliberately minimal: its jobs are few and coarse. Matrix
// cells run tens of milliseconds to minutes each; the sharded federation
// submits one job per worker per lock-step window (~5-25 ms) and its
// submitting thread claims work alongside the pool until Wait(). Either
// way queue contention is irrelevant and simplicity wins over lock-free
// cleverness.
//
// An exception escaping a job does not unwind into the worker thread (which
// would std::terminate the process): the first one per fan-out round is
// captured and rethrown from the next Wait(), mirroring how the job would
// have failed had it run inline on the submitting thread.

#ifndef SRC_HARNESS_THREAD_POOL_H_
#define SRC_HARNESS_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace elsc {

class ThreadPool {
 public:
  // Spawns `threads` workers (floored at 1).
  explicit ThreadPool(int threads);

  // Joins the workers; pending jobs are completed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> job);

  // Blocks until every submitted job has finished. If any job of the round
  // threw, rethrows the first captured exception (later ones are discarded).
  void Wait();

  int threads() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // Signals workers: job available / shutdown.
  std::condition_variable idle_cv_;   // Signals Wait(): everything drained.
  size_t in_flight_ = 0;              // Queued + currently-running jobs.
  std::exception_ptr first_error_;    // First job exception since the last Wait().
  bool shutdown_ = false;
};

}  // namespace elsc

#endif  // SRC_HARNESS_THREAD_POOL_H_
