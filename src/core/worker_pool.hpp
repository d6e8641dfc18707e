// A persistent pool of worker threads for the suite's detect/evaluate
// fan-outs. Threads are spawned once and parked on a condition variable
// between jobs, so repeated fan-outs cost a wakeup, not a thread spawn.
//
// Model: one job at a time. `run(count, fn)` executes fn(idx) for every
// idx in [0, count) across the pool's threads plus the calling thread,
// claim-based (an atomic cursor hands out indices), and returns when all
// indices are settled. `run` is NOT reentrant: never call it from inside
// a task running on the same pool.
//
// Work distribution is nondeterministic; callers that need deterministic
// results must make each fn(idx) independent of execution order (the
// suite preassigns result slots).
#pragma once

#include <cstddef>
#include <functional>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tlbmap {

class WorkerPool {
 public:
  /// Total parallelism, calling thread included: `workers` of 1 spawns no
  /// threads and `run` degenerates to a serial loop. Values < 1 clamp to 1.
  explicit WorkerPool(int workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int workers() const { return workers_; }

  /// Runs fn(idx) for each idx in [0, count). Blocks until every index is
  /// settled. When `stop` is provided and turns true, remaining indices
  /// are drained without executing fn (cooperative cancellation: tasks
  /// already running finish themselves). The first exception thrown by a
  /// task is rethrown here after the job settles.
  void run(std::size_t count, const std::function<void(std::size_t)>& fn,
           const std::function<bool()>& stop = {});

 private:
  struct Job;

  void worker_loop();
  void work_on(Job& job);

  const int workers_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::shared_ptr<Job> job_;     // current job; guarded by mutex_
  std::uint64_t generation_ = 0;  // bumped per job; guarded by mutex_
  bool stopping_ = false;         // guarded by mutex_
  std::vector<std::thread> threads_;
};

}  // namespace tlbmap
