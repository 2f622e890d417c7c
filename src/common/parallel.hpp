// Bounded thread pool with a blocking parallel_for.
//
// The hot offline/online paths (forest fitting, framework training, tuning
// table compilation) are embarrassingly parallel but must stay bit-for-bit
// deterministic: callers pre-split RNG streams and pre-size output slots, so
// the pool only has to distribute independent indices. The design is
// deliberately work-stealing-free: one shared index counter per job and
// caller participation.
//
// Semantics:
//  - parallel_for(threads, n, body) runs body(i) for every i in [0, n) and
//    blocks until all iterations finished. `threads` caps the concurrency of
//    this call (caller included); <= 0 means hardware_threads().
//  - threads == 1 (or n <= 1, or a pool with no workers) executes the plain
//    serial loop on the calling thread — exactly the historical code path.
//  - Otherwise the job is queued and the caller runs indices itself; idle
//    workers join it. This holds for a call made from inside a pool worker
//    (a post()ed task or another job's body) too: a nested call fans out
//    over whichever workers are idle, and runs alone on the caller when
//    none are.
//  - The first exception thrown by any iteration is re-thrown in the caller;
//    iterations not yet started are skipped after a failure.
//  - With threads > 1 the iteration bodies run concurrently, so they must
//    not mutate shared state without synchronisation.
//
// Nesting is deadlock-free. A thread blocks only at the end of its own
// parallel_for, waiting for the workers running indices of that job, and:
//  - the caller always takes part in its own job, so every index is claimed
//    even when no worker is free;
//  - a worker joins a job only from its idle top-level loop, so it is
//    running indices of at most one job it did not start itself;
//  - a waiting caller runs nothing else, and waits only on workers that
//    already hold indices it handed out.
// So each worker is waited on by at most one caller: the one whose job it
// joined. A cycle would need that caller to be waiting, directly or through
// other workers, on a job the worker started after joining; but the caller
// is busy inside its own job from before the join until the wait ends, and
// joins nothing. The wait-for graph is therefore a forest, and every chain
// ends at a thread that is running a body.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pml {

/// std::thread::hardware_concurrency with a floor of 1.
int hardware_threads() noexcept;

/// Resolve a threads knob: values <= 0 mean "use all hardware threads".
int resolve_threads(int threads) noexcept;

class ThreadPool {
 public:
  using Body = std::function<void(std::size_t)>;

  /// Spawns `workers` background threads (0 is valid: every parallel_for
  /// then runs serially on the caller).
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const noexcept { return workers_.size(); }

  /// See the file header for the contract. Blocks until every iteration
  /// completed (or was skipped after a failure), then re-throws the first
  /// captured exception, if any.
  void parallel_for(int threads, std::size_t n, const Body& body);

  /// Fire-and-forget task submission on the same workers (used by the
  /// serve layer for async tuning-table recompiles). Never blocks: with no
  /// workers the task runs inline on the caller. The pool provides no
  /// completion signal — callers that must observe completion (or outlive
  /// the pool) track it themselves. Tasks must not throw; an escaped
  /// exception is swallowed after a stderr warning. Tasks still queued
  /// when the pool is destroyed are discarded. A task may call
  /// parallel_for, which fans out over the workers idle at that moment.
  void post(std::function<void()> task);

  /// Process-wide pool shared by all library hot paths. Sized so that the
  /// pool plus a caller saturate the machine.
  static ThreadPool& shared();

 private:
  /// One parallel_for invocation; lives on the caller's stack.
  struct Job {
    const Body* body = nullptr;
    std::size_t n = 0;
    std::atomic<std::size_t> next{0};  ///< next index to claim
    std::atomic<bool> failed{false};
    int slots = 0;   ///< workers still allowed to join (guarded by mutex_)
    int active = 0;  ///< workers currently running it (guarded by mutex_)
    std::exception_ptr error;  ///< first failure (guarded by mutex_)
  };

  void worker_loop();
  void run(Job& job);
  /// Run one post()ed task, containing any escaped exception (warn+drop).
  static void run_task(const std::function<void()>& task) noexcept;

  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< workers wait for queued jobs
  std::condition_variable done_cv_;  ///< callers wait for job completion
  std::deque<Job*> queue_;
  std::deque<std::function<void()>> tasks_;  ///< post()ed one-shot tasks
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

/// Convenience wrapper over ThreadPool::shared().
void parallel_for(int threads, std::size_t n, const ThreadPool::Body& body);

}  // namespace pml
