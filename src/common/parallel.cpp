#include "common/parallel.hpp"

#include <algorithm>
#include <cstdio>

namespace pml {

int hardware_threads() noexcept {
  static const int n =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return n;
}

int resolve_threads(int threads) noexcept {
  return threads > 0 ? threads : hardware_threads();
}

ThreadPool::ThreadPool(int workers) {
  workers_.reserve(static_cast<std::size_t>(std::max(0, workers)));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    // post()ed tasks first: they are rare (async recompiles) and small in
    // number, and parallel_for callers participate in their own jobs, so
    // job latency is not starved by draining the task queue eagerly.
    if (!tasks_.empty()) {
      std::function<void()> task = std::move(tasks_.front());
      tasks_.pop_front();
      lock.unlock();
      run_task(task);
      lock.lock();
      continue;
    }
    // Find a job that still has unclaimed indices and a free worker slot;
    // prune fully-claimed jobs as we go (their callers hold the storage and
    // wait for active == 0, so dropping the queue entry is safe).
    Job* job = nullptr;
    for (auto it = queue_.begin(); it != queue_.end();) {
      if ((*it)->next.load() >= (*it)->n) {
        it = queue_.erase(it);
      } else if ((*it)->slots > 0) {
        job = *it;
        break;
      } else {
        ++it;
      }
    }
    if (job == nullptr) {
      if (stop_) return;
      work_cv_.wait(lock);
      continue;
    }
    --job->slots;
    ++job->active;
    lock.unlock();
    run(*job);
    lock.lock();
    --job->active;
    if (job->active == 0 && job->next.load() >= job->n) {
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::run(Job& job) {
  for (;;) {
    const std::size_t i = job.next.fetch_add(1);
    if (i >= job.n) return;
    if (job.failed.load()) continue;  // drain remaining indices after failure
    try {
      (*job.body)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!job.failed.load()) {
        job.error = std::current_exception();
        job.failed.store(true);
      }
    }
  }
}

void ThreadPool::run_task(const std::function<void()>& task) noexcept {
  try {
    task();
  } catch (const std::exception& err) {
    std::fprintf(stderr, "pml: warning: posted task threw: %s\n", err.what());
  } catch (...) {
    std::fprintf(stderr, "pml: warning: posted task threw\n");
  }
}

void ThreadPool::post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!workers_.empty() && !stop_) {
      tasks_.push_back(std::move(task));
      work_cv_.notify_one();
      return;
    }
  }
  run_task(task);  // no workers (or shutting down): degrade to inline
}

void ThreadPool::parallel_for(int threads, std::size_t n, const Body& body) {
  if (n == 0) return;
  const int want = resolve_threads(threads);
  if (want <= 1 || n <= 1 || workers_.empty()) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }

  Job job;
  job.body = &body;
  job.n = n;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t extra = std::min(
        {static_cast<std::size_t>(want - 1), workers_.size(), n - 1});
    job.slots = static_cast<int>(extra);
    queue_.push_back(&job);
  }
  work_cv_.notify_all();

  run(job);  // the caller participates

  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&job] {
      return job.active == 0 && job.next.load() >= job.n;
    });
    const auto it = std::find(queue_.begin(), queue_.end(), &job);
    if (it != queue_.end()) queue_.erase(it);
  }
  if (job.error) std::rethrow_exception(job.error);
}

ThreadPool& ThreadPool::shared() {
  // hardware-1 workers so pool + caller saturate the machine; at least one
  // worker so parallel paths are exercised (and testable) even on one core.
  // Destroyed at exit, joining the workers: anything they touch while
  // exiting must outlive it (hence obs::registry() is immortal).
  static ThreadPool pool(std::max(1, hardware_threads() - 1));
  return pool;
}

void parallel_for(int threads, std::size_t n, const ThreadPool::Body& body) {
  ThreadPool::shared().parallel_for(threads, n, body);
}

}  // namespace pml
