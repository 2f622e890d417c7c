#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace pml {
namespace {

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 4, 16}) {
    std::vector<std::atomic<int>> hits(257);
    parallel_for(threads, hits.size(),
                 [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << threads;
  }
}

TEST(ParallelFor, ZeroAndOneIterations) {
  int calls = 0;
  parallel_for(4, 0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(4, 1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(
      parallel_for(4, 100,
                   [](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool survives a failed job and keeps serving.
  std::atomic<int> count{0};
  parallel_for(4, 50, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(ParallelFor, NestedCallsCompleteWithoutDeadlock) {
  // Two and three levels deep, each level fanning out over whatever workers
  // are idle; several external callers nest at once so nested jobs compete
  // for the same workers.
  constexpr std::size_t kFan = 6;
  std::vector<std::atomic<int>> hits(8 * 8);
  std::vector<std::atomic<int>> deep(kFan * kFan * kFan * 3);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < 3; ++c) {
    callers.emplace_back([&, c] {
      parallel_for(4, kFan, [&](std::size_t a) {
        parallel_for(3, kFan, [&](std::size_t b) {
          parallel_for(0, kFan, [&](std::size_t d) {
            deep[((c * kFan + a) * kFan + b) * kFan + d].fetch_add(1);
          });
        });
      });
    });
  }
  parallel_for(4, 8, [&](std::size_t outer) {
    parallel_for(4, 8, [&](std::size_t inner) {
      hits[outer * 8 + inner].fetch_add(1);
    });
  });
  for (std::thread& t : callers) t.join();
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  for (const auto& h : deep) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ConcurrentWritesToDisjointSlotsAreOrdered) {
  // The determinism contract the hot paths rely on: pre-sized output slots
  // filled by index produce the same result at any thread count.
  std::vector<int> serial(1000);
  std::vector<int> parallel(1000);
  auto body = [](std::vector<int>& out) {
    return [&out](std::size_t i) { out[i] = static_cast<int>(i * i % 97); };
  };
  parallel_for(1, serial.size(), body(serial));
  parallel_for(8, parallel.size(), body(parallel));
  EXPECT_EQ(serial, parallel);
}

TEST(ThreadPool, StandalonePoolWithZeroWorkersRunsSerially) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  std::vector<int> order;
  pool.parallel_for(8, 5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));  // serial: no data race possible
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, StandalonePoolDistributesWork) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
  std::atomic<long> sum{0};
  pool.parallel_for(4, 1000, [&](std::size_t i) {
    sum.fetch_add(static_cast<long>(i));
  });
  EXPECT_EQ(sum.load(), 999L * 1000L / 2);
}

/// Counts arrivals and lets each caller wait, with a timeout, until
/// `expected` callers have arrived.
class Barrier {
 public:
  explicit Barrier(int expected) : expected_(expected) {}
  bool arrive_and_wait(std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    ++arrived_;
    cv_.notify_all();
    return cv_.wait_for(lock, timeout,
                        [this] { return arrived_ >= expected_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int arrived_ = 0;
  const int expected_;
};

TEST(ThreadPool, PostedTaskParallelForUsesIdleWorkers) {
  // A post()ed task runs on a worker; its parallel_for must fan out over the
  // two idle workers instead of running inline. Each index waits until a
  // second index is running, which only a second thread can satisfy.
  std::mutex mutex;
  std::condition_variable cv;
  std::set<std::thread::id> threads;
  bool met = true;
  bool done = false;
  ThreadPool pool(3);  // declared last: joins before the state it touches dies
  pool.post([&] {
    Barrier both(2);
    pool.parallel_for(0, 2, [&](std::size_t) {
      const bool ok = both.arrive_and_wait(std::chrono::seconds(10));
      std::lock_guard<std::mutex> lock(mutex);
      met = met && ok;
      threads.insert(std::this_thread::get_id());
    });
    std::lock_guard<std::mutex> lock(mutex);
    done = true;
    cv.notify_all();
  });
  std::unique_lock<std::mutex> lock(mutex);
  ASSERT_TRUE(
      cv.wait_for(lock, std::chrono::seconds(30), [&] { return done; }));
  EXPECT_TRUE(met);
  EXPECT_GE(threads.size(), 2u);
}

TEST(ThreadPool, SaturatedNestedJobsRunEachIndexOnceAndIsolateFailures) {
  // Every worker sits in a post()ed task, each nesting parallel_for two
  // deep under the same pool, and one inner body throws. Nested jobs can
  // only find workers that finish early, so they mostly run on their own
  // callers; nothing may deadlock, run twice, or leak the failure.
  constexpr std::size_t kWorkers = 3;
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  constexpr std::size_t kFailing = 1;
  constexpr std::size_t kFailAt = 5 * kInner + 7;
  for (int round = 0; round < 20; ++round) {
    std::vector<std::atomic<int>> hits(kWorkers * kOuter * kInner);
    std::vector<int> threw(kWorkers, -1);
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t finished = 0;
    Barrier all_busy(static_cast<int>(kWorkers));
    {
      ThreadPool pool(static_cast<int>(kWorkers));
      for (std::size_t task = 0; task < kWorkers; ++task) {
        pool.post([&, task] {
          const bool busy = all_busy.arrive_and_wait(std::chrono::seconds(10));
          int caught = 0;
          try {
            pool.parallel_for(0, kOuter, [&](std::size_t o) {
              pool.parallel_for(0, kInner, [&](std::size_t i) {
                const std::size_t local = o * kInner + i;
                hits[task * kOuter * kInner + local].fetch_add(1);
                if (task == kFailing && local == kFailAt) {
                  throw std::runtime_error("inner boom");
                }
              });
            });
          } catch (const std::runtime_error& err) {
            caught = std::string(err.what()) == "inner boom" ? 1 : 2;
          }
          std::lock_guard<std::mutex> lock(mutex);
          threw[task] = busy ? caught : 3;  // 3: never saturated the pool
          ++finished;
          cv.notify_all();
        });
      }
      std::unique_lock<std::mutex> lock(mutex);
      ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60),
                              [&] { return finished == kWorkers; }));
    }  // the pool joins its workers here
    for (std::size_t task = 0; task < kWorkers; ++task) {
      EXPECT_EQ(threw[task], task == kFailing ? 1 : 0) << "task " << task;
      for (std::size_t k = 0; k < kOuter * kInner; ++k) {
        const int count = hits[task * kOuter * kInner + k].load();
        if (task == kFailing) {
          // A failure skips the indices not yet started, never repeats one.
          EXPECT_LE(count, 1) << k;
          if (k == kFailAt) {
            EXPECT_EQ(count, 1);
          }
        } else {
          EXPECT_EQ(count, 1) << "task " << task << " index " << k;
        }
      }
    }
  }
}

TEST(Parallel, ResolveThreads) {
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_EQ(resolve_threads(1), 1);
  EXPECT_EQ(resolve_threads(0), hardware_threads());
  EXPECT_EQ(resolve_threads(-5), hardware_threads());
  EXPECT_GE(hardware_threads(), 1);
}

}  // namespace
}  // namespace pml
