#include "base/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>

#include "obs/metrics.h"
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace genalg {
namespace {

TEST(ThreadPoolTest, SizeOnePoolSpawnsNoThreadsAndRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.Submit([&] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);
  // ParallelFor chunks run inline, in ascending order.
  std::vector<size_t> order;
  pool.ParallelFor(0, 10, 3, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) order.push_back(i);
  });
  std::vector<size_t> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(threads);
    for (size_t n : {0u, 1u, 7u, 64u, 1000u}) {
      for (size_t grain : {1u, 3u, 17u, 1000u}) {
        std::vector<std::atomic<int>> seen(n);
        pool.ParallelFor(0, n, grain, [&](size_t lo, size_t hi) {
          ASSERT_LE(lo, hi);
          ASSERT_LE(hi, n);
          for (size_t i = lo; i < hi; ++i) {
            seen[i].fetch_add(1, std::memory_order_relaxed);
          }
        });
        for (size_t i = 0; i < n; ++i) {
          EXPECT_EQ(seen[i].load(), 1)
              << "threads=" << threads << " n=" << n << " grain=" << grain
              << " i=" << i;
        }
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForClampsZeroGrainAndReportsIt) {
  obs::MetricsSnapshot before = obs::Registry::Global().Snapshot();
  for (size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> seen(64);
    pool.ParallelFor(0, 64, /*grain=*/0, [&](size_t lo, size_t hi) {
      ASSERT_LT(lo, hi);  // A zero grain must not produce empty chunks.
      for (size_t i = lo; i < hi; ++i) {
        seen[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (size_t i = 0; i < seen.size(); ++i) {
      EXPECT_EQ(seen[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
  obs::MetricsSnapshot delta =
      obs::Registry::Global().Snapshot().Since(before);
  EXPECT_EQ(delta.counter("base.pool.grain_clamped"), 2u);
}

TEST(ThreadPoolTest, ParallelForRespectsNonZeroBegin) {
  ThreadPool pool(4);
  std::atomic<size_t> sum{0};
  pool.ParallelFor(100, 200, 7, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    }
  });
  size_t expected = 0;
  for (size_t i = 100; i < 200; ++i) expected += i;
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPoolTest, SubmittedTasksAllRun) {
  std::atomic<int> ran{0};
  std::mutex mutex;
  std::condition_variable done;
  // Declared after what the tasks touch, so its destructor joins the
  // worker still inside notify_all() before those are destroyed.
  ThreadPool pool(4);
  constexpr int kTasks = 64;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      if (ran.fetch_add(1) + 1 == kTasks) {
        std::lock_guard<std::mutex> lock(mutex);
        done.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(mutex);
  done.wait(lock, [&] { return ran.load() == kTasks; });
  EXPECT_EQ(ran.load(), kTasks);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<size_t> total{0};
  pool.ParallelFor(0, 8, 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      pool.ParallelFor(0, 8, 1, [&](size_t jlo, size_t jhi) {
        total.fetch_add(jhi - jlo, std::memory_order_relaxed);
      });
    }
  });
  EXPECT_EQ(total.load(), 64u);
}

TEST(ThreadPoolTest, ExceptionInChunkPropagatesToCaller) {
  for (size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.ParallelFor(0, 100, 1,
                         [&](size_t lo, size_t) {
                           if (lo == 57) throw std::runtime_error("boom");
                         }),
        std::runtime_error);
  }
}

TEST(ThreadPoolTest, DefaultThreadCountHonorsEnvironment) {
  ASSERT_EQ(setenv("GENALG_THREADS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::DefaultThreadCount(), 3u);
  ASSERT_EQ(setenv("GENALG_THREADS", "0", 1), 0);  // Invalid: fall back.
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
  ASSERT_EQ(setenv("GENALG_THREADS", "junk", 1), 0);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
  ASSERT_EQ(unsetenv("GENALG_THREADS"), 0);
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1u);
  ThreadPool defaulted(0);
  EXPECT_EQ(defaulted.size(), ThreadPool::DefaultThreadCount());
}

TEST(ThreadPoolTest, GlobalPoolIsSharedAndUsable) {
  ThreadPool* global = ThreadPool::Global();
  ASSERT_NE(global, nullptr);
  EXPECT_EQ(global, ThreadPool::Global());
  std::atomic<size_t> count{0};
  global->ParallelFor(0, 32, 4, [&](size_t lo, size_t hi) {
    count.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 32u);
}

// ------------------------------------------------- Bounded-queue mode.

// A task that parks until released — lets a test saturate the queue
// deterministically.
class Latch {
 public:
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return released_; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool released_ = false;
};

TEST(ThreadPoolTest, BoundedSizeOnePoolSpawnsAWorker) {
  // Unlike the unbounded size-1 pool (inline execution), a bounded pool
  // must execute asynchronously or the bound would be meaningless.
  Latch latch;
  ThreadPool pool(1, 4);
  EXPECT_EQ(pool.max_queue(), 4u);
  std::atomic<bool> ran{false};
  pool.Submit([&] {
    latch.Wait();
    ran.store(true);
  });
  // If this were inline, Submit would have blocked forever on the latch.
  EXPECT_FALSE(ran.load());
  latch.Release();
}

TEST(ThreadPoolTest, TrySubmitRejectsWhenTheQueueIsFull) {
  auto before = obs::Registry::Global().Snapshot();
  Latch latch;
  ThreadPool pool(1, 2);
  // Occupy the worker, then fill both queue slots.
  pool.Submit([&] { latch.Wait(); });
  while (pool.queued() > 0) std::this_thread::yield();  // Worker picked it up.
  ASSERT_TRUE(pool.TrySubmit([] {}));
  ASSERT_TRUE(pool.TrySubmit([] {}));
  // Third pending task exceeds the bound: rejected, not queued.
  std::atomic<bool> rejected_ran{false};
  EXPECT_FALSE(pool.TrySubmit([&] { rejected_ran.store(true); }));
  EXPECT_EQ(pool.queued(), 2u);
  latch.Release();
  auto delta = obs::Registry::Global().Snapshot().Since(before);
  EXPECT_GE(delta.counter("base.pool.tasks_rejected"), 1u);
  EXPECT_FALSE(rejected_ran.load());
}

TEST(ThreadPoolTest, BoundedSubmitWaitsForASlotAndAlwaysRuns) {
  Latch latch;
  ThreadPool pool(1, 1);
  std::atomic<int> ran{0};
  pool.Submit([&] { latch.Wait(); ++ran; });   // Worker.
  pool.Submit([&] { ++ran; });                  // Queue slot.
  // This submission finds the queue full and must block until the latch
  // releases the worker — run it from a helper thread and release.
  std::atomic<bool> third_submitted{false};
  std::thread submitter([&] {
    pool.Submit([&] { ++ran; });
    third_submitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_submitted.load()) << "Submit should still be blocked";
  latch.Release();
  submitter.join();
  EXPECT_TRUE(third_submitted.load());
  // Wait for all three tasks to execute (dtor also drains, but assert
  // explicitly).
  for (int i = 0; i < 1000 && ran.load() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPoolTest, UnboundedTrySubmitAlwaysAccepts) {
  ThreadPool pool(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(pool.TrySubmit([] {}));
  }
}

TEST(ThreadPoolTest, BoundedPoolParallelForIsExemptFromTheBound) {
  // ParallelFor's internal chunks are not external admissions; a tiny
  // bound must not deadlock or reject them.
  ThreadPool pool(2, 1);
  std::atomic<size_t> count{0};
  pool.ParallelFor(0, 64, 4, [&](size_t lo, size_t hi) {
    count.fetch_add(hi - lo, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 64u);
}

}  // namespace
}  // namespace genalg
