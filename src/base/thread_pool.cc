#include "base/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>

#include "obs/metrics.h"

namespace genalg {

namespace {

// Metric pointers resolved once; the hot path then touches only relaxed
// atomics. base.pool.* per DESIGN.md naming.
struct PoolMetrics {
  obs::Counter* tasks_submitted;
  obs::Counter* tasks_executed;
  obs::Counter* tasks_rejected;
  obs::Counter* busy_us;
  obs::Counter* grain_clamped;
  obs::Gauge* queue_depth;
};

const PoolMetrics& Metrics() {
  static const PoolMetrics m = {
      obs::Registry::Global().GetCounter("base.pool.tasks_submitted"),
      obs::Registry::Global().GetCounter("base.pool.tasks_executed"),
      obs::Registry::Global().GetCounter("base.pool.tasks_rejected"),
      obs::Registry::Global().GetCounter("base.pool.busy_us"),
      obs::Registry::Global().GetCounter("base.pool.grain_clamped"),
      obs::Registry::Global().GetGauge("base.pool.queue_depth"),
  };
  return m;
}

}  // namespace

ThreadPool::ThreadPool(size_t threads)
    : threads_(threads == 0 ? DefaultThreadCount() : threads) {
  // Size 1 ⇒ strictly inline execution; no threads, no queue traffic.
  if (threads_ <= 1) return;
  workers_.reserve(threads_);
  for (size_t i = 0; i < threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::ThreadPool(size_t threads, size_t max_queue)
    : threads_(threads == 0 ? DefaultThreadCount() : threads),
      max_queue_(max_queue == 0 ? 1 : max_queue) {
  // A bounded pool always spawns workers — a bound over inline execution
  // would be meaningless (the "queue" would never hold anything).
  workers_.reserve(threads_);
  for (size_t i = 0; i < threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  space_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ with a drained queue.
      task = std::move(queue_.front());
      queue_.pop_front();
      if (max_queue_ != 0) space_.notify_one();
    }
    Metrics().queue_depth->Sub(1);
    auto start = std::chrono::steady_clock::now();
    task();
    auto elapsed = std::chrono::steady_clock::now() - start;
    Metrics().busy_us->Add(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count()));
    Metrics().tasks_executed->Increment();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  Metrics().tasks_submitted->Increment();
  if (workers_.empty()) {
    task();
    Metrics().tasks_executed->Increment();
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (max_queue_ != 0 && queue_.size() >= max_queue_) {
      space_.wait(lock, [this] {
        return stopping_ || queue_.size() < max_queue_;
      });
      if (stopping_) return;  // Dropped: the pool is being destroyed.
    }
    queue_.push_back(std::move(task));
  }
  Metrics().queue_depth->Add(1);
  wake_.notify_one();
}

bool ThreadPool::TrySubmit(std::function<void()> task) {
  if (workers_.empty()) {
    // Unbounded inline pool: run it now, as Submit would.
    Metrics().tasks_submitted->Increment();
    task();
    Metrics().tasks_executed->Increment();
    return true;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (max_queue_ != 0 && queue_.size() >= max_queue_) {
      Metrics().tasks_rejected->Increment();
      return false;
    }
    queue_.push_back(std::move(task));
  }
  Metrics().tasks_submitted->Increment();
  Metrics().queue_depth->Add(1);
  wake_.notify_one();
  return true;
}

size_t ThreadPool::queued() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             const std::function<void(size_t, size_t)>&
                                 body) {
  if (begin >= end) return;
  if (grain == 0) {
    // A grain of 0 would make the chunk-count division degenerate; clamp
    // to 1 and record that a caller passed a nonsense grain.
    Metrics().grain_clamped->Increment();
    grain = 1;
  }
  const size_t chunks = (end - begin + grain - 1) / grain;
  if (workers_.empty() || chunks == 1) {
    for (size_t c = 0; c < chunks; ++c) {
      size_t lo = begin + c * grain;
      body(lo, std::min(lo + grain, end));
    }
    return;
  }

  // All runners (enqueued tasks + this thread) claim chunks from one
  // shared counter; `done` counts finished chunks so the caller can wait
  // for the tail even when other runners execute it.
  struct State {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex mutex;
    std::condition_variable all_done;
  };
  auto state = std::make_shared<State>();
  auto run_chunks = [state, begin, end, grain, chunks, &body] {
    for (;;) {
      size_t c = state->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      if (!state->failed.load(std::memory_order_relaxed)) {
        try {
          size_t lo = begin + c * grain;
          body(lo, std::min(lo + grain, end));
        } catch (...) {
          bool expected = false;
          if (state->failed.compare_exchange_strong(expected, true)) {
            state->error = std::current_exception();
          }
        }
      }
      if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          chunks) {
        std::lock_guard<std::mutex> lock(state->mutex);
        state->all_done.notify_all();
      }
    }
  };

  const size_t helpers = std::min(threads_ - 1, chunks - 1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (size_t i = 0; i < helpers; ++i) queue_.push_back(run_chunks);
  }
  Metrics().tasks_submitted->Add(helpers);
  Metrics().queue_depth->Add(static_cast<int64_t>(helpers));
  wake_.notify_all();
  run_chunks();  // The caller works too.
  {
    std::unique_lock<std::mutex> lock(state->mutex);
    state->all_done.wait(lock, [&] {
      return state->done.load(std::memory_order_acquire) == chunks;
    });
  }
  if (state->error) std::rethrow_exception(state->error);
}

size_t ThreadPool::DefaultThreadCount() {
  if (const char* env = std::getenv("GENALG_THREADS")) {
    char* end = nullptr;
    long parsed = std::strtol(env, &end, 10);
    if (end != env && parsed > 0) return static_cast<size_t>(parsed);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

ThreadPool* ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(DefaultThreadCount());
  return pool;
}

}  // namespace genalg
