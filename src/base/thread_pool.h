#ifndef GENALG_BASE_THREAD_POOL_H_
#define GENALG_BASE_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace genalg {

/// A fixed-size worker pool with a shared work queue — the concurrency
/// substrate for the parallel k-mer index build, the ETL per-source
/// extract, and batched seed-and-extend alignment.
///
/// Design rules (see DESIGN.md "Concurrency model"):
///  - A pool of size 1 spawns no worker threads at all; every task runs
///    inline on the calling thread, in submission order. The serial code
///    path is therefore always available and is the default on
///    single-core machines.
///  - Tasks must not throw. If one does, the first exception is captured
///    and rethrown on the thread that waits (ParallelFor), after all
///    other chunks have finished.
///  - The pool itself guarantees nothing about ordering between tasks;
///    callers that need deterministic results must make each task's
///    output land in a slot keyed by task index and do any merging
///    themselves (this is how Build/InitialLoad stay byte-identical to
///    their serial runs).
class ThreadPool {
 public:
  /// Creates a pool running `threads` workers; 0 means
  /// DefaultThreadCount(). A size of 1 creates no threads.
  explicit ThreadPool(size_t threads = 0);

  /// Bounded-queue mode: at most `max_queue` tasks may be pending (must
  /// be >= 1). TrySubmit reports rejection instead of queueing past the
  /// bound — the admission-control primitive of the serving layer — and
  /// Submit waits for a slot (back-pressure). A bounded pool always
  /// spawns workers, even at size 1: the bound is only meaningful when
  /// submission is asynchronous, so the size-1 inline shortcut applies to
  /// unbounded pools only. ParallelFor is exempt from the bound: its
  /// helper tasks are internal work the calling thread also executes, not
  /// external admissions.
  ThreadPool(size_t threads, size_t max_queue);

  /// Drains outstanding tasks and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of threads that may run tasks concurrently (>= 1). The
  /// calling thread of ParallelFor participates, so with size() == n a
  /// ParallelFor uses up to n CPUs, not n + 1.
  size_t size() const { return threads_; }

  /// Enqueues one task for asynchronous execution (inline when the pool
  /// is unbounded with size() == 1). Fire-and-forget: use ParallelFor
  /// when completion must be awaited. On a full bounded queue Submit
  /// waits for a slot; the task always executes.
  void Submit(std::function<void()> task);

  /// Bounded pools only (always true on unbounded ones): enqueues the
  /// task if a queue slot is free and returns true, else returns false
  /// WITHOUT running the task — the caller owns the rejection (the
  /// server turns it into error{overloaded}).
  bool TrySubmit(std::function<void()> task);

  /// The queue bound (0 = unbounded).
  size_t max_queue() const { return max_queue_; }

  /// Tasks currently queued (racy snapshot, for monitoring).
  size_t queued() const;

  /// Splits [begin, end) into chunks of at most `grain` indices and runs
  /// `body(chunk_begin, chunk_end)` for each, returning once every chunk
  /// has finished. Chunk boundaries depend only on (begin, end, grain) —
  /// never on the pool size — so a chunk's index identifies its shard
  /// deterministically across pool sizes. With size() == 1 (or a single
  /// chunk) the chunks run inline in ascending order: exactly the serial
  /// loop.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t)>& body);

  /// The pool size requested by the environment: GENALG_THREADS if set to
  /// a positive integer, else std::thread::hardware_concurrency() (at
  /// least 1). Re-read on every call, so tests may setenv between pools.
  static size_t DefaultThreadCount();

  /// The process-wide shared pool, created on first use with
  /// DefaultThreadCount() threads. Never destroyed before exit.
  static ThreadPool* Global();

 private:
  void WorkerLoop();

  size_t threads_;
  size_t max_queue_ = 0;  // 0 = unbounded.
  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable space_;  // Signaled when a bounded queue drains.
  bool stopping_ = false;
};

}  // namespace genalg

#endif  // GENALG_BASE_THREAD_POOL_H_
