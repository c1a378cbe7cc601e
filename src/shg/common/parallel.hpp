// Minimal thread-pool parallelism for coarse-grained fan-out loops.
//
// Contract (relied on by DSE screening, exploration and load sweeps):
//  * parallel_for(n, fn) invokes fn(i) exactly once for every i in [0, n)
//    (unless a task throws, which aborts the remaining unclaimed tasks);
//  * tasks write results into caller-owned slots indexed by i, so the
//    observable output ordering is deterministic and identical to a serial
//    loop regardless of the worker count or interleaving;
//  * fn must not touch shared mutable state (give each task its own PRNG,
//    workspace and output slot — seed per-task PRNGs from the task index);
//  * exceptions thrown by fn are captured and the first one (by task index)
//    is rethrown on the calling thread after all workers finish;
//  * the worker count honors set_max_threads(); with <= 1 workers (or n <= 1)
//    the loop degrades to a plain serial loop on the calling thread, which
//    the determinism tests use as the reference execution.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "shg/common/error.hpp"

namespace shg {

namespace detail {
inline std::atomic<int>& max_threads_setting() {
  static std::atomic<int> value{0};  // 0 = auto (hardware concurrency)
  return value;
}
}  // namespace detail

/// Caps the number of worker threads parallel_for may use. 0 restores the
/// automatic choice (hardware concurrency); 1 forces serial execution.
inline void set_max_threads(int n) {
  SHG_REQUIRE(n >= 0, "thread cap must be >= 0 (0 = auto)");
  detail::max_threads_setting().store(n, std::memory_order_relaxed);
}

/// The effective worker cap: set_max_threads() value, or the hardware
/// concurrency when unset (at least 1).
inline int max_threads() {
  const int setting =
      detail::max_threads_setting().load(std::memory_order_relaxed);
  if (setting > 0) return setting;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// Runs fn(i) for every i in [0, n) across up to max_threads() workers
/// (never more than n). Tasks are claimed from a shared atomic counter, so
/// long tasks do not stall short ones. Blocks until every task has
/// finished.
template <typename Fn>
void parallel_for(std::size_t n, Fn&& fn) {
  if (n == 0) return;
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(max_threads()), n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::atomic<bool> have_failure{false};
  // First failure by task index, so the rethrown error is deterministic.
  std::mutex failure_mutex;
  std::size_t failed_index = n;
  std::exception_ptr failure = nullptr;

  auto worker = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      if (have_failure.load(std::memory_order_relaxed)) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(failure_mutex);
        if (i < failed_index) {
          failed_index = i;
          failure = std::current_exception();
        }
        have_failure.store(true, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t t = 1; t < workers; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  if (failure) std::rethrow_exception(failure);
}

/// Persistent worker pool for open-ended task streams — the dispatch
/// substrate of the serving layer (src/shg/serve/), where requests arrive
/// continuously and fork-join parallel_for (which spawns and joins threads
/// per call) is the wrong shape.
///
/// Contract:
///  * submit() enqueues one task; some worker executes it exactly once.
///    Tasks are dequeued in FIFO order, but tasks on different workers run
///    concurrently and may COMPLETE in any order — callers needing a
///    deterministic output order tag tasks themselves (the serve layer
///    correlates by request id);
///  * tasks must confine shared mutable state behind their own
///    synchronization (the serve layer's session tiers are sharded and
///    locked for exactly this reason);
///  * a task that throws is contained: the exception is swallowed after
///    invoking the pool's error handler (set_error_handler; default
///    ignores), and the worker continues — one bad request must never take
///    the pool down;
///  * drain() blocks until every task submitted so far has finished;
///  * the destructor drains, then joins every worker.
class WorkerPool {
 public:
  /// `workers` = 0 uses max_threads(). At least one worker always runs.
  explicit WorkerPool(int workers = 0) {
    const int requested = workers > 0 ? workers : max_threads();
    const int count = std::max(requested, 1);
    threads_.reserve(static_cast<std::size_t>(count));
    for (int t = 0; t < count; ++t) {
      threads_.emplace_back([this] { run_worker(); });
    }
  }

  ~WorkerPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  std::size_t worker_count() const { return threads_.size(); }

  /// Installs the handler invoked (on the worker thread) when a task
  /// throws; pass nullptr to restore the ignore-errors default. Not
  /// synchronized against in-flight tasks: install before submitting.
  void set_error_handler(std::function<void(std::exception_ptr)> handler) {
    on_error_ = std::move(handler);
  }

  void submit(std::function<void()> task) {
    SHG_REQUIRE(task != nullptr, "cannot submit a null task");
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      SHG_REQUIRE(!stopping_, "cannot submit to a stopping WorkerPool");
      queue_.push_back(std::move(task));
    }
    wake_.notify_one();
  }

  /// Blocks until the queue is empty and no task is executing.
  void drain() {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  }

 private:
  void run_worker() {
    while (true) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping_ && drained
        task = std::move(queue_.front());
        queue_.pop_front();
        ++active_;
      }
      try {
        task();
      } catch (...) {
        if (on_error_) on_error_(std::current_exception());
      }
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        --active_;
      }
      idle_.notify_all();
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t active_ = 0;
  bool stopping_ = false;
  std::function<void(std::exception_ptr)> on_error_;
  std::vector<std::thread> threads_;
};

}  // namespace shg
