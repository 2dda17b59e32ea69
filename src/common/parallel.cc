#include "dbwipes/common/parallel.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "dbwipes/common/exec_context.h"

namespace dbwipes {

namespace {

/// True on threads currently executing pool work; a nested ParallelFor
/// on such a thread must not block on the pool it is running inside.
thread_local bool t_in_pool_worker = false;

}  // namespace

size_t DefaultParallelism() {
  static const size_t cached = [] {
    if (const char* env = std::getenv("DBWIPES_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v >= 1) return static_cast<size_t>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return static_cast<size_t>(hw == 0 ? 1 : hw);
  }();
  return cached;
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool(DefaultParallelism());
  return pool;
}

ThreadPool::ThreadPool(size_t num_threads) {
  // The calling thread participates in Run, so N-way parallelism needs
  // N-1 workers.
  const size_t workers = num_threads > 1 ? num_threads - 1 : 0;
  threads_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::WorkerLoop() {
  t_in_pool_worker = true;
  size_t seen_epoch = 0;
  for (;;) {
    const std::function<void()>* side = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return shutdown_ || side_ != nullptr ||
               (task_ != nullptr && task_epoch_ != seen_epoch &&
                next_chunk_ < num_chunks_);
      });
      if (shutdown_) return;
      if (side_ != nullptr) {
        side = side_;
        side_ = nullptr;
      } else {
        seen_epoch = task_epoch_;
      }
    }
    if (side == nullptr) {
      DrainCurrentTask();
      continue;
    }
    std::exception_ptr error = RunCounted(*side);
    {
      std::lock_guard<std::mutex> lock(mu_);
      side_error_ = error;
      side_done_ = true;
    }
    side_cv_.notify_all();
  }
}

std::exception_ptr ThreadPool::RunCounted(const std::function<void()>& fn) {
  std::exception_ptr error;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    fn();
  } catch (...) {
    error = std::current_exception();
  }
  stat_busy_ns_.fetch_add(
      static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()),
      std::memory_order_relaxed);
  stat_chunks_.fetch_add(1, std::memory_order_relaxed);
  return error;
}

void ThreadPool::DrainCurrentTask() {
  for (;;) {
    size_t chunk;
    const std::function<void(size_t)>* fn;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (task_ == nullptr || next_chunk_ >= num_chunks_) return;
      if (task_error_) {
        // A chunk already failed: retire the unclaimed remainder so
        // Run's completion condition is reached without running them.
        chunks_done_ += num_chunks_ - next_chunk_;
        next_chunk_ = num_chunks_;
        if (chunks_done_ == num_chunks_) done_cv_.notify_all();
        return;
      }
      chunk = next_chunk_++;
      fn = task_;
    }
    std::exception_ptr error;
    const auto t0 = std::chrono::steady_clock::now();
    try {
      (*fn)(chunk);
    } catch (...) {
      error = std::current_exception();
    }
    // Per-chunk utilization bookkeeping: two clock reads and two
    // relaxed adds against a chunk body that scans thousands of rows.
    stat_busy_ns_.fetch_add(
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()),
        std::memory_order_relaxed);
    stat_chunks_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (error && (!task_error_ || chunk < task_error_chunk_)) {
        task_error_ = error;
        task_error_chunk_ = chunk;
      }
      if (++chunks_done_ == num_chunks_) done_cv_.notify_all();
    }
  }
}

void ThreadPool::Run(size_t num_chunks,
                     const std::function<void(size_t)>& fn) {
  if (num_chunks == 0) return;
  stat_regions_.fetch_add(1, std::memory_order_relaxed);
  uint64_t peak = stat_peak_queue_.load(std::memory_order_relaxed);
  while (num_chunks > peak &&
         !stat_peak_queue_.compare_exchange_weak(
             peak, num_chunks, std::memory_order_relaxed)) {
  }
  if (threads_.empty() || t_in_pool_worker) {
    // No workers, or called from inside the pool: run inline.
    for (size_t c = 0; c < num_chunks; ++c) {
      const auto t0 = std::chrono::steady_clock::now();
      fn(c);
      stat_busy_ns_.fetch_add(
          static_cast<uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count()),
          std::memory_order_relaxed);
      stat_chunks_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  // One region at a time; a second caller queues here.
  done_cv_.wait(lock, [&] { return task_ == nullptr; });
  task_ = &fn;
  ++task_epoch_;
  num_chunks_ = num_chunks;
  next_chunk_ = 0;
  chunks_done_ = 0;
  task_error_ = nullptr;
  task_error_chunk_ = 0;
  lock.unlock();
  work_cv_.notify_all();

  // Participate instead of idling.
  const bool was_worker = t_in_pool_worker;
  t_in_pool_worker = true;
  DrainCurrentTask();
  t_in_pool_worker = was_worker;

  lock.lock();
  done_cv_.wait(lock, [&] { return chunks_done_ == num_chunks_; });
  task_ = nullptr;
  std::exception_ptr error = task_error_;
  task_error_ = nullptr;
  lock.unlock();
  // Wake any caller queued on task_ == nullptr.
  done_cv_.notify_all();
  // Propagate the first (lowest-chunk) failure to the caller, exactly
  // as the serial path would have.
  if (error) std::rethrow_exception(error);
}

bool ThreadPool::TryRunBeside(const std::function<void()>& side,
                              const std::function<void()>& main) {
  if (threads_.empty() || t_in_pool_worker) return false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (task_ != nullptr || side_busy_) return false;
    side_ = &side;
    side_busy_ = true;
    side_done_ = false;
    side_error_ = nullptr;
  }
  // Every idle worker races for `side`, so one that the host has not
  // scheduled does not hold it up.
  work_cv_.notify_all();
  stat_regions_.fetch_add(1, std::memory_order_relaxed);

  const bool was_worker = t_in_pool_worker;
  t_in_pool_worker = true;
  const std::exception_ptr main_error = RunCounted(main);
  std::unique_lock<std::mutex> lock(mu_);
  std::exception_ptr side_error;
  if (side_ != nullptr) {
    // No worker took `side`: run it here.
    side_ = nullptr;
    lock.unlock();
    side_error = RunCounted(side);
    lock.lock();
  } else {
    side_cv_.wait(lock, [&] { return side_done_; });
    side_error = side_error_;
    side_error_ = nullptr;
  }
  side_busy_ = false;
  lock.unlock();
  t_in_pool_worker = was_worker;
  if (main_error) std::rethrow_exception(main_error);
  if (side_error) std::rethrow_exception(side_error);
  return true;
}

ThreadPool::StatsSnapshot ThreadPool::stats() const {
  StatsSnapshot s;
  s.regions = stat_regions_.load(std::memory_order_relaxed);
  s.chunks = stat_chunks_.load(std::memory_order_relaxed);
  s.busy_ms = static_cast<double>(
                  stat_busy_ns_.load(std::memory_order_relaxed)) /
              1e6;
  s.peak_queue_depth = stat_peak_queue_.load(std::memory_order_relaxed);
  return s;
}

void ParallelFor(size_t begin, size_t end,
                 const std::function<void(size_t, size_t)>& chunk_fn,
                 const ParallelOptions& options) {
  if (begin >= end) return;
  if (options.ctx != nullptr && options.ctx->StopRequested()) return;
  const size_t n = end - begin;
  const size_t threads =
      options.num_threads == 0 ? DefaultParallelism() : options.num_threads;
  if (threads <= 1 || n < options.min_items_for_threading) {
    if (options.ctx == nullptr) {
      chunk_fn(begin, end);
      return;
    }
    // Serial anytime path: same several-chunks-per-thread split (with
    // one thread), so a cancel or deadline still winds the loop down
    // within one chunk instead of only being checked at entry.
    const size_t chunk = std::max<size_t>(1, (n + 3) / 4);
    for (size_t lo = begin; lo < end; lo += chunk) {
      if (options.ctx->StopRequested()) return;
      chunk_fn(lo, std::min(end, lo + chunk));
    }
    return;
  }
  // Several chunks per thread smooths imbalance between cheap and
  // expensive items; boundaries depend only on n and the chunk size.
  const size_t target_chunks = threads * 4;
  const size_t chunk_size = std::max<size_t>(1, (n + target_chunks - 1) /
                                                    target_chunks);
  const size_t num_chunks = (n + chunk_size - 1) / chunk_size;
  ThreadPool::Global().Run(num_chunks, [&](size_t c) {
    // Cooperative stop: skip chunks not yet started once the context
    // asks to wind down (the chunk in flight on each worker finishes).
    if (options.ctx != nullptr && options.ctx->StopRequested()) return;
    const size_t lo = begin + c * chunk_size;
    const size_t hi = std::min(end, lo + chunk_size);
    chunk_fn(lo, hi);
  });
}

void ParallelForEach(size_t begin, size_t end,
                     const std::function<void(size_t)>& fn,
                     const ParallelOptions& options) {
  ParallelFor(
      begin, end,
      [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) fn(i);
      },
      options);
}

Status ParallelForStatus(size_t n, const std::function<Status(size_t)>& fn,
                         const ParallelOptions& options) {
  if (n == 0) return Status::OK();
  std::mutex mu;
  size_t first_bad = n;
  Status first_status = Status::OK();
  try {
    ParallelFor(
        0, n,
        [&](size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) {
            {
              // Cheap early-out once some chunk failed; correctness does
              // not depend on it.
              std::lock_guard<std::mutex> lock(mu);
              if (first_bad < n && i > first_bad) break;
            }
            if (options.ctx != nullptr && options.ctx->StopRequested()) {
              break;
            }
            Status st = fn(i);
            if (!st.ok()) {
              std::lock_guard<std::mutex> lock(mu);
              if (i < first_bad) {
                first_bad = i;
                first_status = std::move(st);
              }
              break;
            }
          }
        },
        options);
  } catch (const std::exception& e) {
    return Status::RuntimeError(std::string("parallel task failed: ") +
                                e.what());
  } catch (...) {
    return Status::RuntimeError("parallel task failed: unknown exception");
  }
  if (!first_status.ok()) return first_status;
  if (options.ctx != nullptr) return options.ctx->CheckContinue();
  return first_status;
}

}  // namespace dbwipes
