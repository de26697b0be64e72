#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lcda::util {

/// The largest thread or worker-process count a setting may ask for.
/// `lcda_run --parallelism` and `--distribute` and the scenario key
/// `parallelism` reject a larger value as an argument error;
/// LCDA_PARALLELISM falls back to its default.
inline constexpr int kMaxParallelism = 4096;

/// Fixed-size worker pool used to fan out independent evaluations (episode
/// batches, multi-seed studies) without touching determinism: callers
/// pre-derive every task's RNG stream on the submitting thread, so worker
/// scheduling can never reorder random draws.
///
/// A pool of size 1 (or a null pool pointer in the helpers below) degrades
/// to inline execution on the calling thread.
class ThreadPool {
 public:
  /// Spawns `threads` workers. Values < 1 are clamped to 1.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a job. Jobs must not submit to the same pool recursively.
  void submit(std::function<void()> job);

  /// Enqueues a whole batch under one lock acquisition and one
  /// notify_all, instead of a lock + notify per job — the bulk-dispatch
  /// fast path used by the co-design loop's evaluation rounds and by
  /// parallel_for. Jobs run in submission order (FIFO queue) but complete
  /// in any order.
  void submit_batch(std::vector<std::function<void()>> jobs);

  /// Blocks until every submitted job has finished. Rethrows the first
  /// exception raised by a job (first in submission order of completion).
  void wait_idle();

  /// Runs body(0..n-1), distributing iterations over the workers and the
  /// calling thread; returns when all are done. Iteration order across
  /// threads is unspecified, so bodies must be independent. Rethrows the
  /// first exception raised by an iteration.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Resolves a user-facing parallelism knob: values >= 1 are taken as-is,
  /// anything else (0 = "auto") maps to the hardware concurrency.
  [[nodiscard]] static int resolve_parallelism(int requested);

  /// How many contiguous chunks `items` work items should be split into
  /// for a pool of `workers` threads: one chunk per worker, never more
  /// chunks than items, at least one chunk for a non-empty batch. This is
  /// the round fan-out policy of the co-design loop — a worker costs a
  /// whole chunk per wakeup instead of paying queue traffic per item.
  [[nodiscard]] static std::size_t chunks_for(std::size_t items, int workers);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::size_t in_flight_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;
};

/// parallel_for over `pool`, or inline on the calling thread when `pool` is
/// null — the two paths produce identical results for independent bodies.
void parallel_for_each_index(ThreadPool* pool, std::size_t n,
                             const std::function<void(std::size_t)>& body);

/// Half-open range of work items chunk `chunk` (of `chunks`) owns when `n`
/// items are split into balanced contiguous ranges: the first n % chunks
/// chunks take one extra item. Requires chunk < chunks and chunks >= 1.
struct ChunkRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};
[[nodiscard]] ChunkRange chunk_range(std::size_t n, std::size_t chunks,
                                     std::size_t chunk);

}  // namespace lcda::util
