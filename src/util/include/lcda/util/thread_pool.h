#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace lcda::util {

/// The largest thread or worker-process count a setting may ask for.
/// `lcda_run --parallelism` and `--distribute`, the scenario key
/// `parallelism` and ThreadPool itself reject a larger value;
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
  class Fanout;

  /// Spawns `threads` workers. Values < 1 are clamped to 1; a value above
  /// kMaxParallelism throws std::invalid_argument before any thread starts.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Starts body(0..n-1) on at most `workers` pool threads and returns at
  /// once. Threads claim items one at a time, so bodies must be
  /// independent; an item that throws makes the fan-out skip the items
  /// nobody has claimed yet. The handle tracks this call alone, so a pool
  /// job may fan out on its own pool.
  [[nodiscard]] Fanout start(std::size_t n,
                             std::function<void(std::size_t)> body,
                             int workers = kMaxParallelism);

  /// start(n, body, size() - 1).wait(): the calling thread and size() - 1
  /// workers share the items, so the concurrency is exactly size().
  /// Rethrows the first exception raised by an iteration.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Resolves a user-facing parallelism knob: values >= 1 are taken as-is,
  /// anything else (0 = "auto") maps to the hardware concurrency. A value
  /// above kMaxParallelism throws std::invalid_argument.
  [[nodiscard]] static int resolve_parallelism(int requested);

 private:
  struct FanoutState;

  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::shared_ptr<FanoutState>> queue_;
  std::mutex mutex_;
  std::condition_variable work_cv_;
  bool stopping_ = false;
};

/// The completion of one ThreadPool::start call. wait() runs the items no
/// worker has claimed on the calling thread, blocks until the claimed ones
/// finish and rethrows this fan-out's first exception. Destroying or
/// assigning over an unwaited handle abandons the work: it skips the
/// unclaimed items, blocks until the claimed ones finish and drops their
/// exception. A default or waited handle is empty.
class ThreadPool::Fanout {
 public:
  Fanout() = default;
  Fanout(Fanout&& other) noexcept = default;
  Fanout& operator=(Fanout&& other) noexcept;
  ~Fanout();

  void wait();

 private:
  friend class ThreadPool;
  explicit Fanout(std::shared_ptr<FanoutState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<FanoutState> state_;
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
