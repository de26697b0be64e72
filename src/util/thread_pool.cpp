#include "lcda/util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <latch>
#include <stdexcept>
#include <string>

namespace lcda::util {

namespace {

void check_thread_limit(int threads) {
  if (threads <= kMaxParallelism) return;
  throw std::invalid_argument("ThreadPool: " + std::to_string(threads) +
                              " threads is above the limit of " +
                              std::to_string(kMaxParallelism));
}

}  // namespace

/// One start() call, shared by its handle and by every ticket queued for
/// it: a worker that pops a ticket after the handle is gone still finds
/// valid memory, and nothing left to claim.
struct ThreadPool::FanoutState {
  FanoutState(std::size_t n, std::function<void(std::size_t)> body)
      : n(n), body(std::move(body)), settled(static_cast<std::ptrdiff_t>(n)) {}

  /// Claims and runs items until none is left unclaimed.
  void drain() {
    std::ptrdiff_t ran = 0;
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      ++ran;
      try {
        body(i);
      } catch (...) {
        if (!failed.exchange(true)) error = std::current_exception();
        ran += skip_unclaimed();
      }
    }
    if (ran > 0) settled.count_down(ran);
  }

  /// Claims every item nobody has claimed yet, without running it.
  std::ptrdiff_t skip_unclaimed() {
    const std::size_t first = next.exchange(n);
    return first < n ? static_cast<std::ptrdiff_t>(n - first) : 0;
  }

  const std::size_t n;
  const std::function<void(std::size_t)> body;
  std::atomic<std::size_t> next{0};
  std::latch settled;  ///< items left to run or skip
  std::atomic<bool> failed{false};
  std::exception_ptr error;  ///< written once, by whoever set `failed`
};

ThreadPool::ThreadPool(int threads) {
  check_thread_limit(threads);
  const int n = std::max(threads, 1);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock lock(mutex_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::shared_ptr<FanoutState> ticket;
    {
      std::unique_lock lock(mutex_);
      work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      ticket = std::move(queue_.front());
      queue_.pop_front();
    }
    ticket->drain();
  }
}

ThreadPool::Fanout ThreadPool::start(std::size_t n,
                                     std::function<void(std::size_t)> body,
                                     int workers) {
  if (n == 0) return {};
  auto state = std::make_shared<FanoutState>(n, std::move(body));
  const std::size_t tickets = std::min(
      n, static_cast<std::size_t>(std::clamp(workers, 0, size())));
  if (tickets > 0) {
    {
      std::unique_lock lock(mutex_);
      queue_.insert(queue_.end(), tickets, state);
    }
    if (tickets == 1) {
      work_cv_.notify_one();
    } else {
      work_cv_.notify_all();
    }
  }
  return Fanout(std::move(state));
}

void ThreadPool::Fanout::wait() {
  if (!state_) return;
  const std::shared_ptr<FanoutState> state = std::move(state_);
  state->drain();
  state->settled.wait();
  if (state->error) std::rethrow_exception(state->error);
}

ThreadPool::Fanout::~Fanout() {
  if (!state_) return;
  state_->settled.count_down(state_->skip_unclaimed());
  state_->settled.wait();
}

ThreadPool::Fanout& ThreadPool::Fanout::operator=(Fanout&& other) noexcept {
  Fanout old = std::move(*this);  // settles the fan-out this handle held
  state_ = std::move(other.state_);
  return *this;
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  start(n, [&body](std::size_t i) { body(i); }, size() - 1).wait();
}

ChunkRange chunk_range(std::size_t n, std::size_t chunks, std::size_t chunk) {
  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;
  ChunkRange range;
  range.begin = chunk * base + std::min(chunk, extra);
  range.end = range.begin + base + (chunk < extra ? 1 : 0);
  return range;
}

int ThreadPool::resolve_parallelism(int requested) {
  check_thread_limit(requested);
  if (requested >= 1) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void parallel_for_each_index(ThreadPool* pool, std::size_t n,
                             const std::function<void(std::size_t)>& body) {
  if (pool == nullptr || pool->size() <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  pool->parallel_for(n, body);
}

}  // namespace lcda::util
