#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "lcda/util/json_lite.h"

/// lcda::obs — the process-wide observability substrate: a metrics
/// registry (this header), a span tracer (trace.h) and a periodic stats
/// reporter (reporter.h).
///
/// The registry is OFF by default and zero-cost while off:
///
///  - `add_counter` checks a plain bool and returns: no lock, no atomic,
///    no allocation.
///  - Histogram handles acquired from a disabled registry are inert —
///    observe() is an inlined null-pointer check.
///  - `Registry::instance().enable()` must run before the threads that
///    record metrics start (the CLI enables during flag parsing; workers
///    at process entry). The enabled flag is a plain bool on purpose:
///    checking it on a hot path must not even be an atomic load.
///
/// Everything here is observability-only by contract: counters feed
/// stderr summaries, `--metrics-out` files and the non-reproducible
/// "dist"/"obs" JSON objects — never a byte of a golden trace, a merged
/// manifest entry, or anything else under the engine's byte-identity
/// guarantees.
namespace lcda::obs {

/// The bucket edges of every histogram, in microseconds: a 1-2-5 series
/// from 1us to 10s. Fixed so every process in a study (coordinator +
/// workers) produces mergeable histograms without negotiating bounds.
inline constexpr std::array<long long, 22> kLatencyBoundsUs = {
    1,      2,      5,      10,      20,      50,      100,     200,
    500,    1000,   2000,   5000,    10000,   20000,   50000,   100000,
    200000, 500000, 1000000, 2000000, 5000000, 10000000};

namespace detail {
/// Stripe count: hashes recording threads onto separate cache lines so
/// concurrent seed runs never serialize on a histogram. Power of two
/// (index is masked).
inline constexpr std::size_t kStripes = 16;
inline constexpr std::size_t kBuckets = kLatencyBoundsUs.size() + 1;

/// One cacheline-padded cell. alignas rounds sizeof up to the alignment,
/// so an array of cells strides whole cache lines.
struct alignas(64) Cell {
  std::atomic<long long> value{0};
};

/// Histogram storage: per stripe, one cell per bucket (the last is the
/// overflow bucket) and one for the sum of observed values.
struct HistogramCells {
  Cell counts[kStripes][kBuckets];
  Cell sums[kStripes];
};

/// Small dense per-thread stripe id (assigned on first use, round-robin).
std::size_t assign_stripe() noexcept;
inline std::size_t thread_stripe() noexcept {
  static thread_local const std::size_t stripe = assign_stripe();
  return stripe;
}
}  // namespace detail

/// Fixed-bucket histogram handle. Bucket i counts values v with
/// bounds[i-1] < v <= bounds[i] (bucket 0: v <= bounds[0]); the final
/// bucket counts v > bounds.back(). observe() is a small binary search
/// plus two relaxed striped increments — and a single branch when inert.
class Histogram {
 public:
  Histogram() = default;
  void observe(long long value) noexcept {
    if (cells_ == nullptr) return;
    const std::size_t bucket = static_cast<std::size_t>(
        std::lower_bound(kLatencyBoundsUs.begin(), kLatencyBoundsUs.end(),
                         value) -
        kLatencyBoundsUs.begin());
    const std::size_t stripe =
        detail::thread_stripe() & (detail::kStripes - 1);
    cells_->counts[stripe][bucket].value.fetch_add(1, std::memory_order_relaxed);
    cells_->sums[stripe].value.fetch_add(value, std::memory_order_relaxed);
  }
  [[nodiscard]] bool live() const noexcept { return cells_ != nullptr; }

 private:
  friend class Registry;
  explicit Histogram(detail::HistogramCells* cells) noexcept : cells_(cells) {}
  detail::HistogramCells* cells_ = nullptr;
};

/// A folded histogram as it appears in snapshots: bounds plus one count
/// per bucket (bounds.size() + 1, overflow last) and the sum of observed
/// values.
struct HistogramData {
  std::vector<long long> bounds;
  std::vector<long long> counts;
  long long sum = 0;
  [[nodiscard]] long long total_count() const;
};

/// A point-in-time copy of every metric, detached from the registry.
/// Ordered maps make to_json() deterministic for a given value set.
struct MetricsSnapshot {
  std::map<std::string, long long> counters;
  std::map<std::string, HistogramData> histograms;

  [[nodiscard]] long long counter(std::string_view name) const;

  /// Fold `other` in: counters add, histogram buckets add. Associative and
  /// commutative (given matching histogram bounds), so worker snapshots
  /// fold into study totals in any order. A histogram with mismatched
  /// bounds is kept as-is and the other side dropped (warned once) — a
  /// malformed document must not abort the merge.
  void merge(const MetricsSnapshot& other);

  /// The change between `base` (earlier) and *this: counters and
  /// histograms subtract. How a resident worker scopes its
  /// process-lifetime registry to a single spec.
  [[nodiscard]] MetricsSnapshot delta_since(const MetricsSnapshot& base) const;

  /// JSON round trip (format "lcda-metrics-v2": "counters" and
  /// "histograms"). Keys are emitted in sorted order, so a given value set
  /// always serializes the same way.
  [[nodiscard]] util::Json to_json() const;
  [[nodiscard]] static MetricsSnapshot from_json(const util::Json& j);
};

/// The process-wide metric registry. Histogram storage is created on
/// first acquisition and lives for the process (handles never dangle);
/// acquisition takes a mutex and is meant for setup paths, not
/// per-episode code — acquire once, record through the handle.
class Registry {
 public:
  static Registry& instance();

  /// Arms the registry. Call before the threads that will record start;
  /// idempotent. Handles acquired BEFORE enable() stay inert (the
  /// zero-cost contract outlives the call), so enable first, acquire
  /// second.
  void enable();
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Histogram on the kLatencyBoundsUs grid (microseconds).
  [[nodiscard]] Histogram histogram(std::string_view name);

  /// Copies every counter and sums every histogram's stripes.
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  friend void add_counter(std::string_view name, long long n);
  Registry() = default;

  bool enabled_ = false;  // plain bool: set single-threaded, read hot
  mutable std::mutex mutex_;
  std::map<std::string, long long> counters_;
  std::map<std::string, std::unique_ptr<detail::HistogramCells>, std::less<>>
      histograms_;
};

/// Bumps counter `name` by `n`, the one way to write a counter. Takes the
/// registry lock per call — fine once per run or shard, never inside the
/// episode loop. A no-op while the registry is off.
void add_counter(std::string_view name, long long n);

}  // namespace lcda::obs
