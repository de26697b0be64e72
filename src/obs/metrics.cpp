#include "lcda/obs/metrics.h"

#include <stdexcept>

#include "lcda/util/logging.h"

namespace lcda::obs {

namespace {

constexpr std::string_view kMetricsFormat = "lcda-metrics-v2";

}  // namespace

namespace detail {

std::size_t assign_stripe() noexcept {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail

long long HistogramData::total_count() const {
  long long total = 0;
  for (long long c : counts) total += c;
  return total;
}

long long MetricsSnapshot::counter(std::string_view name) const {
  const auto it = counters.find(std::string(name));
  return it == counters.end() ? 0 : it->second;
}

void MetricsSnapshot::merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (const auto& [name, hist] : other.histograms) {
    const auto it = histograms.find(name);
    if (it == histograms.end()) {
      histograms[name] = hist;
      continue;
    }
    HistogramData& mine = it->second;
    if (mine.bounds != hist.bounds || mine.counts.size() != hist.counts.size()) {
      util::warn_once("obs-histogram-bounds:" + name, "obs",
                      "histogram \"" + name +
                          "\" has mismatched bounds across snapshots; "
                          "keeping the first and dropping the other");
      continue;
    }
    for (std::size_t i = 0; i < mine.counts.size(); ++i) {
      mine.counts[i] += hist.counts[i];
    }
    mine.sum += hist.sum;
  }
}

MetricsSnapshot MetricsSnapshot::delta_since(const MetricsSnapshot& base) const {
  MetricsSnapshot out = *this;
  for (const auto& [name, value] : base.counters) {
    const auto it = out.counters.find(name);
    if (it != out.counters.end()) it->second -= value;
  }
  for (const auto& [name, hist] : base.histograms) {
    const auto it = out.histograms.find(name);
    if (it == out.histograms.end()) continue;
    HistogramData& mine = it->second;
    if (mine.bounds != hist.bounds || mine.counts.size() != hist.counts.size()) {
      continue;  // bounds changed mid-run: keep the absolute values
    }
    for (std::size_t i = 0; i < mine.counts.size(); ++i) {
      mine.counts[i] -= hist.counts[i];
    }
    mine.sum -= hist.sum;
  }
  return out;
}

util::Json MetricsSnapshot::to_json() const {
  util::Json j = util::Json::object();
  j["format"] = kMetricsFormat;
  util::Json cj = util::Json::object();
  for (const auto& [name, value] : counters) cj[name] = value;
  j["counters"] = cj;
  util::Json hj = util::Json::object();
  for (const auto& [name, hist] : histograms) {
    util::Json h = util::Json::object();
    util::Json bounds = util::Json::array();
    for (long long b : hist.bounds) bounds.push_back(b);
    h["bounds"] = bounds;
    util::Json counts = util::Json::array();
    for (long long c : hist.counts) counts.push_back(c);
    h["counts"] = counts;
    h["sum"] = hist.sum;
    hj[name] = h;
  }
  j["histograms"] = hj;
  return j;
}

MetricsSnapshot MetricsSnapshot::from_json(const util::Json& j) {
  if (!j.is_object() || !j.contains("format") ||
      j.at("format").as_string() != kMetricsFormat) {
    throw std::invalid_argument(
        std::string("MetricsSnapshot::from_json: not a ") +
        std::string(kMetricsFormat) + " document");
  }
  MetricsSnapshot snap;
  for (const auto& [name, value] : j.at("counters").items()) {
    snap.counters[name] = value.as_int();
  }
  for (const auto& [name, h] : j.at("histograms").items()) {
    HistogramData hist;
    for (const util::Json& b : h.at("bounds").elements()) {
      hist.bounds.push_back(b.as_int());
    }
    for (const util::Json& c : h.at("counts").elements()) {
      hist.counts.push_back(c.as_int());
    }
    hist.sum = h.at("sum").as_int();
    snap.histograms[name] = hist;
  }
  return snap;
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::enable() { enabled_ = true; }

Histogram Registry::histogram(std::string_view name) {
  if (!enabled_) return Histogram();
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name),
                             std::make_unique<detail::HistogramCells>()).first;
  }
  return Histogram(it->second.get());
}

MetricsSnapshot Registry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard lock(mutex_);
  snap.counters = counters_;
  for (const auto& [name, cells] : histograms_) {
    HistogramData hist;
    hist.bounds.assign(kLatencyBoundsUs.begin(), kLatencyBoundsUs.end());
    hist.counts.assign(detail::kBuckets, 0);
    for (std::size_t stripe = 0; stripe < detail::kStripes; ++stripe) {
      for (std::size_t b = 0; b < detail::kBuckets; ++b) {
        hist.counts[b] +=
            cells->counts[stripe][b].value.load(std::memory_order_relaxed);
      }
      hist.sum += cells->sums[stripe].value.load(std::memory_order_relaxed);
    }
    snap.histograms[name] = std::move(hist);
  }
  return snap;
}

void add_counter(std::string_view name, long long n) {
  Registry& registry = Registry::instance();
  if (!registry.enabled_) return;
  std::lock_guard lock(registry.mutex_);
  registry.counters_[std::string(name)] += n;
}

}  // namespace lcda::obs
