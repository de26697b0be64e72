#pragma once

#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include "lcda/obs/metrics.h"

namespace lcda::obs {

/// Periodic stderr heartbeat (`--metrics-interval=SEC`): every interval a
/// background thread prints one `[obs] ...` line with the registry's
/// current counters. Read-only over the registry, so it can never perturb
/// a run — and it replaces ad-hoc progress prints scattered through long
/// studies.
class StatsReporter {
 public:
  /// Starts the heartbeat thread; interval_sec <= 0 starts nothing.
  explicit StatsReporter(double interval_sec);
  ~StatsReporter();
  StatsReporter(const StatsReporter&) = delete;
  StatsReporter& operator=(const StatsReporter&) = delete;

  /// Stops the thread (idempotent; the destructor calls it). Prints one
  /// final line so short runs still report.
  void stop();

 private:
  void heartbeat_line(double elapsed_sec) const;

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool started_ = false;
  std::thread thread_;
};

/// Writes a snapshot to `path` as a pretty-printed lcda-metrics-v2
/// document with a trailing newline. Throws on I/O failure.
void write_metrics_file(const MetricsSnapshot& snapshot,
                        const std::string& path);

}  // namespace lcda::obs
