#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace lcda::util {

/// Unified deterministic fault-injection harness, configured once per
/// process from the LCDA_FAULT environment variable. The grammar is a
/// ';'-separated list of clauses, each `<kind>[=<value>]@<scope>:<args>`:
///
///   kill@seed:2            worker _exit(42)s before evaluating seed 2
///   wedge@seed:2           worker stops heartbeating and hangs at seed 2
///   sleep=400@seed:0,1     worker sleeps 400ms before each listed seed
///   kill@episode:9         engine _exit(42)s when the next round to plan
///                          starts at episode >= 9
///   torn-log@episode:9     checkpoint writer truncates the round-log
///                          record for the round starting at episode >= 9,
///                          then _exit(42)s
///
/// Everything except `sleep` arms on attempt 0 only — a retried or
/// resumed shard runs clean, exactly like the legacy LCDA_TEST_DIE_SEED /
/// LCDA_TEST_WEDGE_SEED hooks this harness subsumes. `sleep` fires on
/// every attempt (the straggler-mitigation tests depend on stolen copies
/// being just as slow), matching LCDA_TEST_SEED_SLEEP_MS. Malformed
/// clauses, including negative or overflowing numbers and sleeps above
/// INT_MAX ms, are warned about once and skipped; they never abort a run.
class FaultInjector {
 public:
  struct Spec {
    enum class Kind { kKill, kWedge, kSleep, kTornLog };
    enum class Scope { kSeed, kEpisode };
    Kind kind = Kind::kKill;
    Scope scope = Scope::kSeed;
    std::vector<long long> at;  ///< seed list, or a single episode
    int sleep_ms = 0;
  };

  /// The process-wide injector, parsed from LCDA_FAULT on first use and
  /// cached (so a test that mutates the environment mid-process cannot
  /// perturb runs that already started).
  static const FaultInjector& instance();

  /// Parses a spec string; malformed clauses are dropped and described in
  /// `*error` (first problem wins) when non-null.
  static FaultInjector parse(std::string_view text,
                             std::string* error = nullptr);

  /// Attempt the current shard/run is on. Workers set this from their
  /// spec before executing seeds; attempt-0-only faults consult it (and
  /// the explicit argument of the seed-scoped checks). Defaults to 0.
  static void set_attempt(int attempt);
  static int attempt();

  [[nodiscard]] bool empty() const { return specs_.empty(); }

  // Seed-scoped checks (worker paths). kill/wedge arm on attempt 0 only.
  [[nodiscard]] bool kill_at_seed(long long seed, int attempt) const;
  [[nodiscard]] bool wedge_at_seed(long long seed, int attempt) const;
  [[nodiscard]] int sleep_ms_at_seed(long long seed) const;

  // Episode-scoped checks (engine and checkpoint writer); -1 = not armed.
  // Armed on attempt 0 only, via the process-wide attempt().
  [[nodiscard]] long long kill_episode() const;
  [[nodiscard]] long long torn_log_episode() const;

  [[nodiscard]] const std::vector<Spec>& specs() const { return specs_; }

 private:
  [[nodiscard]] long long episode_of(Spec::Kind kind) const;

  std::vector<Spec> specs_;
};

}  // namespace lcda::util
