#include "lcda/util/fault.h"

#include <atomic>
#include <cstdlib>
#include <limits>
#include <optional>

#include "lcda/util/logging.h"
#include "lcda/util/strings.h"

namespace lcda::util {

namespace {

std::atomic<int> g_attempt{0};

/// A non-negative decimal no larger than `max`; nullopt otherwise,
/// including on overflow.
std::optional<long long> parse_count(std::string_view text, long long max) {
  const std::optional<long long> value = parse_int(text);
  if (!value || *value < 0 || *value > max) return std::nullopt;
  return value;
}

/// Parses one `<kind>[=<value>]@<scope>:<args>` clause; returns false with
/// a description when it does not fit the grammar.
bool parse_clause(std::string_view clause, FaultInjector::Spec& spec,
                  std::string& problem) {
  const auto at = clause.find('@');
  if (at == std::string_view::npos) {
    problem = "missing '@'";
    return false;
  }
  std::string_view head = clause.substr(0, at);
  std::string_view tail = clause.substr(at + 1);

  std::string_view kind = head;
  std::string_view value;
  if (const auto eq = head.find('='); eq != std::string_view::npos) {
    kind = head.substr(0, eq);
    value = head.substr(eq + 1);
  }

  const auto colon = tail.find(':');
  if (colon == std::string_view::npos) {
    problem = "missing ':' after scope";
    return false;
  }
  const std::string_view scope = tail.substr(0, colon);
  const std::string_view args = tail.substr(colon + 1);

  if (kind == "kill") {
    spec.kind = FaultInjector::Spec::Kind::kKill;
  } else if (kind == "wedge") {
    spec.kind = FaultInjector::Spec::Kind::kWedge;
  } else if (kind == "sleep") {
    spec.kind = FaultInjector::Spec::Kind::kSleep;
  } else if (kind == "torn-log") {
    spec.kind = FaultInjector::Spec::Kind::kTornLog;
  } else {
    problem = "unknown kind '" + std::string(kind) + "'";
    return false;
  }

  if (scope == "seed") {
    spec.scope = FaultInjector::Spec::Scope::kSeed;
  } else if (scope == "episode") {
    spec.scope = FaultInjector::Spec::Scope::kEpisode;
  } else {
    problem = "unknown scope '" + std::string(scope) + "'";
    return false;
  }

  const bool wants_seed = spec.kind == FaultInjector::Spec::Kind::kWedge ||
                          spec.kind == FaultInjector::Spec::Kind::kSleep;
  const bool wants_episode = spec.kind == FaultInjector::Spec::Kind::kTornLog;
  if ((wants_seed && spec.scope != FaultInjector::Spec::Scope::kSeed) ||
      (wants_episode && spec.scope != FaultInjector::Spec::Scope::kEpisode)) {
    problem = "kind '" + std::string(kind) + "' does not take scope '" +
              std::string(scope) + "'";
    return false;
  }

  if (spec.kind == FaultInjector::Spec::Kind::kSleep) {
    const std::optional<long long> ms =
        parse_count(value, std::numeric_limits<int>::max());
    if (!ms) {
      problem = "sleep needs '=<ms>', 0 to INT_MAX";
      return false;
    }
    spec.sleep_ms = static_cast<int>(*ms);
  } else if (!value.empty()) {
    problem = "kind '" + std::string(kind) + "' does not take '=<value>'";
    return false;
  }

  spec.at.clear();
  for (std::string_view part : split(args, ',')) {
    const std::optional<long long> n =
        parse_count(part, std::numeric_limits<long long>::max());
    if (!n) {
      problem = "bad number '" + std::string(part) + "'";
      return false;
    }
    spec.at.push_back(*n);
  }
  if (spec.at.empty()) {
    problem = "empty target list";
    return false;
  }
  if (spec.scope == FaultInjector::Spec::Scope::kEpisode &&
      spec.at.size() != 1) {
    problem = "episode scope takes a single episode";
    return false;
  }
  return true;
}

bool contains(const std::vector<long long>& xs, long long x) {
  for (long long v : xs) {
    if (v == x) return true;
  }
  return false;
}

}  // namespace

const FaultInjector& FaultInjector::instance() {
  static const FaultInjector injector = [] {
    const char* env = std::getenv("LCDA_FAULT");
    return env ? parse(env) : FaultInjector{};
  }();
  return injector;
}

FaultInjector FaultInjector::parse(std::string_view text, std::string* error) {
  FaultInjector injector;
  for (std::string_view clause : split(text, ';')) {
    clause = trim(clause);
    if (clause.empty()) continue;
    Spec spec;
    std::string problem;
    if (parse_clause(clause, spec, problem)) {
      injector.specs_.push_back(std::move(spec));
    } else {
      const std::string message =
          "ignoring LCDA_FAULT clause '" + std::string(clause) + "': " +
          problem;
      warn_once("fault-bad-clause:" + std::string(clause), "fault", message);
      if (error != nullptr && error->empty()) *error = message;
    }
  }
  return injector;
}

void FaultInjector::set_attempt(int attempt) { g_attempt.store(attempt); }
int FaultInjector::attempt() { return g_attempt.load(); }

bool FaultInjector::kill_at_seed(long long seed, int attempt) const {
  if (attempt > 0) return false;
  for (const Spec& s : specs_) {
    if (s.kind == Spec::Kind::kKill && s.scope == Spec::Scope::kSeed &&
        contains(s.at, seed)) {
      return true;
    }
  }
  return false;
}

bool FaultInjector::wedge_at_seed(long long seed, int attempt) const {
  if (attempt > 0) return false;
  for (const Spec& s : specs_) {
    if (s.kind == Spec::Kind::kWedge && contains(s.at, seed)) return true;
  }
  return false;
}

int FaultInjector::sleep_ms_at_seed(long long seed) const {
  for (const Spec& s : specs_) {
    if (s.kind == Spec::Kind::kSleep && contains(s.at, seed)) {
      return s.sleep_ms;
    }
  }
  return 0;
}

long long FaultInjector::episode_of(Spec::Kind kind) const {
  if (attempt() > 0) return -1;
  for (const Spec& s : specs_) {
    if (s.kind == kind && s.scope == Spec::Scope::kEpisode) return s.at[0];
  }
  return -1;
}

long long FaultInjector::kill_episode() const {
  return episode_of(Spec::Kind::kKill);
}

long long FaultInjector::torn_log_episode() const {
  return episode_of(Spec::Kind::kTornLog);
}

}  // namespace lcda::util
