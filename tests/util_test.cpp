#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <csignal>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "lcda/util/csv.h"
#include "lcda/util/json_lite.h"
#include "lcda/util/logging.h"
#include "lcda/util/rng.h"
#include "lcda/util/stats.h"
#include "lcda/util/strings.h"
#include "lcda/util/subprocess.h"

namespace lcda::util {
namespace {

// ------------------------------------------------------------------- Rng

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.5);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.5);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(-2, 3);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 3);
    saw_lo |= v == -2;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntRejectsInvertedRange) {
  Rng rng(1);
  EXPECT_THROW((void)rng.uniform_int(3, 2), std::invalid_argument);
}

TEST(Rng, UniformIntIsRoughlyUniform) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[static_cast<std::size_t>(rng.uniform_int(0, 9))];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 10 * 0.1);
  }
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(17);
  OnlineStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal(2.0, 3.0));
  EXPECT_NEAR(stats.mean(), 2.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.1);
}

TEST(Rng, ChanceProbability) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, IndexThrowsOnEmpty) {
  Rng rng(1);
  EXPECT_THROW((void)rng.index(0), std::invalid_argument);
}

TEST(Rng, WeightedIndexFollowsWeights) {
  Rng rng(23);
  const std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 40000; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / static_cast<double>(counts[0]), 3.0, 0.25);
}

TEST(Rng, WeightedIndexAllZeroFallsBackToUniform) {
  Rng rng(29);
  const std::vector<double> w = {0.0, 0.0, 0.0, 0.0};
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.weighted_index(w)];
  for (int c : counts) EXPECT_GT(c, 1000);
}

TEST(Rng, WeightedIndexRejectsNegative) {
  Rng rng(1);
  const std::vector<double> w = {1.0, -0.5};
  EXPECT_THROW((void)rng.weighted_index(w), std::invalid_argument);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(31);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  rng.shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Rng parent(37);
  Rng child = parent.fork();
  // Consuming the child must not change the parent's future draws relative
  // to a reference parent that forked but never used the child.
  Rng parent2(37);
  (void)parent2.fork();
  for (int i = 0; i < 100; ++i) (void)child.next_u64();
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(parent.next_u64(), parent2.next_u64());
  }
}

TEST(Hash, MixIsDeterministicAndSpreads) {
  EXPECT_EQ(hash_mix(42), hash_mix(42));
  EXPECT_NE(hash_mix(42), hash_mix(43));
}

TEST(Hash, IntsOrderSensitive) {
  const std::vector<int> a = {1, 2, 3};
  const std::vector<int> b = {3, 2, 1};
  EXPECT_NE(hash_ints(a), hash_ints(b));
  EXPECT_EQ(hash_ints(a), hash_ints(a));
  EXPECT_NE(hash_ints(a, 1), hash_ints(a, 2));
}

// ----------------------------------------------------------------- Stats

TEST(OnlineStats, MatchesDirectComputation) {
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  OnlineStats s;
  for (double x : xs) s.add(x);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_DOUBLE_EQ(s.mean(), mean(xs));
  EXPECT_NEAR(s.stddev(), stddev(xs), 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 16.0);
}

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, MergeEqualsSequential) {
  Rng rng(41);
  OnlineStats whole, left, right;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal();
    whole.add(x);
    (i < 250 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Percentile, KnownValues) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.0);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 5.0);
}

TEST(Percentile, RejectsBadInput) {
  const std::vector<double> empty;
  EXPECT_THROW((void)percentile(empty, 50), std::invalid_argument);
  const std::vector<double> xs = {1.0};
  EXPECT_THROW((void)percentile(xs, -1), std::invalid_argument);
  EXPECT_THROW((void)percentile(xs, 101), std::invalid_argument);
}

TEST(Ema, ConvergesToConstant) {
  Ema ema(0.9);
  for (int i = 0; i < 200; ++i) ema.update(5.0);
  EXPECT_NEAR(ema.value(), 5.0, 1e-6);
}

TEST(Ema, FirstValueInitializes) {
  Ema ema(0.9);
  ema.update(3.0);
  EXPECT_DOUBLE_EQ(ema.value(), 3.0);
}

// --------------------------------------------------------------- Strings

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("hi"), "hi");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t a b \n"), "a b");
}

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
  EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("hello", "he"));
  EXPECT_FALSE(starts_with("he", "hello"));
  EXPECT_TRUE(starts_with("x", ""));
}

TEST(Strings, ContainsIcase) {
  EXPECT_TRUE(contains_icase("Neural Architecture Search", "ARCHITECTURE"));
  EXPECT_FALSE(contains_icase("abc", "abd"));
  EXPECT_TRUE(contains_icase("anything", ""));
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(parse_int("42").value(), 42);
  EXPECT_EQ(parse_int(" -7 ").value(), -7);
  EXPECT_FALSE(parse_int("4x").has_value());
  EXPECT_FALSE(parse_int("").has_value());
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(parse_double(" -0.25 ").value(), -0.25);
  EXPECT_FALSE(parse_double("1.2.3").has_value());
}

struct ExtractCase {
  const char* input;
  std::vector<long long> expected;
};

class ExtractIntsTest : public ::testing::TestWithParam<ExtractCase> {};

TEST_P(ExtractIntsTest, Extracts) {
  const auto& p = GetParam();
  EXPECT_EQ(extract_ints(p.input), p.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ExtractIntsTest,
    ::testing::Values(
        ExtractCase{"[[32,3],[64,3]]", {32, 3, 64, 3}},
        ExtractCase{"no numbers", {}},
        ExtractCase{"x-5y", {-5}},
        ExtractCase{"a-b", {}},
        ExtractCase{"perf=-1", {-1}},
        ExtractCase{"[ [ 16 , 7 ] ]", {16, 7}},
        ExtractCase{"1,2,3", {1, 2, 3}}));

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(replace_all("none", "x", "y"), "none");
  EXPECT_EQ(replace_all("abc", "", "x"), "abc");
}

// ------------------------------------------------------------------- CSV

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("two\nlines"), "\"two\nlines\"");
}

TEST(Csv, WritesRows) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.header({"name", "value"});
  csv.field("x").field(1.5).endrow();
  csv.field("y,z").field(42LL).endrow();
  EXPECT_EQ(os.str(), "name,value\nx,1.5\n\"y,z\",42\n");
  EXPECT_EQ(csv.rows_written(), 3u);
}

TEST(Csv, DoubleRoundTrips) {
  std::ostringstream os;
  CsvWriter csv(os);
  csv.field(0.1).endrow();
  EXPECT_EQ(os.str().substr(0, 3), "0.1");
}

// ------------------------------------------------------------------ JSON

TEST(Json, Escaping) {
  EXPECT_EQ(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(Json, ObjectAndArray) {
  Json j = Json::object();
  j["name"] = "lcda";
  j["count"] = 3;
  j["ok"] = true;
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back(2.5);
  j["xs"] = arr;
  EXPECT_EQ(j.dump(), R"({"name":"lcda","count":3,"ok":true,"xs":[1,2.5]})");
}

TEST(Json, NullAndNested) {
  Json j;
  j["a"]["b"] = 1;  // auto-creates nested objects
  EXPECT_EQ(j.dump(), R"({"a":{"b":1}})");
}

TEST(Json, PrettyPrintIndents) {
  Json j = Json::object();
  j["k"] = 1;
  EXPECT_EQ(j.dump(2), "{\n  \"k\": 1\n}");
}

TEST(Json, TypeErrors) {
  Json j = 5;
  EXPECT_THROW(j["k"] = 1, std::logic_error);
  EXPECT_THROW(j.push_back(1), std::logic_error);
}

TEST(Json, InsertionOrderPreserved) {
  Json j = Json::object();
  j["z"] = 1;
  j["a"] = 2;
  EXPECT_EQ(j.dump(), R"({"z":1,"a":2})");
}

TEST(JsonParse, ScalarsAndNesting) {
  const Json j = Json::parse(
      R"({"s":"hi","n":-2.5,"i":42,"b":true,"nil":null,"a":[1,[2,3],{"k":"v"}]})");
  EXPECT_EQ(j.at("s").as_string(), "hi");
  EXPECT_EQ(j.at("n").as_double(), -2.5);
  EXPECT_EQ(j.at("i").as_int(), 42);
  EXPECT_TRUE(j.at("b").as_bool());
  EXPECT_TRUE(j.at("nil").is_null());
  EXPECT_EQ(j.at("a").size(), 3u);
  EXPECT_EQ(j.at("a").at(1).at(0).as_int(), 2);
  EXPECT_EQ(j.at("a").at(2).at("k").as_string(), "v");
}

TEST(JsonParse, DumpParseRoundTripIsExactForDoubles) {
  // Shortest-round-trip number formatting: every double survives a
  // dump/parse cycle bit-for-bit — the persistent cache's guarantee.
  for (double v : {0.1, 1.0 / 3.0, 6.02214076e23, 1e-300, -0.0625,
                   123456789.123456789, 2.5e-17}) {
    Json j = Json::array();
    j.push_back(v);
    const Json back = Json::parse(j.dump());
    EXPECT_EQ(back.at(0).as_double(), v);
  }
  // -0 == 0, so only its sign shows that it came back as written.
  EXPECT_EQ(Json(-0.0).dump(), "-0");
  EXPECT_TRUE(std::signbit(Json::parse(Json(-0.0).dump()).as_double()));
  EXPECT_EQ(Json(0.0).dump(), "0");
}

TEST(JsonParse, StringEscapesRoundTrip) {
  Json j = Json::object();
  j["k"] = std::string("a\"b\\c\nd\te\x01f");
  const Json back = Json::parse(j.dump());
  EXPECT_EQ(back.at("k").as_string(), "a\"b\\c\nd\te\x01f");
}

TEST(JsonParse, EqualityFollowsStructure) {
  const Json a = Json::parse(R"({"x":[1,2],"y":{"z":true}})");
  const Json b = Json::parse(R"({ "x" : [1, 2], "y": {"z": true} })");
  const Json c = Json::parse(R"({"x":[1,3],"y":{"z":true}})");
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(JsonParse, RejectsMalformedInput) {
  EXPECT_THROW((void)Json::parse(""), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{\"a\":1} extra"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{\"a\":1,\"a\":2}"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("truthy"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("1.2.3"), std::runtime_error);
}

TEST(JsonParse, NestingDepthIsCapped) {
  // 100,000 levels would overflow the stack of a parser that recurses once
  // per level; past the cap it throws like for any other malformed document.
  constexpr std::size_t kDeep = 100000;
  EXPECT_THROW((void)Json::parse(std::string(kDeep, '[')), std::runtime_error);
  EXPECT_THROW(
      (void)Json::parse(std::string(kDeep, '[') + std::string(kDeep, ']')),
      std::runtime_error);
  std::string objects;
  for (std::size_t i = 0; i < kDeep; ++i) objects += "{\"a\":";
  EXPECT_THROW((void)Json::parse(objects), std::runtime_error);
  // Documents at the cap still parse.
  const Json at_cap = Json::parse(std::string(512, '[') + std::string(512, ']'));
  EXPECT_TRUE(at_cap.is_array());
}

TEST(JsonParse, TypedAccessorsValidate) {
  const Json j = Json::parse(R"({"d":1.5,"s":"x"})");
  EXPECT_THROW((void)j.at("d").as_int(), std::logic_error);     // non-integral
  EXPECT_THROW((void)j.at("s").as_double(), std::logic_error);  // wrong type
  EXPECT_THROW((void)j.at("missing"), std::logic_error);
  EXPECT_FALSE(j.contains("missing"));
  EXPECT_TRUE(j.contains("d"));
}

// --------------------------------------------------------------- Logging

TEST(Logging, LevelFilters) {
  set_log_level(LogLevel::kError);
  // Nothing observable to assert without capturing stderr; this exercises
  // the code path and the level round-trip.
  EXPECT_EQ(log_level(), LogLevel::kError);
  Logger("test").info() << "filtered";
  Logger("test").error() << "emitted";
  set_log_level(LogLevel::kWarn);
}

// ------------------------------------------------------------ Subprocess

TEST(Subprocess, TryWaitPollsWithoutBlocking) {
  Subprocess child({"/bin/sh", "-c", "sleep 0.2; echo late >&2; exit 7"});
  // The child is still sleeping: try_wait must return nothing, instantly.
  EXPECT_FALSE(child.try_wait().has_value());
  // Poll to completion — the loop is the coordinator's reap pattern.
  std::optional<Subprocess::Result> result;
  for (int i = 0; i < 200 && !result; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    result = child.try_wait();
  }
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->exit_code, 7);
  EXPECT_EQ(result->stderr_output, "late\n");
  // After completion, try_wait keeps returning the same result.
  const auto again = child.try_wait();
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->exit_code, 7);
}

TEST(Subprocess, StopTerminatesGracefully) {
  // A child that dies to SIGTERM: stop() never needs the KILL escalation.
  Subprocess child({"/bin/sleep", "30"});
  const auto t0 = std::chrono::steady_clock::now();
  const Subprocess::Result result = child.stop(/*grace_ms=*/2000);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(result.term_signal, SIGTERM);
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            2000);
}

TEST(Subprocess, StopEscalatesToKillAfterGrace) {
  // A child that ignores SIGTERM must be SIGKILLed once the grace runs
  // out. The trailing exit keeps sh from exec-replacing itself with sleep
  // (which would drop the trap).
  Subprocess child({"/bin/sh", "-c", "trap '' TERM; sleep 30; exit 0"});
  // Give the shell a moment to install the trap, or the TERM wins the race.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const Subprocess::Result result = child.stop(/*grace_ms=*/300);
  EXPECT_EQ(result.term_signal, SIGKILL);
}

TEST(Subprocess, DestructorReapsRunningChild) {
  // Leaving scope with a live child must not hang (graceful stop with a
  // short grace) and must not leak a zombie — nothing to assert beyond
  // "this returns quickly", which the test timeout enforces.
  const auto t0 = std::chrono::steady_clock::now();
  { Subprocess child({"/bin/sleep", "30"}); }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed)
                .count(),
            5000);
}

TEST(Subprocess, ChildHoldsNoDescriptorOfTheParent) {
  // The parent holds a file open without close-on-exec, as std::ofstream
  // opens one; the child must see only its own stdin, stdout and stderr.
  const int fd = ::open("/dev/null", O_RDONLY);
  ASSERT_GT(fd, 2);
  Subprocess::Options popts;
  popts.pipe_stdout = true;
  Subprocess child({"/bin/sh", "-c",
                    "test -e /proc/$$/fd/" + std::to_string(fd) +
                        " && echo open || echo closed"},
                   popts);
  const Subprocess::Result result = child.wait();
  ::close(fd);
  EXPECT_EQ(result.exit_code, 0) << result.stderr_output;
  EXPECT_EQ(child.read_stdout(), "closed\n");
}

/// True while `pid` names a live process (a zombie awaiting its reaper
/// counts as gone).
bool process_alive(pid_t pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(stat, line)) return false;
  // "<pid> (<comm>) <state> ..." — the state follows the last ')'.
  const std::size_t close = line.rfind(')');
  return close != std::string::npos && close + 2 < line.size() &&
         line[close + 2] != 'Z';
}

TEST(Subprocess, NoDescendantSurvivesStopOrDestruction) {
  // The shell ignores SIGTERM and so does the `sleep` it forks (an ignored
  // signal survives fork and exec); it reports the grandchild's pid on
  // stdout. Signalling only the shell would orphan that sleep.
  const std::vector<std::string> argv = {
      "/bin/sh", "-c", "trap '' TERM; sleep 30 & echo $!; wait; exit 0"};
  Subprocess::Options popts;
  popts.pipe_stdout = true;
  const auto grandchild_of = [](Subprocess& child) {
    std::string out;
    for (int i = 0; i < 500 && out.find('\n') == std::string::npos; ++i) {
      out += child.read_stdout();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return static_cast<pid_t>(std::atol(out.c_str()));
  };
  const auto gone = [](pid_t pid) {
    for (int i = 0; i < 200 && process_alive(pid); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return !process_alive(pid);
  };

  {
    Subprocess child(argv, popts);
    const pid_t grandchild = grandchild_of(child);
    ASSERT_GT(grandchild, 0);
    EXPECT_EQ(child.stop(/*grace_ms=*/100).term_signal, SIGKILL);
    EXPECT_TRUE(gone(grandchild)) << "stop() left pid " << grandchild;
  }
  pid_t grandchild = 0;
  {
    Subprocess child(argv, popts);
    grandchild = grandchild_of(child);
    ASSERT_GT(grandchild, 0);
  }
  EXPECT_TRUE(gone(grandchild)) << "the destructor left pid " << grandchild;
}

}  // namespace
}  // namespace lcda::util
