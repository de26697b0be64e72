// Robustness fuzzing of every text-handling path: random byte soup, random
// bracket soup and truncated real payloads must never crash, and whatever
// parses must land inside the search space. These are the paths that face
// an uncontrolled LLM in production — or, for the worker pipe protocol, a
// worker process that may die mid-line.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <climits>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "lcda/core/experiment.h"
#include "lcda/core/scenario.h"
#include "lcda/dist/protocol.h"
#include "lcda/llm/llm_optimizer.h"
#include "lcda/llm/parser.h"
#include "lcda/llm/prompt_reader.h"
#include "lcda/llm/simulated_gpt4.h"
#include "lcda/obs/trace.h"
#include "lcda/util/json_lite.h"
#include "lcda/util/rng.h"
#include "lcda/util/strings.h"

namespace lcda {
namespace {

std::string random_bytes(util::Rng& rng, int len) {
  std::string s;
  s.reserve(static_cast<std::size_t>(len));
  for (int i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng.uniform_int(32, 126)));  // printable
  }
  return s;
}

std::string random_bracket_soup(util::Rng& rng, int len) {
  static const char alphabet[] = "[]0123456789,-. \nhardware=RFeT";
  std::string s;
  s.reserve(static_cast<std::size_t>(len));
  for (int i = 0; i < len; ++i) {
    s.push_back(alphabet[rng.index(sizeof(alphabet) - 1)]);
  }
  return s;
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, NeverCrashesAndStaysInSpace) {
  const search::SearchSpace space;
  util::Rng rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    const std::string text = rng.chance(0.5)
                                 ? random_bytes(rng, static_cast<int>(rng.uniform_int(0, 400)))
                                 : random_bracket_soup(rng, static_cast<int>(rng.uniform_int(0, 400)));
    const llm::ParseResult r = llm::parse_design_response(text, space);
    if (r.ok) {
      EXPECT_TRUE(space.contains(r.design)) << text;
    } else {
      EXPECT_FALSE(r.error.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Values(1, 2, 3, 4, 5));

class PromptReaderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PromptReaderFuzz, NeverCrashes) {
  util::Rng rng(GetParam());
  for (int i = 0; i < 300; ++i) {
    const std::string text =
        rng.chance(0.5)
            ? random_bytes(rng, static_cast<int>(rng.uniform_int(0, 600)))
            : random_bracket_soup(rng, static_cast<int>(rng.uniform_int(0, 600)));
    const llm::PromptFacts facts = llm::read_prompt(text);
    EXPECT_GE(facts.conv_layers, 1);
    EXPECT_LE(facts.conv_layers, 32);
    for (const auto& h : facts.history) {
      EXPECT_FALSE(h.design.rollout.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PromptReaderFuzz, ::testing::Values(7, 8, 9));

TEST(ParserFuzzDirected, TruncatedRealPayloads) {
  const search::SearchSpace space;
  const std::string full =
      "Based on the results, I suggest:\n"
      "[[32,3],[32,3],[64,3],[64,3],[128,3],[128,3]]\n"
      "hardware=[FeFET,2,6,128,8]\n";
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    const llm::ParseResult r =
        llm::parse_design_response(full.substr(0, cut), space);
    if (r.ok) EXPECT_TRUE(space.contains(r.design)) << "cut=" << cut;
  }
}

// Untrusted model text with numbers far outside `int`: an over-long digit
// run saturates instead of overflowing, is clamped before narrowing, and
// snaps to the nearest end of the choice list; an INT_MIN knob must not
// overflow the distance to the nearest choice.
TEST(ParserFuzzDirected, ExtremeNumbersSnapIntoSpace) {
  const search::SearchSpace space;
  EXPECT_EQ(util::extract_ints("[99999999999999999999999]"),
            (std::vector<long long>{LLONG_MAX}));

  const llm::ParseResult wide = llm::parse_design_response(
      "[[99999999999999999999999,3],[32,3],[64,3],[64,3],[128,3],[128,3]]",
      space);
  ASSERT_TRUE(wide.ok) << wide.error;
  EXPECT_TRUE(space.contains(wide.design));
  const std::vector<int>& channels = space.options().channel_choices;
  EXPECT_EQ(wide.design.rollout[0].channels,
            *std::max_element(channels.begin(), channels.end()));

  const llm::ParseResult low = llm::parse_design_response(
      "[[32,3],[32,3],[64,3],[64,3],[128,3],[128,3]]\n"
      "hardware=[RRAM,-2147483648,6,128,8]",
      space);
  ASSERT_TRUE(low.ok) << low.error;
  EXPECT_TRUE(space.contains(low.design));
  const std::vector<int>& bits = space.options().hw.bits_per_cell;
  EXPECT_EQ(low.design.hw.bits_per_cell,
            *std::min_element(bits.begin(), bits.end()));
}

TEST(StringsFuzz, ExtractIntsHandlesAdversarialInput) {
  util::Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const std::string s = random_bracket_soup(rng, 120);
    const auto ints = util::extract_ints(s);
    for (long long v : ints) {
      EXPECT_LT(std::abs(v), 1000000000000LL);  // bounded by 120 chars
    }
  }
}

TEST(StringsFuzz, SplitJoinRoundTrip) {
  util::Rng rng(12);
  for (int i = 0; i < 200; ++i) {
    // Alphabet without the delimiter so split/join round-trips exactly.
    std::string s;
    for (int j = 0; j < 50; ++j) {
      s.push_back(static_cast<char>(rng.uniform_int('a', 'z')));
      if (rng.chance(0.2)) s.push_back(',');
    }
    const auto parts = util::split(s, ',');
    EXPECT_EQ(util::join(parts, ","), s);
  }
}

// ------------------------------------------ prompt reader, differential

namespace reference {

// The oracle for llm::read_prompt: the same grammar read the plain way,
// with a lowered copy of the whole text per key, a vector of lines and a
// vector of integers per field. The reader must agree with it field for
// field.

std::vector<int> braced_ints_after(std::string_view text, std::string_view key) {
  std::vector<int> out;
  const std::string lower = util::to_lower(text);
  const std::string lkey = util::to_lower(key);
  const std::size_t pos = lower.find(lkey);
  if (pos == std::string::npos) return out;
  const std::size_t open = text.find('{', pos);
  if (open == std::string::npos) return out;
  const std::size_t close = text.find('}', open);
  if (close == std::string::npos) return out;
  for (long long v : util::extract_ints(text.substr(open + 1, close - open - 1))) {
    out.push_back(static_cast<int>(v));
  }
  return out;
}

std::vector<cim::DeviceType> devices_after(std::string_view text,
                                           std::string_view key) {
  std::vector<cim::DeviceType> out;
  const std::string lower = util::to_lower(text);
  const std::size_t pos = lower.find(util::to_lower(key));
  if (pos == std::string::npos) return out;
  const std::size_t open = lower.find('{', pos);
  const std::size_t close = open == std::string::npos ? std::string::npos
                                                      : lower.find('}', open);
  if (close == std::string::npos) return out;
  const std::string_view body =
      std::string_view(lower).substr(open + 1, close - open - 1);
  if (body.find("rram") != std::string_view::npos) {
    out.push_back(cim::DeviceType::kRram);
  }
  if (body.find("fefet") != std::string_view::npos) {
    out.push_back(cim::DeviceType::kFefet);
  }
  if (body.find("sram") != std::string_view::npos) {
    out.push_back(cim::DeviceType::kSram);
  }
  return out;
}

bool parse_history_line(std::string_view line, llm::HistoryEntry& out) {
  const std::size_t rpos = line.find("rollout=");
  const std::size_t ppos = line.find("performance=");
  if (rpos == std::string_view::npos || ppos == std::string_view::npos) {
    return false;
  }
  const std::size_t hpos = line.find("hardware=");
  const std::size_t rollout_end = hpos != std::string_view::npos ? hpos : ppos;
  const auto ints =
      util::extract_ints(line.substr(rpos + 8, rollout_end - (rpos + 8)));
  if (ints.size() < 2 || ints.size() % 2 != 0) return false;
  out.design.rollout.clear();
  for (std::size_t i = 0; i + 1 < ints.size(); i += 2) {
    nn::ConvSpec spec;
    spec.channels = static_cast<int>(ints[i]);
    spec.kernel = static_cast<int>(ints[i + 1]);
    out.design.rollout.push_back(spec);
  }
  if (hpos != std::string_view::npos) {
    const std::string_view hw_part = line.substr(hpos, ppos - hpos);
    if (util::contains_icase(hw_part, "fefet")) {
      out.design.hw.device = cim::DeviceType::kFefet;
    } else if (util::contains_icase(hw_part, "sram")) {
      out.design.hw.device = cim::DeviceType::kSram;
    } else {
      out.design.hw.device = cim::DeviceType::kRram;
    }
    const auto hw_ints = util::extract_ints(hw_part);
    if (hw_ints.size() >= 4) {
      out.design.hw.bits_per_cell = static_cast<int>(hw_ints[0]);
      out.design.hw.adc_bits = static_cast<int>(hw_ints[1]);
      out.design.hw.xbar_size = static_cast<int>(hw_ints[2]);
      out.design.hw.col_mux = static_cast<int>(hw_ints[3]);
    }
  }
  const auto perf = util::parse_double(util::trim(line.substr(ppos + 12)));
  if (!perf) return false;
  out.performance = *perf;
  return true;
}

llm::PromptFacts read_prompt(std::string_view text) {
  llm::PromptFacts facts;
  facts.codesign_context =
      util::contains_icase(text, "neural architecture search") ||
      util::contains_icase(text, "model architecture");
  if (util::contains_icase(text, "inference latency")) {
    facts.objective = llm::Objective::kLatency;
  } else {
    facts.objective = llm::Objective::kEnergy;
  }
  facts.channel_choices = braced_ints_after(text, "channels per layer:");
  facts.kernel_choices = braced_ints_after(text, "kernel sizes:");
  facts.device_choices = devices_after(text, "device in");
  facts.bits_per_cell_choices = braced_ints_after(text, "bits_per_cell in");
  facts.adc_bits_choices = braced_ints_after(text, "adc_bits in");
  facts.xbar_choices = braced_ints_after(text, "xbar_size in");
  facts.mux_choices = braced_ints_after(text, "col_mux in");
  const std::size_t pairs_marker = text.find(" number pairs");
  if (pairs_marker != std::string_view::npos) {
    const std::size_t window = std::min<std::size_t>(pairs_marker, 24);
    const auto ints =
        util::extract_ints(text.substr(pairs_marker - window, window));
    if (!ints.empty() && ints.back() > 0 && ints.back() <= 32) {
      facts.conv_layers = static_cast<int>(ints.back());
    }
  }
  for (const std::string& line : util::split(text, '\n')) {
    llm::HistoryEntry entry;
    if (parse_history_line(line, entry)) facts.history.push_back(std::move(entry));
  }
  return facts;
}

}  // namespace reference

/// Real prompts: the transcripts of short LCDA and LCDA-naive dialogues
/// under both objectives, sampled from the empty history to past the
/// 64-entry window, with rewards spread like a study's (some -1). Besides
/// the paper's space, a 4-layer space with other choice lists, so that a
/// fact the reader misses cannot hide behind a default equal to it.
std::vector<std::string> real_prompts() {
  search::SearchSpace::Options small;
  small.conv_layers = 4;
  small.channel_choices = {8, 16, 24};
  small.kernel_choices = {3, 5};
  std::vector<std::string> prompts;
  for (const search::SearchSpace& space :
       {search::SearchSpace{}, search::SearchSpace{small}}) {
    for (const bool codesign : {true, false}) {
      for (const llm::Objective objective :
           {llm::Objective::kEnergy, llm::Objective::kLatency}) {
        llm::LlmOptimizer::Options opts;
        opts.prompt.objective = objective;
        opts.prompt.codesign_context = codesign;
        llm::LlmOptimizer opt(space, std::make_shared<llm::SimulatedGpt4>(), opts);
        util::Rng rng(31 + prompts.size());
        for (int ep = 0; ep < 70; ++ep) {
          search::Observation obs;
          obs.design = opt.propose(rng);
          obs.reward = rng.chance(0.1) ? -1.0 : rng.uniform();
          opt.feedback(obs);
        }
        for (const std::size_t at : {0, 1, 40, 69}) {
          prompts.push_back(opt.transcript().at(at).prompt);
        }
      }
    }
  }
  return prompts;
}

/// One edit a careless copy of a prompt could suffer: a span of letters
/// with its case flipped, a dropped or duplicated line, a truncation, or a
/// splice of two prompts.
std::string mutate_prompt(util::Rng& rng, const std::string& text,
                          const std::vector<std::string>& corpus) {
  const auto line_bounds = [&](std::size_t at) {
    const std::size_t begin = text.rfind('\n', at == 0 ? 0 : at - 1);
    const std::size_t b = begin == std::string::npos || at == 0 ? 0 : begin + 1;
    const std::size_t end = text.find('\n', at);
    return std::pair{b, end == std::string::npos ? text.size() : end + 1};
  };
  std::string out = text;
  const std::size_t at = rng.index(text.size() + 1);
  switch (rng.index(5)) {
    case 0: {  // case flips over a span
      const std::size_t len = rng.index(300);
      for (std::size_t i = at; i < out.size() && i < at + len; ++i) {
        const auto c = static_cast<unsigned char>(out[i]);
        out[i] = static_cast<char>(std::isupper(c) ? std::tolower(c)
                                                   : std::toupper(c));
      }
      break;
    }
    case 1: {  // drop a line
      const auto [b, e] = line_bounds(at);
      out.erase(b, e - b);
      break;
    }
    case 2: {  // duplicate a line somewhere else
      const auto [b, e] = line_bounds(at);
      out.insert(line_bounds(rng.index(text.size() + 1)).first,
                 text.substr(b, e - b));
      break;
    }
    case 3:  // truncation
      out.resize(at);
      break;
    case 4: {  // splice: a prefix of this prompt, a suffix of another
      const std::string& other = corpus[rng.index(corpus.size())];
      out = out.substr(0, at) + other.substr(rng.index(other.size() + 1));
      break;
    }
  }
  return out;
}

bool same_double(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_same_facts(const llm::PromptFacts& want, const llm::PromptFacts& got,
                       const std::string& text) {
  EXPECT_EQ(got.codesign_context, want.codesign_context) << text;
  EXPECT_EQ(got.objective, want.objective) << text;
  EXPECT_EQ(got.channel_choices, want.channel_choices) << text;
  EXPECT_EQ(got.kernel_choices, want.kernel_choices) << text;
  EXPECT_EQ(got.device_choices, want.device_choices) << text;
  EXPECT_EQ(got.bits_per_cell_choices, want.bits_per_cell_choices) << text;
  EXPECT_EQ(got.adc_bits_choices, want.adc_bits_choices) << text;
  EXPECT_EQ(got.xbar_choices, want.xbar_choices) << text;
  EXPECT_EQ(got.mux_choices, want.mux_choices) << text;
  EXPECT_EQ(got.conv_layers, want.conv_layers) << text;
  ASSERT_EQ(got.history.size(), want.history.size()) << text;
  for (std::size_t i = 0; i < want.history.size(); ++i) {
    EXPECT_EQ(got.history[i].design.rollout, want.history[i].design.rollout)
        << "history line " << i << " of\n" << text;
    EXPECT_TRUE(got.history[i].design.hw == want.history[i].design.hw)
        << "history line " << i << " of\n" << text;
    EXPECT_TRUE(same_double(got.history[i].performance,
                            want.history[i].performance))
        << "history line " << i << " of\n" << text;
  }
}

class PromptReaderDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PromptReaderDifferential, MatchesTheReferenceReaderOnMutatedPrompts) {
  static const std::vector<std::string> corpus = real_prompts();
  if (GetParam() == 41) {
    for (const std::string& text : corpus) {
      expect_same_facts(reference::read_prompt(text), llm::read_prompt(text), text);
    }
  }
  util::Rng rng(GetParam());
  for (int i = 0; i < 600; ++i) {
    std::string text = corpus[rng.index(corpus.size())];
    const int rounds = static_cast<int>(rng.uniform_int(1, 3));
    for (int r = 0; r < rounds; ++r) text = mutate_prompt(rng, text, corpus);
    expect_same_facts(reference::read_prompt(text), llm::read_prompt(text), text);
    if (HasFailure()) return;  // one diverging prompt is enough to read
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PromptReaderDifferential,
                         ::testing::Values(41, 42, 43));

// ------------------------------------------- worker pipe protocol (v2)

/// One valid line of every v2 message kind, both directions: the seed
/// corpus the mutator starts from and splices between.
const std::vector<std::string> kProtocolCorpus = {
    R"({"format":"lcda-worker-cmd-v2","cmd":"run","spec_path":"/s/shard-0-spec.json"})",
    R"({"format":"lcda-worker-cmd-v2","cmd":"run","spec_path":"/a \"b\"","revoked":[3,17]})",
    R"({"format":"lcda-worker-cmd-v2","cmd":"revoke","revoked":[5,6]})",
    R"({"format":"lcda-worker-cmd-v2","cmd":"shutdown"})",
    R"({"format":"lcda-worker-cmd-v2","reply":"seed-start","seed":4})",
    R"({"format":"lcda-worker-cmd-v2","reply":"seed-done","seed":4,"wall_ms":12.625})",
    R"({"format":"lcda-worker-cmd-v2","reply":"heartbeat"})",
    R"({"format":"lcda-worker-cmd-v2","reply":"done","manifest_path":"/s/r.json"})",
    R"({"format":"lcda-worker-cmd-v2","reply":"failed","reason":"x:\n\ty"})",
};

/// One mutation of `text`: a byte flip (any byte, or a JSON-structural
/// one), a truncation, a splice with another corpus line, a numeric
/// literal swapped for an edge case, or wrapping in nesting up to far past
/// the parser's depth cap.
std::string mutate(util::Rng& rng, const std::string& text,
                   const std::vector<std::string>& corpus) {
  static const char kStructural[] = "{}[]\",:\\-+.eE0123456789 \ntfn";
  static const char* const kNumbers[] = {
      "-1", "-0", "0.5", "1e400", "-1e400", "2147483647", "2147483648",
      "1e9", "1e308", "NaN", "Infinity", "0x10", "00", "1e-400", "\"7\""};
  std::string out = text;
  switch (rng.index(5)) {
    case 0: {  // byte flips
      const int flips = static_cast<int>(rng.uniform_int(1, 4));
      for (int i = 0; i < flips && !out.empty(); ++i) {
        out[rng.index(out.size())] =
            rng.chance(0.5)
                ? static_cast<char>(rng.uniform_int(0, 255))
                : kStructural[rng.index(sizeof(kStructural) - 1)];
      }
      break;
    }
    case 1:  // truncation
      out.resize(rng.index(out.size() + 1));
      break;
    case 2: {  // splice: a prefix of this line, a suffix of another
      const std::string& other = corpus[rng.index(corpus.size())];
      out = out.substr(0, rng.index(out.size() + 1)) +
            other.substr(rng.index(other.size() + 1));
      break;
    }
    case 3: {  // swap the digit run at a random position for an edge case
      const std::size_t at = out.find_first_of("0123456789", rng.index(out.size() + 1));
      if (at == std::string::npos) break;
      const std::size_t end = out.find_first_not_of("0123456789.", at);
      out.replace(at, (end == std::string::npos ? out.size() : end) - at,
                  kNumbers[rng.index(std::size(kNumbers))]);
      break;
    }
    case 4: {  // nesting; now and then past the cap, or deep enough to
               // smash a naive recursive parser's stack
      const std::size_t depth =
          !rng.chance(0.1)  ? static_cast<std::size_t>(rng.uniform_int(1, 64))
          : rng.chance(0.5) ? 600
                            : 100000;
      const bool arrays = rng.chance(0.5);
      std::string open, close;
      for (std::size_t i = 0; i < depth; ++i) {
        open += arrays ? "[" : "{\"k\":";
        close += arrays ? "]" : "}";
      }
      out = open + out + close;
      break;
    }
  }
  return out;
}

/// Decodes `text` both ways. Nothing may throw or crash; whatever parses
/// must re-encode to a single line that parses back to the same message.
/// Returns how many of the two decoders accepted it.
int decode_and_reencode(const std::string& text) {
  int accepted = 0;
  if (const auto cmd = dist::parse_worker_command(text)) {
    ++accepted;
    const std::string line = dist::encode_worker_command(*cmd);
    EXPECT_EQ(line.find('\n'), line.size() - 1) << line;
    EXPECT_EQ(dist::parse_worker_command(line), cmd) << "input: " << text;
  }
  if (const auto reply = dist::parse_worker_reply(text)) {
    ++accepted;
    const std::string line = dist::encode_worker_reply(*reply);
    EXPECT_EQ(line.find('\n'), line.size() - 1) << line;
    EXPECT_EQ(dist::parse_worker_reply(line), reply) << "input: " << text;
  }
  return accepted;
}

class ProtocolFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtocolFuzz, DecodersNeverCrashAndReencodeWhatTheyAccept) {
  const std::vector<std::string>& corpus = kProtocolCorpus;
  for (const std::string& line : corpus) {
    EXPECT_EQ(decode_and_reencode(line), 1) << line;
  }
  util::Rng rng(GetParam());
  int accepted = 0;
  for (int i = 0; i < 1000; ++i) {
    std::string text = corpus[rng.index(corpus.size())];
    const int rounds = static_cast<int>(rng.uniform_int(1, 3));
    for (int r = 0; r < rounds; ++r) text = mutate(rng, text, corpus);
    accepted += decode_and_reencode(text);
  }
  // Some mutants must survive as valid messages, or the re-encode half of
  // the property was never exercised.
  EXPECT_GT(accepted, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzz,
                         ::testing::Values(21, 22, 23, 24, 25));

// ------------------------------------------------- worker span timelines

/// Real worker timelines, streamed the way a worker streams its ring: a
/// small traced study (round spans on the driving thread, chunk spans on
/// pool threads), a ring of awkward names with a span left open, and an
/// empty ring.
const std::vector<std::string>& worker_trace_corpus() {
  static const std::vector<std::string> corpus = [] {
    obs::SpanTracer& tracer = obs::SpanTracer::instance();
    tracer.enable();
    std::vector<std::string> files;
    const auto stream = [&](int pid, const char* name) {
      obs::ChromeTraceWriter writer;
      tracer.render(writer, pid, name);
      files.push_back(writer.finish());
      tracer.clear();
    };
    tracer.clear();
    core::Scenario scenario = core::scenario_by_name("paper-energy");
    scenario.config.parallelism = 2;
    {
      obs::Span shard("shard-0");
      obs::Span seed("seed-0");
      (void)core::run_strategy(core::Strategy::kNacimRl, 24, scenario.config);
    }
    stream(4242, "worker shard 0");
    for (const char* name : {"say \"hi\"", "back\\slash", "new\nline",
                             "ctl\x01\x1f"}) {
      obs::Span span(name);
    }
    tracer.begin("left-open");
    stream(77, "worker shard 1");
    stream(5, "worker shard 2");
    return files;
  }();
  return corpus;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  for (std::size_t nl; (nl = text.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    lines.push_back(text.substr(start, nl - start));
  }
  lines.push_back(text.substr(start));  // "" after a final newline
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) out += '\n';
    out += lines[i];
  }
  return out;
}

/// One mutation of a worker trace file: byte flips, a truncation, a
/// dropped, duplicated or foreign line, a splice with another file, a
/// ts/tid/pid of 20+ digits, an over-long name, or no closing line.
std::string mutate_trace(util::Rng& rng, const std::string& text,
                         const std::vector<std::string>& corpus) {
  static const char kStructural[] = "{}[]\",:\\-0123456789\nBEM";
  std::string out = text;
  std::vector<std::string> lines = split_lines(text);
  const std::vector<std::string> other =
      split_lines(corpus[rng.index(corpus.size())]);
  switch (rng.index(8)) {
    case 0: {  // byte flips
      const int flips = static_cast<int>(rng.uniform_int(1, 4));
      for (int i = 0; i < flips && !out.empty(); ++i) {
        out[rng.index(out.size())] =
            rng.chance(0.5)
                ? static_cast<char>(rng.uniform_int(0, 255))
                : kStructural[rng.index(sizeof(kStructural) - 1)];
      }
      return out;
    }
    case 1:  // truncation
      out.resize(rng.index(out.size() + 1));
      return out;
    case 2:  // dropped line
      lines.erase(lines.begin() + static_cast<long>(rng.index(lines.size())));
      break;
    case 3: {  // duplicated line
      const std::size_t at = rng.index(lines.size());
      lines.insert(lines.begin() + static_cast<long>(at), lines[at]);
      break;
    }
    case 4:  // a line of another file dropped in, or a splice of the two
      if (rng.chance(0.5)) {
        lines.insert(lines.begin() + static_cast<long>(rng.index(lines.size() + 1)),
                     other[rng.index(other.size())]);
      } else {
        lines.resize(rng.index(lines.size() + 1));
        lines.insert(lines.end(),
                     other.begin() + static_cast<long>(rng.index(other.size())),
                     other.end());
      }
      break;
    case 5: {  // a ts, tid or pid of 20 or more digits
      static const char* const kKeys[] = {"\"ts\":", "\"tid\":", "\"pid\":"};
      const std::string key = kKeys[rng.index(std::size(kKeys))];
      std::size_t at = out.find(key, rng.index(out.size() + 1));
      if (at == std::string::npos) at = out.find(key);
      if (at == std::string::npos) return out;
      at += key.size();
      const std::size_t end = out.find_first_not_of("-0123456789", at);
      std::string digits = rng.chance(0.3) ? "-" : "";
      digits += static_cast<char>('1' + rng.index(9));
      const int n = static_cast<int>(rng.uniform_int(19, 40));
      for (int i = 0; i < n; ++i) digits += static_cast<char>('0' + rng.index(10));
      out.replace(at, (end == std::string::npos ? out.size() : end) - at, digits);
      return out;
    }
    case 6: {  // an over-long name, now and then made of escapes
      const std::string key = "\"name\":\"";
      std::size_t at = out.find(key, rng.index(out.size() + 1));
      if (at == std::string::npos) at = out.find(key);
      if (at == std::string::npos) return out;
      const int n = static_cast<int>(rng.uniform_int(40, 300));
      std::string name;
      for (int i = 0; i < n; ++i) name += rng.chance(0.9) ? "n" : "\\u001f";
      out.insert(at + key.size(), name);
      return out;
    }
    case 7:  // no closing line
      out.resize(out.rfind("\n]") == std::string::npos ? out.size()
                                                        : out.rfind("\n]"));
      return out;
  }
  return join_lines(lines);
}

/// The checks tools/check_trace_events.py makes: known phases, a pid on
/// every event, and per (pid, tid) lane balanced begin/end pairs with
/// non-decreasing timestamps.
void expect_valid_timeline(const util::Json& doc, const std::string& input) {
  std::map<std::pair<long long, long long>, int> depth;
  std::map<std::pair<long long, long long>, double> last_ts;
  for (const util::Json& e : doc.at("traceEvents").elements()) {
    const std::string& ph = e.at("ph").as_string();
    ASSERT_TRUE(ph == "B" || ph == "E" || ph == "M") << input;
    const long long pid = e.at("pid").as_int();
    if (ph == "M") continue;
    (void)e.at("name").as_string();
    const std::pair<long long, long long> lane{pid, e.at("tid").as_int()};
    const double ts = e.at("ts").as_double();
    if (const auto it = last_ts.find(lane); it != last_ts.end()) {
      ASSERT_GE(ts, it->second) << input;
    }
    last_ts[lane] = ts;
    depth[lane] += ph == "B" ? 1 : -1;
    ASSERT_GE(depth[lane], 0) << input;
  }
  for (const auto& [lane, open] : depth) ASSERT_EQ(open, 0) << input;
}

/// Reads `text` strictly. Nothing may crash; an accepted file must be
/// exactly what the writer makes of it, and merge — alone, and joined
/// with itself as a retried shard's two attempts are — behind a
/// coordinator lane into a valid timeline. Returns whether it was
/// accepted.
bool read_and_merge(const std::string& text) {
  obs::TraceLane lane;
  try {
    lane = obs::read_chrome_trace(text);
  } catch (const std::runtime_error&) {
    return false;
  }
  obs::ChromeTraceWriter again;
  again.add_lane(lane);
  EXPECT_EQ(again.finish(), text);

  const std::vector<obs::TraceEvent> coordinator(2, obs::TraceEvent{});
  obs::ChromeTraceWriter merged;
  merged.add_lane(0, "coordinator", 0, coordinator);
  lane.pid = 1;
  merged.add_lane(lane);
  lane.pid = 2;
  merged.add_lane(lane.pid, lane.name, lane.dropped, lane.events, lane.events);
  expect_valid_timeline(util::Json::parse(merged.finish()), text);
  return true;
}

class WorkerTraceFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorkerTraceFuzz, ReaderRejectsOrAcceptsAndMergesValid) {
  const std::vector<std::string>& corpus = worker_trace_corpus();
  ASSERT_GT(split_lines(corpus[0]).size(), 20u) << "the traced study recorded too little";
  for (const std::string& text : corpus) EXPECT_TRUE(read_and_merge(text));
  util::Rng rng(GetParam());
  int accepted = 0;
  for (int i = 0; i < 1000; ++i) {
    std::string text = corpus[rng.index(corpus.size())];
    const int rounds = static_cast<int>(rng.uniform_int(1, 3));
    for (int r = 0; r < rounds; ++r) text = mutate_trace(rng, text, corpus);
    accepted += read_and_merge(text) ? 1 : 0;
    if (HasFatalFailure()) return;
  }
  // Some mutants must survive, or the merge half was never exercised.
  EXPECT_GT(accepted, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkerTraceFuzz,
                         ::testing::Values(31, 32, 33, 34, 35));

}  // namespace
}  // namespace lcda
