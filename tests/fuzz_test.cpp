// Robustness fuzzing of every text-handling path: random byte soup, random
// bracket soup and truncated real payloads must never crash, and whatever
// parses must land inside the search space. These are the paths that face
// an uncontrolled LLM in production — or, for the worker pipe protocol, a
// worker process that may die mid-line. The checkpoint round log, the one
// binary decoder a crash leaves half-written, is fuzzed here too, as are
// the evaluation store's segment and bucket files, the shard spec and
// result manifest documents the distributed runner reads back from disk,
// the JSON parser they all go through, and the LCDA_FAULT grammar.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <climits>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lcda/ckpt/checkpoint.h"
#include "lcda/core/experiment.h"
#include "lcda/core/report.h"
#include "lcda/core/scenario.h"
#include "lcda/dist/merge.h"
#include "lcda/dist/protocol.h"
#include "lcda/dist/shard.h"
#include "lcda/llm/llm_optimizer.h"
#include "lcda/llm/parser.h"
#include "lcda/llm/prompt_reader.h"
#include "lcda/llm/simulated_gpt4.h"
#include "lcda/obs/metrics.h"
#include "lcda/obs/trace.h"
#include "lcda/store/eval_store.h"
#include "lcda/store/segment.h"
#include "lcda/util/bytes.h"
#include "lcda/util/fault.h"
#include "lcda/util/json_lite.h"
#include "lcda/util/logging.h"
#include "lcda/util/rng.h"
#include "lcda/util/strings.h"

#include "temp_dir.h"

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
    if (r.ok) {
      EXPECT_TRUE(space.contains(r.design)) << "cut=" << cut;
    }
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

/// Real dialogues: every prompt of short LCDA and LCDA-naive dialogues
/// under both objectives, in the order they were sent, from the empty
/// history to past the 64-entry window, with rewards spread like a study's
/// (some -1). Besides the paper's space, a 4-layer space with other choice
/// lists, so that a fact the reader misses cannot hide behind a default
/// equal to it.
const std::vector<std::vector<std::string>>& real_dialogues() {
  static const std::vector<std::vector<std::string>> kDialogues = [] {
    search::SearchSpace::Options small;
    small.conv_layers = 4;
    small.channel_choices = {8, 16, 24};
    small.kernel_choices = {3, 5};
    std::vector<std::vector<std::string>> dialogues;
    for (const search::SearchSpace& space :
         {search::SearchSpace{}, search::SearchSpace{small}}) {
      for (const bool codesign : {true, false}) {
        for (const llm::Objective objective :
             {llm::Objective::kEnergy, llm::Objective::kLatency}) {
          llm::LlmOptimizer::Options opts;
          opts.prompt.objective = objective;
          opts.prompt.codesign_context = codesign;
          llm::LlmOptimizer opt(space, std::make_shared<llm::SimulatedGpt4>(), opts);
          util::Rng rng(31 + 4 * dialogues.size());
          for (int ep = 0; ep < 70; ++ep) {
            search::Observation obs;
            obs.design = opt.propose(rng);
            obs.reward = rng.chance(0.1) ? -1.0 : rng.uniform();
            opt.feedback(obs);
          }
          std::vector<std::string>& prompts = dialogues.emplace_back();
          for (const llm::LlmOptimizer::Exchange& ex : opt.transcript()) {
            prompts.push_back(opt.prompt(ex));
          }
        }
      }
    }
    return dialogues;
  }();
  return kDialogues;
}

/// Real prompts: four of each dialogue's, from the empty history to past
/// the window.
std::vector<std::string> real_prompts() {
  std::vector<std::string> prompts;
  for (const std::vector<std::string>& dialogue : real_dialogues()) {
    for (const std::size_t at : {0, 1, 40, 69}) prompts.push_back(dialogue.at(at));
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

// One long-lived reader, as SimulatedGpt4 keeps it: every prompt of every
// dialogue in the order it was sent (each new history line a miss, the
// rest hits, lines leaving the window and the dialogue evicted), then the
// mutated prompts, which hit, miss and evict in no order at all.
TEST_P(PromptReaderDifferential, OneLongLivedReaderMatchesTheReferenceReader) {
  static const std::vector<std::string> corpus = real_prompts();
  llm::PromptReader reader;
  const auto check = [&](const std::string& text) {
    const llm::PromptFacts& got = reader.read(text);
    expect_same_facts(reference::read_prompt(text), got, text);
    ASSERT_EQ(reader.history_keys().size(), got.history.size()) << text;
    for (std::size_t i = 0; i < got.history.size(); ++i) {
      EXPECT_EQ(reader.history_keys()[i], got.history[i].design.hash())
          << "history line " << i << " of\n" << text;
    }
    const auto lines =
        static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')) + 1;
    EXPECT_LE(reader.memo_size(), 2 * lines) << text;
  };
  for (const std::vector<std::string>& dialogue : real_dialogues()) {
    for (const std::string& text : dialogue) {
      check(text);
      if (HasFailure()) return;
    }
  }
  util::Rng rng(GetParam());
  for (int i = 0; i < 600; ++i) {
    std::string text = corpus[rng.index(corpus.size())];
    const int rounds = static_cast<int>(rng.uniform_int(1, 3));
    for (int r = 0; r < rounds; ++r) text = mutate_prompt(rng, text, corpus);
    check(text);
    if (HasFailure()) return;
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

// ------------------------------------------------------ checkpoint round log

/// An uninterrupted checkpointed run — several multi-job rounds, some with
/// in-round duplicates — and the round log it left: the corpus the
/// mutations start from.
struct LoggedRun {
  core::ExperimentConfig config;
  std::filesystem::path study_dir;
  std::string reference;  ///< the run's JSON document and trace CSV
  std::string log;        ///< its round log, byte for byte
};

constexpr core::Strategy kLoggedStrategy = core::Strategy::kGenetic;
constexpr int kLoggedEpisodes = 24;
constexpr std::size_t kLogHeader = ckpt::kRoundLogMagic.size() + 8;

std::string render_run(const core::RunResult& run) {
  std::ostringstream csv;
  core::write_run_csv(csv, run, "run");
  return core::run_to_json(run, "run").dump(2) + "\n---\n" + csv.str();
}

std::string slurp_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

const LoggedRun& logged_run() {
  static const LoggedRun kRun = [] {
    LoggedRun out;
    out.config = core::scenario_by_name("paper-energy").config;
    out.config.batch_size = 4;
    out.config.checkpoint_dir =
        test::fresh_temp_dir("lcda_fuzz_round_log_" + std::to_string(::getpid()))
            .string();
    out.reference = render_run(
        core::run_strategy(kLoggedStrategy, kLoggedEpisodes, out.config));
    out.study_dir = ckpt::study_checkpoint_dir(
        out.config.checkpoint_dir,
        core::study_fingerprint(out.config, kLoggedStrategy, kLoggedEpisodes));
    for (const auto& entry : std::filesystem::directory_iterator(out.study_dir)) {
      out.log = slurp_file(entry.path());
    }
    return out;
  }();
  return kRun;
}

std::uint64_t read_u64(const std::string& bytes, std::size_t pos) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + pos, sizeof(v));
  return v;
}

/// A well-formed log's records, each with its [len | checksum] envelope.
std::vector<std::string> split_records(const std::string& log) {
  std::vector<std::string> records;
  for (std::size_t pos = kLogHeader; pos + 16 <= log.size();) {
    const std::size_t size = 16 + static_cast<std::size_t>(read_u64(log, pos));
    records.push_back(log.substr(pos, size));
    pos += size;
  }
  return records;
}

std::string join_records(const std::string& log,
                         const std::vector<std::string>& records) {
  std::string out = log.substr(0, kLogHeader);
  for (const std::string& r : records) out += r;
  return out;
}

/// One seeded mutation: a bit flip, a truncation, a huge or off-by-some
/// length field, or a duplicated, dropped or reordered record.
std::string mutate_log(util::Rng& rng, const std::string& log) {
  std::string out = log;
  std::vector<std::string> records = split_records(log);
  const std::size_t n = records.size();
  switch (rng.index(6)) {
    case 0: {  // bit flip anywhere, header included
      if (out.empty()) return out;
      const std::size_t at = rng.index(out.size());
      out[at] = static_cast<char>(out[at] ^ (1 << rng.index(8)));
      return out;
    }
    case 1:  // truncation
      out.resize(rng.index(out.size() + 1));
      return out;
    case 2: {  // length field: huge, or slightly off
      if (n == 0) return out;
      const std::size_t r = rng.index(n);
      std::size_t pos = kLogHeader;
      for (std::size_t i = 0; i < r; ++i) pos += records[i].size();
      const std::uint64_t len = read_u64(out, pos);
      const std::uint64_t values[] = {~std::uint64_t{0}, std::uint64_t{1} << 63,
                                      len + 1, len - 1, len + 4096};
      const std::uint64_t v = values[rng.index(5)];
      std::memcpy(out.data() + pos, &v, sizeof(v));
      return out;
    }
    case 3:  // duplicated record
      if (n == 0) return out;
      {
        const std::size_t r = rng.index(n);
        records.insert(records.begin() + static_cast<std::ptrdiff_t>(r),
                       records[r]);
      }
      return join_records(log, records);
    case 4:  // dropped record
      if (n == 0) return out;
      records.erase(records.begin() + static_cast<std::ptrdiff_t>(rng.index(n)));
      return join_records(log, records);
    default:  // two records swapped
      if (n < 2) return out;
      std::swap(records[rng.index(n)], records[rng.index(n)]);
      return join_records(log, records);
  }
}

class RoundLogFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoundLogFuzz, ReaderKeepsAWholePrefixAndResumeKeepsTheBytes) {
  const LoggedRun& run = logged_run();
  ASSERT_GE(split_records(run.log).size(), 4u) << "the logged run has too few rounds";
  const std::uint64_t identity =
      core::study_fingerprint(run.config, kLoggedStrategy, kLoggedEpisodes);
  core::ExperimentConfig resume_config = run.config;
  resume_config.resume = true;

  util::Rng rng(GetParam());
  int replayed = 0;
  for (int i = 0; i < 120; ++i) {
    std::string log = run.log;
    const int mutations = static_cast<int>(rng.uniform_int(1, 2));
    for (int m = 0; m < mutations; ++m) log = mutate_log(rng, log);

    std::filesystem::remove_all(run.study_dir);
    std::filesystem::create_directories(run.study_dir);
    std::ofstream(run.study_dir / "rounds-fuzz.log", std::ios::binary) << log;

    std::vector<core::RoundDelta> rounds;
    EXPECT_NO_THROW(rounds = ckpt::load_resume(run.config.checkpoint_dir, identity));
    // What the reader returns is a prefix of the file's records, each one
    // checksummed and decoded whole, from episode 0 strictly forward.
    std::size_t pos = kLogHeader;
    for (std::size_t r = 0; r < rounds.size(); ++r) {
      ASSERT_LE(pos + 16, log.size());
      const std::uint64_t len = read_u64(log, pos);
      ASSERT_LE(len, log.size() - pos - 16);
      const std::string payload = log.substr(pos + 16, len);
      EXPECT_EQ(util::fnv1a64(payload), read_u64(log, pos + 8));
      EXPECT_EQ(ckpt::encode_round(rounds[r]), payload);
      EXPECT_TRUE(r == 0 ? rounds[r].first_episode == 0
                         : rounds[r].first_episode > rounds[r - 1].first_episode);
      pos += 16 + len;
    }
    replayed += rounds.empty() ? 0 : 1;

    // A resume from the mutated log still renders the uninterrupted bytes.
    EXPECT_EQ(render_run(core::run_strategy(kLoggedStrategy, kLoggedEpisodes,
                                            resume_config)),
              run.reference);
    if (HasFailure()) return;
  }
  // Some mutants must keep rounds, or replay was never exercised.
  EXPECT_GT(replayed, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundLogFuzz, ::testing::Values(41, 42, 43));

// ------------------------------------------------------ evaluation store

/// A real store: one study's records compacted into index buckets and a
/// second study's in a live segment. Kept in memory: every file's bytes
/// and every record decoded from them.
struct StoreCorpus {
  std::vector<std::pair<std::string, std::string>> files;  ///< relative path, bytes
  std::vector<store::StoreRecord> records;
};

const std::filesystem::path& store_fuzz_root() {
  static const std::filesystem::path kRoot =
      test::fresh_temp_dir("lcda_fuzz_store_" + std::to_string(::getpid()));
  return kRoot;
}

const StoreCorpus& store_corpus() {
  static const StoreCorpus kCorpus = [] {
    StoreCorpus out;
    const std::filesystem::path dir = store_fuzz_root() / "pristine";
    std::filesystem::remove_all(store_fuzz_root());
    core::ExperimentConfig config = core::scenario_by_name("paper-energy").config;
    config.persistent_cache_dir = dir.string();
    (void)core::run_strategy(core::Strategy::kRandom, 12, config);
    (void)store::compact_store(config.persistent_cache_dir, {}, 2);
    config.seed = 2;
    (void)core::run_strategy(core::Strategy::kRandom, 12, config);
    for (const auto& entry : std::filesystem::recursive_directory_iterator(dir)) {
      if (!entry.is_regular_file()) continue;
      out.files.emplace_back(std::filesystem::relative(entry.path(), dir).string(),
                             slurp_file(entry.path()));
      const auto view = store::SegmentView::open(entry.path().string(), nullptr);
      for (std::size_t i = 0; view && i < view->count(); ++i) {
        out.records.push_back(store::decode_record(view->record(i)));
      }
    }
    std::sort(out.files.begin(), out.files.end());
    std::filesystem::remove_all(store_fuzz_root());
    return out;
  }();
  return kCorpus;
}

/// Writes the corpus store under `dir`, with file `victim` (if any)
/// replaced by `mutant`.
void write_store(const std::filesystem::path& dir, std::size_t victim,
                 const std::string& mutant) {
  const StoreCorpus& corpus = store_corpus();
  for (std::size_t f = 0; f < corpus.files.size(); ++f) {
    const auto& [name, bytes] = corpus.files[f];
    std::filesystem::create_directories((dir / name).parent_path());
    std::ofstream(dir / name, std::ios::binary) << (f == victim ? mutant : bytes);
  }
}

std::string evaluation_bytes(const core::Evaluation& ev) {
  std::string out;
  util::BinaryWriter w(out);
  ckpt::encode_evaluation(w, ev);
  return out;
}

/// One seeded mutation of a segment or bucket file: a bit flip, a
/// truncation, appended bytes, or a rewritten header field with the header
/// checksum recomputed. A rewritten count is often n + k * 2^61: times the
/// 328-byte record size that wraps back to the file's real size. Record
/// checksums are never recomputed, so every mutant is damaged.
std::string mutate_segment(util::Rng& rng, const std::string& bytes) {
  std::string out = bytes;
  switch (rng.index(4)) {
    case 0: {  // bit flip anywhere
      const std::size_t at = rng.index(out.size());
      out[at] = static_cast<char>(out[at] ^ (1 << rng.index(8)));
      return out;
    }
    case 1:  // truncation
      out.resize(rng.index(out.size()));
      return out;
    case 2:  // appended bytes, sometimes exactly one record's worth
      out += rng.chance(0.5) ? std::string(store::kRecordSize, '\0')
                             : random_bytes(rng, static_cast<int>(rng.uniform_int(1, 64)));
      return out;
    default: {  // a header field rewritten, header checksum recomputed
      const auto put_u64 = [&](std::size_t at, std::uint64_t v) {
        std::memcpy(out.data() + at, &v, sizeof(v));
      };
      const std::uint64_t n = read_u64(out, 8);
      const std::uint64_t wrap = n + ((rng.index(7) + 1) << 61);  // k = 1..7
      const std::uint64_t counts[] = {wrap, wrap, n + 1, n - 1, ~std::uint64_t{0}};
      const std::size_t pick = rng.index(6);
      if (pick < 5) {
        put_u64(8, counts[pick]);
      } else {
        put_u64(0, read_u64(out, 0) ^ 1);  // the magic
      }
      put_u64(24, util::fnv1a64(std::string_view(out.data(), 24)));
      return out;
    }
  }
}

/// Looks every corpus key up in the store under `dir`: what it serves must
/// be the original evaluation, bit for bit. Returns the hits.
int lookup_all(const std::string& dir) {
  int hits = 0;
  for (const store::StoreRecord& original : store_corpus().records) {
    store::EvalStore::Options opts;
    opts.directory = dir;
    opts.eval_fingerprint = original.eval_fingerprint;
    opts.stream_fingerprint = original.stream_fingerprint;
    const store::EvalStore store(opts);
    if (const auto served = store.lookup(original.design_hash)) {
      EXPECT_EQ(evaluation_bytes(*served), evaluation_bytes(original.evaluation));
      ++hits;
    }
  }
  return hits;
}

class StoreSegmentFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StoreSegmentFuzz, DamageIsCountedAndNothingWrongIsServed) {
  const StoreCorpus& corpus = store_corpus();
  ASSERT_GE(corpus.files.size(), 3u) << "two buckets and a segment";
  const std::filesystem::path pristine = store_fuzz_root() / "pristine";
  write_store(pristine, corpus.files.size(), "");
  ASSERT_EQ(lookup_all(pristine.string()), static_cast<int>(corpus.records.size()));
  ASSERT_TRUE(store::fsck(pristine.string()).clean());

  // Every mutant warns once about its own file; keep the run quiet.
  testing::internal::CaptureStderr();
  util::Rng rng(GetParam());
  for (int i = 0; i < 60; ++i) {
    const std::filesystem::path dir = store_fuzz_root() / ("mutant" + std::to_string(i));
    const std::size_t victim = rng.index(corpus.files.size());
    write_store(dir, victim, mutate_segment(rng, corpus.files[victim].second));
    SCOPED_TRACE("mutant " + std::to_string(i) + " of " + corpus.files[victim].first);

    const int hits = lookup_all(dir.string());
    EXPECT_FALSE(store::fsck(dir.string()).clean());
    const store::CompactionReport report = store::compact_store(dir.string(), {}, 2);
    EXPECT_GT(report.skipped_files + report.corrupt_dropped, 0u);
    EXPECT_TRUE(store::fsck(dir.string()).clean());
    // Compaction only drops damage, so it serves at least as many keys.
    EXPECT_GE(lookup_all(dir.string()), hits);
  }
  (void)testing::internal::GetCapturedStderr();
  std::filesystem::remove_all(store_fuzz_root());
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreSegmentFuzz, ::testing::Values(71, 72, 73));

// ------------------------------------------- shard specs and result manifests

/// A small study of one mode, planned over two shards and run in-process
/// through run_shard, the worker's body: real specs and manifests.
struct ShardedStudy {
  dist::ShardMode mode = dist::ShardMode::kRuns;
  std::vector<dist::ShardSpec> specs;
  std::vector<util::Json> manifests;
};

const std::vector<ShardedStudy>& sharded_studies() {
  static const std::vector<ShardedStudy> kStudies = [] {
    core::Scenario scenario = core::scenario_by_name("paper-energy");
    scenario.config.lcda_episodes = 4;
    scenario.config.nacim_episodes = 6;
    const auto study = [&](dist::ShardMode mode,
                           const std::vector<dist::StrategyStudy>& strategies,
                           double threshold) {
      ShardedStudy out{mode, dist::plan_shards(scenario, mode, strategies,
                                               /*seeds=*/3, /*shards=*/2,
                                               threshold, 0.95),
                       {}};
      for (const dist::ShardSpec& spec : out.specs) {
        out.manifests.push_back(dist::run_shard(spec));
      }
      return out;
    };
    return std::vector<ShardedStudy>{
        study(dist::ShardMode::kAggregate,
              {{core::Strategy::kRandom, 6}, {core::Strategy::kLcda, 4}}, 0.0),
        study(dist::ShardMode::kAggregate, {{core::Strategy::kGenetic, 6}}, NAN),
        study(dist::ShardMode::kSpeedup, {{core::Strategy::kLcda, 0}}, NAN),
        study(dist::ShardMode::kRuns, {{core::Strategy::kRandom, 6}}, NAN)};
  }();
  return kStudies;
}

/// Every JSON type, and numbers at the edges of a seed, count or index.
util::Json odd_value(util::Rng& rng) {
  const util::Json values[] = {
      util::Json(),          util::Json(true),        util::Json("7"),
      util::Json(-1),        util::Json(0),           util::Json(3),
      util::Json(0.5),       util::Json(2147483647),  util::Json(2147483648LL),
      util::Json(-2147483649LL), util::Json(1e300),   util::Json::array(),
      util::Json::object()};
  return values[rng.index(std::size(values))];
}

/// Members and elements the mutator reaches: a manifest's header keys, its
/// entries, their keys, and the elements of a running_max; a spec's keys,
/// its seeds and its scenario down to the config's options.
constexpr int kEditDepth = 4;

std::size_t count_nodes(const util::Json& j, int depth) {
  if (depth >= kEditDepth) return 0;
  std::size_t n = 0;
  for (const auto& member : j.items()) n += 1 + count_nodes(member.second, depth + 1);
  for (const util::Json& element : j.elements()) {
    n += 1 + count_nodes(element, depth + 1);
  }
  return n;
}

/// A copy of `j` with node `target` of a depth-first walk edited: a member
/// is dropped, retyped or has its number nudged by one; an element is
/// dropped, retyped or duplicated. That covers missing and duplicated
/// entries, seeds out of range or twice, and a wrong-length running_max.
util::Json edit_node(const util::Json& j, util::Rng& rng, std::size_t& target,
                     int depth) {
  const auto edit = [&](const util::Json& value, auto&& put) {
    const bool here = target-- == 0;
    if (!here) {
      put(depth + 1 < kEditDepth ? edit_node(value, rng, target, depth + 1)
                                 : value);
      return;
    }
    switch (rng.index(3)) {
      case 0:  // dropped
        return;
      case 1:
        put(odd_value(rng));
        return;
      default:
        if (j.is_array()) {
          put(value);
          put(value);
        } else {
          put(value.is_number() ? util::Json(value.as_double() + 1.0) : value);
        }
    }
  };
  if (j.is_object()) {
    util::Json out = util::Json::object();
    for (const auto& [key, value] : j.items()) {
      edit(value, [&](util::Json v) { out[key] = std::move(v); });
    }
    return out;
  }
  if (j.is_array()) {
    util::Json out = util::Json::array();
    for (const util::Json& value : j.elements()) {
      edit(value, [&](util::Json v) { out.push_back(std::move(v)); });
    }
    return out;
  }
  return j;
}

/// One or two node edits, then now and then a truncation of the text.
std::string mutate_document(util::Rng& rng, util::Json doc) {
  const int edits = static_cast<int>(rng.uniform_int(1, 2));
  for (int e = 0; e < edits; ++e) {
    const std::size_t nodes = count_nodes(doc, 0);
    if (nodes == 0) break;
    std::size_t target = rng.index(nodes);
    doc = edit_node(doc, rng, target, 0);
  }
  std::string text = doc.dump();
  if (rng.chance(0.15)) text.resize(rng.index(text.size() + 1));
  return text;
}

/// Runs every merge over `manifests`; true when the merge of the study's
/// own mode returned. Each call must return or throw a std::exception.
bool merge_all(const ShardedStudy& study,
               const std::vector<util::Json>& manifests) {
  bool accepted = false;
  const auto attempt = [&](dist::ShardMode mode, auto&& merge) {
    try {
      (void)merge();
      accepted = accepted || mode == study.mode;
    } catch (const std::exception&) {
    }
  };
  attempt(dist::ShardMode::kAggregate,
          [&] { return dist::merge_aggregate(study.specs, manifests); });
  attempt(dist::ShardMode::kSpeedup,
          [&] { return dist::merge_speedup(study.specs, manifests); });
  attempt(dist::ShardMode::kRuns,
          [&] { return dist::merge_runs(study.specs, manifests); });
  return accepted;
}

class ShardDocumentFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardDocumentFuzz, ManifestDecodersRejectOrMerge) {
  const std::filesystem::path dir =
      test::fresh_temp_dir("lcda_fuzz_manifest_" + std::to_string(::getpid()));
  for (const ShardedStudy& study : sharded_studies()) {
    EXPECT_TRUE(merge_all(study, study.manifests));
  }

  util::Rng rng(GetParam());
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 400; ++i) {
    const ShardedStudy& study =
        sharded_studies()[rng.index(sharded_studies().size())];
    const std::size_t shard = rng.index(study.specs.size());
    const std::string text = mutate_document(rng, study.manifests[shard]);

    // The file path a worker's manifest takes, header checks included.
    dist::ShardSpec spec = study.specs[shard];
    spec.result_path = (dir / "shard-result.json").string();
    std::ofstream(spec.result_path, std::ios::trunc) << text;
    try {
      (void)dist::load_shard_manifest(spec);
    } catch (const std::exception&) {
    }

    // And every merge, on whatever still parses.
    std::vector<util::Json> manifests = study.manifests;
    try {
      manifests[shard] = util::Json::parse(text);
    } catch (const std::exception&) {
      ++rejected;
      continue;
    }
    ++(merge_all(study, manifests) ? accepted : rejected);
  }
  std::filesystem::remove_all(dir);
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST_P(ShardDocumentFuzz, SpecDecoderRejectsOrRoundTrips) {
  std::vector<util::Json> corpus;
  for (const ShardedStudy& study : sharded_studies()) {
    for (dist::ShardSpec spec : study.specs) {
      // Bookkeeping keys a planner-born spec leaves out.
      spec.result_path = "/s/shard-result.json";
      spec.trace_path = "/s/shard-trace-a0.json";
      spec.stolen_from = 0;
      corpus.push_back(dist::shard_spec_to_json(spec));
    }
  }

  util::Rng rng(GetParam());
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 400; ++i) {
    const std::string text =
        mutate_document(rng, corpus[rng.index(corpus.size())]);
    try {
      const dist::ShardSpec spec =
          dist::shard_spec_from_json(util::Json::parse(text));
      // What decodes re-encodes to a spec with the same identity.
      EXPECT_EQ(dist::shard_spec_checksum(
                    dist::shard_spec_from_json(dist::shard_spec_to_json(spec))),
                dist::shard_spec_checksum(spec))
          << text;
      ++accepted;
    } catch (const std::exception&) {
      ++rejected;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardDocumentFuzz,
                         ::testing::Values(51, 52, 53, 54, 55));

// ------------------------------------------------------------- json_lite

/// Real documents of every kind json_lite carries, compact and indented: a
/// whole scenario, a shard spec, a result manifest of each study above and
/// a metrics snapshot.
std::vector<std::string> json_corpus() {
  std::vector<util::Json> docs = {
      core::scenario_to_json(core::scenario_by_name("trained-small"),
                             /*include_defaults=*/true),
      dist::shard_spec_to_json(sharded_studies().front().specs.front())};
  for (const ShardedStudy& study : sharded_studies()) {
    docs.push_back(study.manifests.front());
  }
  obs::MetricsSnapshot metrics;
  metrics.counters["engine.episodes"] = 4800;
  obs::HistogramData& turn = metrics.histograms["llm.turn_us"];
  turn.bounds.assign(obs::kLatencyBoundsUs.begin(), obs::kLatencyBoundsUs.end());
  turn.counts.assign(turn.bounds.size() + 1, 0);
  turn.counts[3] = 17;
  turn.sum = 1234;
  docs.push_back(metrics.to_json());
  std::vector<std::string> corpus;
  for (const util::Json& doc : docs) {
    corpus.push_back(doc.dump());
    corpus.push_back(doc.dump(2));
  }
  return corpus;
}

/// Json equality with numbers compared bit for bit (operator== holds 0 and
/// -0 equal).
bool same_bits(const util::Json& a, const util::Json& b) {
  if (a.is_number() && b.is_number()) {
    return same_double(a.as_double(), b.as_double());
  }
  if (a.is_object() && b.is_object()) {
    const auto x = a.items();
    const auto y = b.items();
    return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                      [](const auto& p, const auto& q) {
                        return p.first == q.first && same_bits(p.second, q.second);
                      });
  }
  if (a.is_array() && b.is_array()) {
    const auto x = a.elements();
    const auto y = b.elements();
    return std::equal(x.begin(), x.end(), y.begin(), y.end(), same_bits);
  }
  return a == b;  // null, bool and string, or two different types
}

class JsonFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(JsonFuzz, ParsesOrThrowsAndRoundTripsBitExactly) {
  static const std::vector<std::string> corpus = json_corpus();
  util::Rng rng(GetParam());
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 400; ++i) {
    std::string text = corpus[rng.index(corpus.size())];
    const int mutations = static_cast<int>(rng.uniform_int(1, 3));
    for (int m = 0; m < mutations; ++m) text = mutate(rng, text, corpus);
    // Anything but a parse or a std::runtime_error escapes and fails.
    util::Json doc;
    try {
      doc = util::Json::parse(text);
    } catch (const std::runtime_error&) {
      ++rejected;
      continue;
    }
    ++accepted;
    EXPECT_TRUE(same_bits(util::Json::parse(doc.dump()), doc)) << text;
    EXPECT_TRUE(same_bits(util::Json::parse(doc.dump(2)), doc)) << text;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JsonFuzz,
                         ::testing::Values(61, 62, 63, 64, 65, 66, 67, 68));

// ------------------------------------------------------ LCDA_FAULT grammar

/// The clause strings the tests and CI arm LCDA_FAULT with, and one string
/// holding every kind and scope.
const std::vector<std::string> kFaultCorpus = {
    "kill@seed:1",
    "kill@seed:2",
    "wedge@seed:2",
    "sleep=300@seed:0,2",
    "sleep=400@seed:0,1",
    "sleep=700@seed:0,1",
    "kill@episode:4",
    "kill@episode:5",
    "torn-log@episode:4",
    "kill@seed:2; sleep=400@seed:0,1; wedge@seed:3; kill@episode:9; "
    "torn-log@episode:5",
};

/// One mutation of a fault string: byte flips, a truncation, a splice
/// with another corpus entry, a doubled ';' or ',', a sign before a
/// digit, or a digit run swapped for a 20-40 digit number.
std::string mutate_fault(util::Rng& rng, const std::string& text) {
  static const char kGrammar[] = "@:=,;- +0123456789seedpisodkillwgtrn";
  std::string out = text;
  switch (rng.index(6)) {
    case 0: {  // byte flips
      const int flips = static_cast<int>(rng.uniform_int(1, 3));
      for (int i = 0; i < flips && !out.empty(); ++i) {
        out[rng.index(out.size())] =
            rng.chance(0.3) ? static_cast<char>(rng.uniform_int(0, 255))
                            : kGrammar[rng.index(sizeof(kGrammar) - 1)];
      }
      break;
    }
    case 1:  // truncation
      out.resize(rng.index(out.size() + 1));
      break;
    case 2: {  // splice: a prefix of this string, a suffix of another
      const std::string& other = kFaultCorpus[rng.index(kFaultCorpus.size())];
      out = out.substr(0, rng.index(out.size() + 1)) +
            other.substr(rng.index(other.size() + 1));
      break;
    }
    case 3: {  // a doubled separator
      const char sep = rng.chance(0.5) ? ';' : ',';
      const std::size_t at = out.find(sep, rng.index(out.size() + 1));
      if (at == std::string::npos) {
        out += sep;
      } else {
        out.insert(at, 1, sep);
      }
      break;
    }
    case 4: {  // a sign in front of a digit
      const std::size_t at = out.find_first_of("0123456789", rng.index(out.size() + 1));
      if (at != std::string::npos) out.insert(at, 1, rng.chance(0.5) ? '-' : '+');
      break;
    }
    case 5: {  // a 20-40 digit number in place of a digit run
      const std::size_t at = out.find_first_of("0123456789", rng.index(out.size() + 1));
      if (at == std::string::npos) break;
      const std::size_t end = out.find_first_not_of("0123456789", at);
      std::string digits(1, static_cast<char>('1' + rng.index(9)));
      const int len = static_cast<int>(rng.uniform_int(20, 40));
      while (static_cast<int>(digits.size()) < len) {
        digits += static_cast<char>('0' + rng.index(10));
      }
      out.replace(at, (end == std::string::npos ? out.size() : end) - at, digits);
      break;
    }
  }
  return out;
}

/// `<kind>[=<ms>]@<scope>:<list>`, the grammar's own spelling of `spec`.
std::string render_fault(const util::FaultInjector::Spec& spec) {
  using Spec = util::FaultInjector::Spec;
  std::string out;
  switch (spec.kind) {
    case Spec::Kind::kKill: out = "kill"; break;
    case Spec::Kind::kWedge: out = "wedge"; break;
    case Spec::Kind::kSleep: out = "sleep=" + std::to_string(spec.sleep_ms); break;
    case Spec::Kind::kTornLog: out = "torn-log"; break;
  }
  out += spec.scope == Spec::Scope::kSeed ? "@seed:" : "@episode:";
  for (std::size_t i = 0; i < spec.at.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(spec.at[i]);
  }
  return out;
}

class FaultGrammarFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultGrammarFuzz, ParseNeverThrowsAndAcceptsOnlyWellFormedSpecs) {
  using Spec = util::FaultInjector::Spec;
  // Every rejected clause is warned about once; keep the run quiet.
  const util::LogLevel level = util::log_level();
  util::set_log_level(util::LogLevel::kError);
  util::Rng rng(GetParam());
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 1000; ++i) {
    std::string text = kFaultCorpus[rng.index(kFaultCorpus.size())];
    const int rounds = static_cast<int>(rng.uniform_int(1, 3));
    for (int r = 0; r < rounds; ++r) text = mutate_fault(rng, text);

    std::string error;
    util::FaultInjector injector;
    ASSERT_NO_THROW(injector = util::FaultInjector::parse(text, &error)) << text;
    if (!error.empty()) ++rejected;
    for (const Spec& spec : injector.specs()) {
      ++accepted;
      ASSERT_FALSE(spec.at.empty()) << text;
      for (const long long target : spec.at) EXPECT_GE(target, 0) << text;
      if (spec.scope == Spec::Scope::kEpisode) {
        EXPECT_EQ(spec.at.size(), 1u) << text;
      }
      if (spec.kind == Spec::Kind::kSleep) {
        EXPECT_EQ(spec.scope, Spec::Scope::kSeed) << text;
        EXPECT_GE(spec.sleep_ms, 0) << text;  // an int, so <= INT_MAX
      }

      // What parses renders back to a clause that parses to the same spec.
      const std::string clause = render_fault(spec);
      std::string again_error;
      const util::FaultInjector again =
          util::FaultInjector::parse(clause, &again_error);
      EXPECT_TRUE(again_error.empty()) << clause << ": " << again_error;
      ASSERT_EQ(again.specs().size(), 1u) << clause;
      const Spec& back = again.specs()[0];
      EXPECT_EQ(back.kind, spec.kind) << clause;
      EXPECT_EQ(back.scope, spec.scope) << clause;
      EXPECT_EQ(back.at, spec.at) << clause;
      EXPECT_EQ(back.sleep_ms, spec.sleep_ms) << clause;
    }
  }
  util::set_log_level(level);
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultGrammarFuzz,
                         ::testing::Values(61, 62, 63, 64, 65));

}  // namespace
}  // namespace lcda
