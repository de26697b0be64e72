// Robustness fuzzing of every text-handling path: random byte soup, random
// bracket soup and truncated real payloads must never crash, and whatever
// parses must land inside the search space. These are the paths that face
// an uncontrolled LLM in production — or, for the worker pipe protocol, a
// worker process that may die mid-line.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lcda/dist/protocol.h"
#include "lcda/llm/parser.h"
#include "lcda/llm/prompt_reader.h"
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

}  // namespace
}  // namespace lcda
