// HELO template-mining tests: recovery of planted templates, numeric
// generalisation, bucket separation, online incremental behaviour, purity
// against the generator's hidden templates, tokenizer edge cases through
// both classify paths, and golden digests that pin the output byte for
// byte.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "elsa/model_io.hpp"
#include "helo/helo.hpp"
#include "simlog/scenario.hpp"
#include "util/strings.hpp"

namespace {

using namespace elsa::helo;

TEST(Helo, IdenticalMessagesShareTemplate) {
  TemplateMiner m;
  const auto a = m.classify("ciodb has been restarted.");
  const auto b = m.classify("ciodb has been restarted.");
  EXPECT_EQ(a, b);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.at(a).count, 2u);
}

TEST(Helo, NumericFieldsGeneralise) {
  TemplateMiner m;
  const auto a = m.classify("job 4711 timed out");
  const auto b = m.classify("job 42 timed out");
  EXPECT_EQ(a, b);
  EXPECT_EQ(m.at(a).text(), "job d+ timed out");
}

TEST(Helo, HexAndAddressesGeneralise) {
  TemplateMiner m;
  const auto a = m.classify("parity error at 0xdeadbeef corrected");
  const auto b = m.classify("parity error at 0x00001234 corrected");
  EXPECT_EQ(a, b);
}

TEST(Helo, WordVariablesBecomeWildcards) {
  TemplateMiner m;
  const auto a = m.classify("torus link failure detected on dimension alpha");
  const auto b = m.classify("torus link failure detected on dimension omega");
  EXPECT_EQ(a, b);
  EXPECT_EQ(m.at(a).tokens[6], "*");
  EXPECT_EQ(m.at(a).wildcards(), 1u);
}

TEST(Helo, DifferentLengthsNeverMerge) {
  TemplateMiner m;
  const auto a = m.classify("link down");
  const auto b = m.classify("link down now");
  EXPECT_NE(a, b);
}

TEST(Helo, DifferentLeadingTokensNeverMerge) {
  TemplateMiner m;
  const auto a = m.classify("correctable error detected in directory 0xab");
  const auto b = m.classify("uncorrectable error detected in directory 0xab");
  EXPECT_NE(a, b);
}

TEST(Helo, TooManyWordMismatchesSplit) {
  TemplateMiner m;
  const auto a = m.classify("alpha bravo charlie delta echo foxtrot");
  const auto b = m.classify("alpha xxx yyy zzz www qqq");
  EXPECT_NE(a, b);
}

TEST(Helo, ClassifyConstDoesNotMutate) {
  TemplateMiner m;
  m.classify("known message one");
  const std::size_t before = m.size();
  EXPECT_EQ(m.classify_const("unknown message entirely different"),
            TemplateMiner::kNoTemplate);
  EXPECT_EQ(m.size(), before);
  EXPECT_NE(m.classify_const("known message one"), TemplateMiner::kNoTemplate);
}

TEST(Helo, EmptyMessage) {
  TemplateMiner m;
  EXPECT_EQ(m.classify(""), TemplateMiner::kNoTemplate);
  EXPECT_EQ(m.classify_const("   "), TemplateMiner::kNoTemplate);
}

TEST(Helo, OnlinePhaseAddsNewTemplatesWithStableIds) {
  TemplateMiner m;
  const auto a = m.classify("service action started part 12");
  const auto b = m.classify("completely new subsystem message appears");
  EXPECT_EQ(b, a + 1);
  // Old template id unchanged after new additions.
  EXPECT_EQ(m.classify("service action started part 99"), a);
}

// Integration: run HELO over a generated campaign and check that the
// recovered templates track the generator's hidden ones.
TEST(Helo, RecoversGeneratorTemplatesWithHighPurity) {
  auto scenario =
      elsa::simlog::make_bluegene_scenario(99, /*duration_days=*/1.0,
                                           /*filler_templates=*/40);
  const auto trace = scenario.generator.generate(scenario.config);
  ASSERT_GT(trace.records.size(), 1000u);

  TemplateMiner m;
  // helo id -> histogram of true template ids
  std::map<std::uint32_t, std::map<std::uint16_t, std::size_t>> assignment;
  for (const auto& rec : trace.records) {
    const auto tid = m.classify(rec.message);
    ASSERT_NE(tid, TemplateMiner::kNoTemplate);
    ++assignment[tid][rec.true_template];
  }

  // Purity: fraction of records whose helo template's majority true id
  // matches their own true id.
  std::size_t majority_total = 0;
  for (const auto& [tid, hist] : assignment) {
    std::size_t best = 0;
    for (const auto& [true_id, n] : hist) {
      (void)true_id;
      best = std::max(best, n);
    }
    majority_total += best;
  }
  const double purity =
      static_cast<double>(majority_total) /
      static_cast<double>(trace.records.size());
  EXPECT_GT(purity, 0.97) << "HELO merged unrelated generator templates";

  // Completeness: most generator templates that appear get their own
  // (majority) helo template rather than being split into many.
  std::set<std::uint16_t> seen_true;
  for (const auto& rec : trace.records) seen_true.insert(rec.true_template);
  EXPECT_LT(m.size(), seen_true.size() * 2)
      << "HELO shattered templates into fragments";
}

// ---------------------------------------------------------------------------
// Tokenizer edge cases. Each message goes through the mutating classify
// and the read-only classify_const; both must agree on the template.

TEST(HeloEdges, TabsAndBlankRunsAreSeparators) {
  TemplateMiner m;
  const auto a = m.classify("job 42 timed out");
  EXPECT_EQ(m.classify("  job\t4711 \t timed   out  "), a);
  EXPECT_EQ(m.classify("\tjob 7 timed\tout\t"), a);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.at(a).text(), "job d+ timed out");
  EXPECT_EQ(m.at(a).count, 3u);
  EXPECT_EQ(m.classify_const(" job  99\ttimed out "), a);
  EXPECT_EQ(m.classify_const("\t\t \t"), TemplateMiner::kNoTemplate);
  EXPECT_EQ(m.classify("\t \t"), TemplateMiner::kNoTemplate);
}

TEST(HeloEdges, LiteralNumericAndWildcardTokens) {
  TemplateMiner m;
  const auto a = m.classify("job 42 timed out");
  // A literal "d+" is the generalised numeric token itself.
  EXPECT_EQ(m.classify_const("job d+ timed out"), a);
  EXPECT_EQ(m.classify("job d+ timed out"), a);
  EXPECT_EQ(m.at(a).text(), "job d+ timed out");
  // A literal "*" is one mismatch against "d+" (allowed: 1 of 4) and
  // widens that position into the wildcard.
  EXPECT_EQ(m.classify("job * timed out"), a);
  EXPECT_EQ(m.at(a).text(), "job * timed out");
  EXPECT_EQ(m.at(a).wildcards(), 1u);
  EXPECT_EQ(m.classify_const("job anything timed out"), a);

  // A message whose first token is "*" or "d+" buckets by those bytes:
  // "d+" shares the bucket of numeric first tokens, "*" does not.
  const auto b = m.classify("d+ nodes rebooted");
  EXPECT_EQ(m.classify_const("512 nodes rebooted"), b);
  EXPECT_EQ(m.classify_const("* nodes rebooted"), TemplateMiner::kNoTemplate);
  const auto c = m.classify("* nodes rebooted");
  EXPECT_NE(c, b);
  EXPECT_EQ(m.at(c).text(), "* nodes rebooted");
  EXPECT_EQ(m.classify_const("* other words"), TemplateMiner::kNoTemplate);
}

TEST(HeloEdges, HexPrefixes) {
  TemplateMiner m;
  const auto a = m.classify("parity at 0x1f fixed");
  EXPECT_EQ(m.at(a).text(), "parity at d+ fixed");
  EXPECT_EQ(m.classify("parity at 0X1F fixed"), a);
  EXPECT_EQ(m.classify_const("parity at 0xdead fixed"), a);  // letters only
  EXPECT_EQ(m.classify_const("parity at 0XBEEF fixed"), a);
  EXPECT_EQ(m.at(a).count, 2u);

  // "0x"/"0X" without payload, or with a non-hex byte, stay literal.
  TemplateMiner n;
  const auto b = n.classify("reg 0x dump 1");
  EXPECT_EQ(n.at(b).text(), "reg 0x dump d+");
  const auto c = n.classify("reg 0X dump 1 2");
  EXPECT_EQ(n.at(c).text(), "reg 0X dump d+ d+");
  const auto d = n.classify("bad 0xg1");
  EXPECT_EQ(n.at(d).text(), "bad 0xg1");
  EXPECT_EQ(n.classify_const("bad 0x1"), TemplateMiner::kNoTemplate);
  EXPECT_EQ(n.classify_const("reg 0x dump 99"), b);
  EXPECT_EQ(n.classify_const("reg 0X dump 0x2 3"), c);
}

TEST(HeloEdges, HighBytesCountAsOther) {
  TemplateMiner m;
  // One high byte against five digits still reads numeric (1*3 <= 5) ...
  const auto a = m.classify("addr 12345\xe9 lost");
  EXPECT_EQ(m.at(a).text(), "addr d+ lost");
  EXPECT_EQ(m.classify_const("addr 77 lost"), a);
  // ... two against one digit do not, and a 0x payload with one fails.
  const auto b = m.classify("caf\xc3\xa9 1\xc3\xa9 \x80\xff");
  EXPECT_EQ(m.at(b).text(), "caf\xc3\xa9 1\xc3\xa9 \x80\xff");
  EXPECT_EQ(m.classify_const("caf\xc3\xa9 1\xc3\xa9 \x80\xff"), b);
  const auto c = m.classify("mem 0xab\xcd");
  EXPECT_EQ(m.at(c).text(), "mem 0xab\xcd");
  EXPECT_EQ(m.classify_const("mem 0xabcd"), TemplateMiner::kNoTemplate);
}

TEST(HeloEdges, MessagesLongerThanAnyInlineBuffer) {
  // 200 words plus 4 numbers; `other` differs in one word and the numbers.
  std::vector<std::string> words, other_words;
  for (int i = 0; i < 200; ++i) {
    std::string word = "tok";
    word.push_back(static_cast<char>('a' + i % 26));
    other_words.push_back(i == 150 ? "changed" : word);
    words.push_back(std::move(word));
    if (i % 50 == 7) {
      words.push_back(std::to_string(i));
      other_words.push_back(std::to_string(i * 31));
    }
  }
  const std::string msg = elsa::util::join(words, " ");
  const std::string other = elsa::util::join(other_words, " ");
  TemplateMiner m;
  const auto a = m.classify(msg);
  ASSERT_NE(a, TemplateMiner::kNoTemplate);
  EXPECT_EQ(m.at(a).tokens.size(), 204u);
  EXPECT_EQ(m.at(a).wildcards(), 4u);
  EXPECT_EQ(m.classify_const(msg), a);
  EXPECT_EQ(m.classify_const(other), a);  // one mismatch of 204
  EXPECT_EQ(m.classify(other), a);
  EXPECT_EQ(m.at(a).tokens[153], "*");
  EXPECT_EQ(m.at(a).wildcards(), 5u);
  EXPECT_EQ(m.classify_const(msg + " tail"), TemplateMiner::kNoTemplate);
}

// ---------------------------------------------------------------------------
// Golden digests: classify a short generated campaign from an empty miner,
// then classify_const every record against the frozen result. The digests
// cover the per-record ids of both passes plus every template's tokens and
// count, so any change in tokenizing, bucketing or matching shows here.

struct HeloDigests {
  std::uint64_t classify = 0;  ///< classify ids, then templates
  std::uint64_t frozen = 0;    ///< classify_const ids on the frozen miner
  std::size_t templates = 0;
};

HeloDigests helo_digests(const elsa::simlog::Trace& trace) {
  using elsa::core::fnv1a_digest;
  TemplateMiner m;
  HeloDigests d;
  d.classify = fnv1a_digest("");
  for (const auto& rec : trace.records)
    d.classify = fnv1a_digest(std::to_string(m.classify(rec.message)) + "\n",
                              d.classify);
  for (const auto& t : m.templates())
    d.classify = fnv1a_digest(std::to_string(t.tokens.size()) + " " +
                                  t.text() + " " + std::to_string(t.count) +
                                  "\n",
                              d.classify);
  d.frozen = fnv1a_digest("");
  for (const auto& rec : trace.records)
    d.frozen = fnv1a_digest(
        std::to_string(m.classify_const(rec.message)) + "\n", d.frozen);
  d.templates = m.size();
  return d;
}

TEST(HeloGolden, BlueGeneCampaign) {
  auto s = elsa::simlog::make_bluegene_scenario(2012, /*duration_days=*/1.0);
  const auto trace = s.generator.generate(s.config);
  ASSERT_EQ(trace.records.size(), 42811u);
  const HeloDigests d = helo_digests(trace);
  EXPECT_EQ(d.classify, 0xa26832b0869cf53aULL) << std::hex << d.classify;
  EXPECT_EQ(d.frozen, 0xf8d863e787cdcbe0ULL) << std::hex << d.frozen;
  EXPECT_EQ(d.templates, 50u);
}

TEST(HeloGolden, MercuryCampaign) {
  auto s = elsa::simlog::make_mercury_scenario(2006, /*duration_days=*/1.0);
  const auto trace = s.generator.generate(s.config);
  ASSERT_EQ(trace.records.size(), 109564u);
  const HeloDigests d = helo_digests(trace);
  EXPECT_EQ(d.classify, 0x36f59eaac0d2b3e8ULL) << std::hex << d.classify;
  EXPECT_EQ(d.frozen, 0x9562d75612b9f113ULL) << std::hex << d.frozen;
  EXPECT_EQ(d.templates, 32u);
}

}  // namespace
