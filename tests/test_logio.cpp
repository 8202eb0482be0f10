// RAS log serialisation tests: round trip, severity parsing, the strict
// location grammar, tolerance to dirty lines, and a differential check of
// the block reader against a plain getline reader over campaigns, dirty
// logs and a seeded mutation corpus.
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "simlog/logio.hpp"
#include "simlog/scenario.hpp"
#include "util/rng.hpp"

namespace {

using namespace elsa::simlog;
namespace topo = elsa::topo;
using elsa::util::Rng;

// -- reference reader ---------------------------------------------------------
// std::getline plus a tab split: the reader's contract spelled out the plain
// way. The library's parse_severity / parse_location judge the columns.

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> cols(1);
  for (const char c : line) {
    if (c == '\t') {
      cols.emplace_back();
    } else {
      cols.back() += c;
    }
  }
  return cols;
}

ParsedLog reference_read(std::istream& is, const topo::Topology& topology) {
  ParsedLog out;
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto cols = split_tabs(line);
    if (cols.size() < 5) {
      ++out.malformed_lines;
      continue;
    }
    char* end = nullptr;
    const long long time = std::strtoll(cols[0].c_str(), &end, 10);
    const auto sev = parse_severity(cols[1]);
    if (end == cols[0].c_str() || !sev) {
      ++out.malformed_lines;
      continue;
    }
    LogRecord rec;
    rec.time_ms = time;
    rec.severity = *sev;
    rec.node_id = parse_location(cols[3], topology).value_or(-1);
    rec.message = cols[4];
    for (std::size_t c = 5; c < cols.size(); ++c) rec.message += ' ' + cols[c];
    out.records.push_back(std::move(rec));
  }
  return out;
}

ParsedLog read_text(const std::string& text, const topo::Topology& t) {
  std::istringstream is(text);
  return read_ras_log(is, t);
}

ParsedLog reference_text(const std::string& text, const topo::Topology& t) {
  std::istringstream is(text);
  return reference_read(is, t);
}

/// Every field of every record, and the malformed-line count.
testing::AssertionResult same_parse(const ParsedLog& got,
                                    const ParsedLog& want) {
  if (got.malformed_lines != want.malformed_lines)
    return testing::AssertionFailure()
           << "malformed_lines " << got.malformed_lines << " vs "
           << want.malformed_lines;
  if (got.records.size() != want.records.size())
    return testing::AssertionFailure() << "record count "
                                       << got.records.size() << " vs "
                                       << want.records.size();
  for (std::size_t i = 0; i < got.records.size(); ++i) {
    const LogRecord& a = got.records[i];
    const LogRecord& b = want.records[i];
    if (a.time_ms != b.time_ms || a.node_id != b.node_id ||
        a.severity != b.severity || a.true_template != b.true_template ||
        a.fault_id != b.fault_id || a.message != b.message)
      return testing::AssertionFailure()
             << "record " << i << " differs: time " << a.time_ms << " vs "
             << b.time_ms << ", node " << a.node_id << " vs " << b.node_id
             << ", message size " << a.message.size() << " vs "
             << b.message.size();
  }
  return testing::AssertionSuccess();
}

testing::AssertionResult matches_reference(const std::string& text,
                                           const topo::Topology& t) {
  return same_parse(read_text(text, t), reference_text(text, t));
}

// -- dirty inputs -------------------------------------------------------------

/// One log line (no '\n') drawn from the shapes real logs and hostile bytes
/// produce: odd time columns, unknown severities, codes the grammar rejects,
/// tabs, CRs and NULs in the message, missing columns, empty lines.
std::string random_line(Rng& rng) {
  static constexpr std::string_view kTimes[] = {
      " 12", "+12", "-5", "12abc", "abc", "", "99999999999999999999",
      "0000000000000000000042", "9223372036854775807",
      std::string_view("1\0002", 3)};
  static constexpr std::string_view kSeverities[] = {
      "INFO", "WARNING", "SEVERE", "FAILURE", "FATAL", "info", "", "FATAL "};
  static constexpr std::string_view kLocations[] = {
      "R00-M0-N00-C:J00",     "R03-M1-N07-C:J15",  "R02-M1-N0-C:J12-U11",
      "R00-M2-N00-C:J00",     "R00-M0-N00-C:J05junk", "SYSTEM",
      "tg-c0107",             "tg-c-rack03",       ""};
  static constexpr std::string_view kMessageBytes =
      "abcdefghijklmnopqrstuvwxyz ABCXYZ0123456789 .:-_/()\t\r";
  std::string line;
  if (rng.bernoulli(0.8)) {
    line += std::to_string(rng.below(1'000'000'000'000ULL));
  } else {
    line += kTimes[rng.below(std::size(kTimes))];
  }
  line += '\t';
  line += kSeverities[rng.bernoulli(0.8) ? rng.below(5)
                                         : rng.below(std::size(kSeverities))];
  line += "\tRAS\t";
  line += kLocations[rng.below(std::size(kLocations))];
  line += '\t';
  const std::uint64_t len = rng.below(rng.bernoulli(0.05) ? 4000 : 160);
  for (std::uint64_t i = 0; i < len; ++i) {
    line += rng.bernoulli(0.002)
                ? '\0'
                : kMessageBytes[rng.below(kMessageBytes.size())];
  }
  if (rng.bernoulli(0.1)) line.resize(rng.below(line.size() + 1));
  if (rng.bernoulli(0.05)) line.clear();
  if (rng.bernoulli(0.1)) line += '\r';
  return line;
}

/// At least `min_bytes` of random_line()s, each ended by '\n'.
std::string random_log(std::uint64_t seed, std::size_t min_bytes) {
  Rng rng(seed);
  std::string text;
  while (text.size() < min_bytes) {
    text += random_line(rng);
    text += '\n';
  }
  return text;
}

/// One to four edits: a byte flipped to '\t', '\n', '\r', NUL or a digit; a
/// truncation; or a stretch of the text spliced in elsewhere.
std::string mutate(std::string text, Rng& rng) {
  static constexpr char kFlips[] = {'\t', '\n', '\r', '\0'};
  const std::uint64_t edits = 1 + rng.below(4);
  for (std::uint64_t e = 0; e < edits && !text.empty(); ++e) {
    const std::size_t at = rng.below(text.size());
    const std::uint64_t kind = rng.below(10);
    if (kind < 6) {
      text[at] = rng.bernoulli(0.7)
                     ? kFlips[rng.below(std::size(kFlips))]
                     : static_cast<char>('0' + rng.below(10));
    } else if (kind < 7) {
      text.resize(at);
    } else {
      const std::size_t from = rng.below(text.size());
      const std::size_t len =
          rng.below(std::min<std::size_t>(300, text.size() - from) + 1);
      text.insert(at, text.substr(from, len));
    }
  }
  return text;
}

const topo::Topology& bluegene() {
  static const topo::Topology t = topo::Topology::bluegene(4, 2, 8, 16);
  return t;
}

const topo::Topology& mercury() {
  static const topo::Topology t = topo::Topology::cluster(891, 32, "tg-c");
  return t;
}

/// Serves a string through sgetn in pieces of at most `step` bytes, as a
/// pipe or socket may.
class TrickleBuf : public std::streambuf {
 public:
  TrickleBuf(std::string text, std::streamsize step)
      : text_(std::move(text)), step_(step) {
    setg(text_.data(), text_.data(), text_.data() + text_.size());
  }

 protected:
  std::streamsize xsgetn(char* dst, std::streamsize n) override {
    return std::streambuf::xsgetn(dst, std::min(n, step_));
  }

 private:
  std::string text_;
  std::streamsize step_;
};

// -- parsers ------------------------------------------------------------------

TEST(LogIo, SeverityParsing) {
  EXPECT_EQ(parse_severity("FAILURE"), Severity::Failure);
  EXPECT_EQ(parse_severity("INFO"), Severity::Info);
  EXPECT_EQ(parse_severity("bogus"), std::nullopt);
  EXPECT_EQ(parse_severity("info"), std::nullopt);
  EXPECT_EQ(parse_severity(""), std::nullopt);
  EXPECT_EQ(parse_severity(std::string_view("INFO\0", 5)), std::nullopt);
}

TEST(LogIo, BlueGeneLocationRoundTrip) {
  const auto& t = bluegene();
  for (std::int32_t n = 0; n < t.total_nodes(); ++n)
    EXPECT_EQ(parse_location(t.code(n), t), n) << t.code(n);
  EXPECT_EQ(parse_location("SYSTEM", t), std::nullopt);
  EXPECT_EQ(parse_location("R99-M9-N99-C:J99", t), std::nullopt);
}

TEST(LogIo, BlueGeneLocationGrammarIsStrict) {
  const auto& t = bluegene();
  // A level past its count used to alias a node whose flat id is in range.
  EXPECT_EQ(parse_location("R00-M2-N00-C:J00", t), std::nullopt);  // was 256
  EXPECT_EQ(parse_location("R00-M0-N08-C:J00", t), std::nullopt);  // was 128
  EXPECT_EQ(parse_location("R00-M0-N00-C:J16", t), std::nullopt);  // was 16
  EXPECT_EQ(parse_location("R04-M0-N00-C:J00", t), std::nullopt);
  // rack * nodes-per-rack overflows int32 here.
  EXPECT_EQ(parse_location("R999999999-M0-N00-C:J00", t), std::nullopt);
  // Nine digits are read; a tenth rejects the code before it is summed.
  EXPECT_EQ(parse_location("R000000001-M0-N00-C:J00", t), 256);
  EXPECT_EQ(parse_location("R0000000001-M0-N00-C:J00", t), std::nullopt);
  // What sscanf let through.
  EXPECT_EQ(parse_location("R00-M0-N00-C:J05junk", t), std::nullopt);  // was 5
  EXPECT_EQ(parse_location("R 1-M+0-N00-C:J00", t), std::nullopt);  // was 256
  EXPECT_EQ(parse_location("R-1-M0-N00-C:J00", t), std::nullopt);
  EXPECT_EQ(parse_location(std::string_view("R00-M0-N00-C:J05\0", 17), t),
            std::nullopt);
  // Codes of coarser components name no node.
  EXPECT_EQ(parse_location("R00-M0-N03", t), std::nullopt);
  EXPECT_EQ(parse_location("R00-M0", t), std::nullopt);
  EXPECT_EQ(parse_location("", t), std::nullopt);
  // Fields need not be zero-padded.
  EXPECT_EQ(parse_location("R1-M0-N0-C:J5", t), 261);
}

TEST(LogIo, BlueGeneUnitSuffixNamesItsNode) {
  const auto& t = bluegene();
  // Real BG/L RAS codes carry the unit on the node card's node.
  EXPECT_EQ(parse_location("R02-M1-N0-C:J12-U11", t), 2 * 256 + 128 + 12);
  EXPECT_EQ(parse_location("R00-M0-N00-C:J05-U01", t), 5);
  EXPECT_EQ(parse_location("R00-M0-N00-C:J05-U", t), std::nullopt);
  EXPECT_EQ(parse_location("R00-M0-N00-C:J05-U01x", t), std::nullopt);
  EXPECT_EQ(parse_location("R00-M0-N00-C:J05-U01-U01", t), std::nullopt);
  EXPECT_EQ(parse_location("R00-M0-N00-C:J05-U+1", t), std::nullopt);
  EXPECT_EQ(parse_location("R00-M0-N00-C:J05-", t), std::nullopt);
}

TEST(LogIo, ClusterLocationGrammarIsStrict) {
  const auto& t = mercury();
  for (std::int32_t n = 0; n < t.total_nodes(); ++n)
    EXPECT_EQ(parse_location(t.code(n), t), n) << t.code(n);
  EXPECT_EQ(parse_location("tg-c0107", t), 107);
  EXPECT_EQ(parse_location("tg-c107", t), 107);
  EXPECT_EQ(parse_location("tg-c0891", t), std::nullopt);
  EXPECT_EQ(parse_location("tg-c9999", t), std::nullopt);
  EXPECT_EQ(parse_location("tg-c", t), std::nullopt);
  // Any text ending in digits used to resolve, the topology's own rack-level
  // code included.
  topo::Location rack;
  rack.rack = 3;
  ASSERT_EQ(t.code(rack), "tg-c-rack03");
  EXPECT_EQ(parse_location("tg-c-rack03", t), std::nullopt);  // was 3
  EXPECT_EQ(parse_location("bogus12", t), std::nullopt);      // was 12
  EXPECT_EQ(parse_location("tg-c-system", t), std::nullopt);
  EXPECT_EQ(parse_location("tg-c+12", t), std::nullopt);
  EXPECT_EQ(parse_location("tg-c 12", t), std::nullopt);
  EXPECT_EQ(parse_location("tg-c0107x", t), std::nullopt);
  EXPECT_EQ(parse_location("tg-c0000000107", t), std::nullopt);  // ten digits
  EXPECT_EQ(parse_location("SYSTEM", t), std::nullopt);
  const auto other = topo::Topology::cluster(64, 8, "node");
  EXPECT_EQ(parse_location("node07", other), 7);
  EXPECT_EQ(parse_location("tg-c0007", other), std::nullopt);
}

// -- reader -------------------------------------------------------------------

TEST(LogIo, WriteThenReadPreservesRecords) {
  const auto t = topo::Topology::bluegene(2, 2, 4, 8);
  std::vector<LogRecord> records;
  LogRecord a;
  a.time_ms = 12'345;
  a.node_id = 42;
  a.severity = Severity::Severe;
  a.message = "linkcard power module R00-M1 is not accessible";
  records.push_back(a);
  LogRecord b;
  b.time_ms = 20'000;
  b.node_id = -1;
  b.severity = Severity::Info;
  b.message = "ciodb has been restarted.";
  records.push_back(b);

  std::stringstream ss;
  write_ras_log(ss, records, t);
  const auto parsed = read_ras_log(ss, t);
  ASSERT_EQ(parsed.records.size(), 2u);
  EXPECT_EQ(parsed.malformed_lines, 0u);
  EXPECT_EQ(parsed.records[0].time_ms, 12'345);
  EXPECT_EQ(parsed.records[0].node_id, 42);
  EXPECT_EQ(parsed.records[0].severity, Severity::Severe);
  EXPECT_EQ(parsed.records[0].message, a.message);
  EXPECT_EQ(parsed.records[1].node_id, -1);
}

TEST(LogIo, MalformedLinesCountedNotFatal) {
  const auto t = topo::Topology::bluegene(2, 2, 4, 8);
  std::stringstream ss;
  ss << "not a log line\n"
     << "\n"
     << "12345\tNONSENSE\tRAS\tSYSTEM\tmsg\n"
     << "9000\tINFO\tRAS\tSYSTEM\tgood message\n";
  const auto parsed = read_ras_log(ss, t);
  EXPECT_EQ(parsed.records.size(), 1u);
  EXPECT_EQ(parsed.malformed_lines, 2u);  // empty line skipped silently
}

TEST(LogIo, MessageWithTabsRejoined) {
  const auto t = topo::Topology::bluegene(2, 2, 4, 8);
  std::stringstream ss;
  ss << "100\tINFO\tRAS\tSYSTEM\tpart one\tpart two\n";
  const auto parsed = read_ras_log(ss, t);
  ASSERT_EQ(parsed.records.size(), 1u);
  EXPECT_EQ(parsed.records[0].message, "part one part two");
}

TEST(LogIo, EdgeShapesMatchReference) {
  const auto& t = bluegene();
  using namespace std::string_literals;
  const std::string text =
      "\n\n"
      "1\tINFO\tRAS\tR00-M0-N00-C:J01\tcrlf line\r\n"
      "2\tINFO\tRAS\t\t\n"                         // empty location, message
      "\t\t\t\t\n"                                 // every column empty
      "3\tFATAL\t\tSYSTEM\tnul \0 inside\n"s       // empty component, a NUL
      "4\tINFO\tRAS\tSYSTEM\t\ttwo\t\ttabs\t\n"    // empty message columns
      "\r\n"                                       // a lone CR: malformed
      "5\tINFO\tRAS\tR00-M0-N00-C:J02\n"           // four columns: malformed
      "6\tINFO\tRAS\tR00-M0-N00-C:J03\tlast, no newline";
  const auto parsed = read_text(text, t);
  EXPECT_TRUE(same_parse(parsed, reference_text(text, t)));
  ASSERT_EQ(parsed.records.size(), 5u);
  EXPECT_EQ(parsed.malformed_lines, 3u);
  EXPECT_EQ(parsed.records[0].message, "crlf line\r");
  EXPECT_EQ(parsed.records[0].node_id, 1);
  EXPECT_EQ(parsed.records[1].node_id, -1);
  EXPECT_EQ(parsed.records[1].message, "");
  EXPECT_EQ(parsed.records[2].message, "nul \0 inside"s);
  EXPECT_EQ(parsed.records[3].message, " two  tabs ");
  EXPECT_EQ(parsed.records[4].time_ms, 6);
  EXPECT_EQ(parsed.records[4].message, "last, no newline");
}

TEST(LogIo, TimeColumnKeepsStrtollSemantics) {
  const auto& t = bluegene();
  using namespace std::string_literals;
  const std::string text =
      " 12\tINFO\tRAS\tSYSTEM\tleading space\n"
      "+12\tINFO\tRAS\tSYSTEM\tplus sign\n"
      "-5\tINFO\tRAS\tSYSTEM\tnegative\n"
      "12abc\tINFO\tRAS\tSYSTEM\ttrailing bytes\n"
      "7\0" "99\tINFO\tRAS\tSYSTEM\tNUL ends the number\n"s
      "9999999999999999999\tINFO\tRAS\tSYSTEM\tnineteen digits\n"
      "99999999999999999999\tINFO\tRAS\tSYSTEM\toverflow\n"
      "-99999999999999999999\tINFO\tRAS\tSYSTEM\tunderflow\n"
      "0000000000000000000042\tINFO\tRAS\tSYSTEM\tlong zero run\n"
      "abc\tINFO\tRAS\tSYSTEM\tno number\n"
      "\tINFO\tRAS\tSYSTEM\tempty time\n"
      "-\tINFO\tRAS\tSYSTEM\tsign only\n";
  const auto parsed = read_text(text, t);
  EXPECT_TRUE(same_parse(parsed, reference_text(text, t)));
  const std::vector<std::int64_t> want = {12, 12, -5, 12, 7, LLONG_MAX,
                                          LLONG_MAX, LLONG_MIN, 42};
  ASSERT_EQ(parsed.records.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(parsed.records[i].time_ms, want[i]) << parsed.records[i].message;
  EXPECT_EQ(parsed.malformed_lines, 3u);
}

// Replaces a spot check of every 997th record: every field of every record
// of a whole campaign, against the reference reader and the generator.
void expect_campaign_round_trip(Scenario sc) {
  const auto trace = sc.generator.generate(sc.config);
  std::stringstream ss;
  write_ras_log(ss, trace.records, trace.topology);
  const std::string text = ss.str();
  const auto parsed = read_text(text, trace.topology);
  EXPECT_TRUE(same_parse(parsed, reference_text(text, trace.topology)));
  ASSERT_EQ(parsed.records.size(), trace.records.size());
  EXPECT_EQ(parsed.malformed_lines, 0u);
  for (std::size_t i = 0; i < parsed.records.size(); ++i) {
    const LogRecord& got = parsed.records[i];
    const LogRecord& src = trace.records[i];
    ASSERT_TRUE(got.time_ms == src.time_ms && got.node_id == src.node_id &&
                got.severity == src.severity && got.message == src.message)
        << "record " << i;
  }
}

TEST(LogIo, BlueGeneCampaignMatchesReferenceAndSource) {
  expect_campaign_round_trip(make_bluegene_scenario(11, 0.5, 20));
}

TEST(LogIo, MercuryCampaignMatchesReferenceAndSource) {
  expect_campaign_round_trip(make_mercury_scenario(11, 0.25, 20));
}

TEST(LogIo, DirtyLogOverOneMebibyteMatchesReference) {
  // Lines of every length and shape, so line ends fall across any block
  // boundary of a buffer up to 1 MiB.
  const std::string text = random_log(7, 3u << 20);
  for (const topo::Topology* t : {&bluegene(), &mercury()}) {
    const auto parsed = read_text(text, *t);
    EXPECT_TRUE(same_parse(parsed, reference_text(text, *t)));
    EXPECT_GT(parsed.records.size(), 10'000u);
    EXPECT_GT(parsed.malformed_lines, 1'000u);
  }
  // The same log without its final newline, and cut mid-line.
  EXPECT_TRUE(matches_reference(text.substr(0, text.size() - 1), bluegene()));
  EXPECT_TRUE(matches_reference(text.substr(0, text.size() / 2 + 17),
                                bluegene()));
}

TEST(LogIo, LineLongerThanAnyBlockMatchesReference) {
  const auto& t = bluegene();
  const std::string head = random_log(11, 5000);
  const std::string huge(3u << 20, 'x');
  std::string text = head;
  text += "42\tSEVERE\tRAS\tR00-M0-N00-C:J07\t" + huge + "\tend\n";
  text += huge + "\n";  // a malformed line just as long
  text += head;
  text += "43\tINFO\tRAS\tSYSTEM\t" + huge;  // and one with no newline
  const auto parsed = read_text(text, t);
  EXPECT_TRUE(same_parse(parsed, reference_text(text, t)));
  const auto it = std::find_if(
      parsed.records.begin(), parsed.records.end(),
      [](const LogRecord& r) { return r.time_ms == 42 && r.node_id == 7; });
  ASSERT_NE(it, parsed.records.end());
  EXPECT_EQ(it->message, huge + " end");
  EXPECT_EQ(parsed.records.back().time_ms, 43);
  EXPECT_EQ(parsed.records.back().message, huge);
}

TEST(LogIo, MutationCorpusMatchesReference) {
  // A fixed, seeded corpus: 400 mutants of one dirty log.
  const std::string base = random_log(2012, 8u << 10);
  Rng rng(42);
  for (int i = 0; i < 400; ++i) {
    const std::string text = mutate(base, rng);
    const topo::Topology& t = i % 2 ? mercury() : bluegene();
    ASSERT_TRUE(matches_reference(text, t)) << "mutant " << i;
  }
}

TEST(LogIo, ShortReadsMatchReference) {
  const std::string text = random_log(5, 200u << 10);
  for (const std::streamsize step : {1, 7, 4093}) {
    TrickleBuf buf(text, step);
    std::istream is(&buf);
    EXPECT_TRUE(same_parse(read_ras_log(is, bluegene()),
                           reference_text(text, bluegene())))
        << "step " << step;
  }
}

TEST(LogIo, FileReaderMatchesReference) {
  // A filebuf serves sgetn its own way (large reads bypass its buffer).
  const std::string path = testing::TempDir() + "elsa_test_logio.log";
  std::string text = random_log(9, 2u << 20);
  text += "44\tINFO\tRAS\tSYSTEM\t" + std::string(3u << 20, 'y') + "\n";
  text += random_log(10, 1000);
  {
    std::ofstream os(path, std::ios::binary);
    os << text;
    ASSERT_TRUE(os.good());
  }
  const auto parsed = read_ras_log_file(path, bluegene());
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(same_parse(parsed, reference_read(is, bluegene())));
  EXPECT_TRUE(same_parse(parsed, reference_text(text, bluegene())));
  std::remove(path.c_str());
}

TEST(LogIo, FileErrorsThrow) {
  const auto t = topo::Topology::bluegene(1, 1, 2, 2);
  EXPECT_THROW(read_ras_log_file("/nonexistent/dir/x.log", t),
               std::runtime_error);
  EXPECT_THROW(write_ras_log_file("/nonexistent/dir/x.log", {}, t),
               std::runtime_error);
}

}  // namespace
