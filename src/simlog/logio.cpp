#include "simlog/logio.hpp"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <istream>
#include <stdexcept>

namespace elsa::simlog {

namespace {

/// read_ras_log asks the stream buffer for this many bytes at a time. Lines
/// are split where they lie in the buffer; only a line longer than the
/// buffer grows it.
constexpr std::size_t kBlockBytes = std::size_t{1} << 16;

bool is_digit(char c) { return c >= '0' && c <= '9'; }

/// Drops `lit` from the front of `s`; false when `s` does not start with it.
bool take_literal(std::string_view& s, std::string_view lit) {
  if (!s.starts_with(lit)) return false;
  s.remove_prefix(lit.size());
  return true;
}

/// Reads one to nine ASCII digits from the front of `s` into `out` and drops
/// them; false for no digit or a tenth one. Nine digits stay below 2^31, so
/// the sum cannot overflow.
bool take_number(std::string_view& s, std::int32_t& out) {
  std::int32_t v = 0;
  std::size_t n = 0;
  for (; n < s.size() && is_digit(s[n]); ++n) {
    if (n == 9) return false;
    v = v * 10 + (s[n] - '0');
  }
  if (n == 0) return false;
  out = v;
  s.remove_prefix(n);
  return true;
}

/// strtoll's reading of the time column: nullopt when it converts nothing.
/// An all-digit column of up to 18 digits cannot overflow and is summed in
/// place; every other shape (sign, leading space, NUL, trailing bytes, more
/// digits) goes through strtoll itself on a NUL-terminated copy.
std::optional<std::int64_t> parse_time(std::string_view col) {
  if (!col.empty() && col.size() <= 18) {
    std::int64_t v = 0;
    std::size_t i = 0;
    for (; i < col.size() && is_digit(col[i]); ++i) v = v * 10 + (col[i] - '0');
    if (i == col.size()) return v;
  }
  const std::string copy(col);
  char* end = nullptr;
  const long long v = std::strtoll(copy.c_str(), &end, 10);
  if (end == copy.c_str()) return std::nullopt;
  return v;
}

/// Appends the record on one line (without its '\n') to `out`, or counts the
/// line malformed. An empty line is skipped.
void parse_line(std::string_view line, const topo::Topology& topology,
                ParsedLog& out) {
  if (line.empty()) return;
  std::string_view cols[4];  // time, severity, component, location
  for (auto& col : cols) {
    const std::size_t tab = line.find('\t');
    if (tab == std::string_view::npos) {
      ++out.malformed_lines;
      return;
    }
    col = line.substr(0, tab);
    line.remove_prefix(tab + 1);
  }
  const auto time = parse_time(cols[0]);
  const auto sev = parse_severity(cols[1]);
  if (!time || !sev) {
    ++out.malformed_lines;
    return;
  }
  LogRecord& rec = out.records.emplace_back();
  rec.time_ms = *time;
  rec.severity = *sev;
  rec.node_id = parse_location(cols[3], topology).value_or(-1);
  // The rest of the line is the message; tabs inside it become spaces.
  rec.message.assign(line);
  for (std::size_t tab = rec.message.find('\t'); tab != std::string::npos;
       tab = rec.message.find('\t', tab + 1))
    rec.message[tab] = ' ';
}

}  // namespace

void write_ras_log(std::ostream& os, const std::vector<LogRecord>& records,
                   const topo::Topology& topology) {
  for (const auto& r : records) {
    os << r.time_ms << '\t' << to_string(r.severity) << '\t'
       << "RAS" << '\t'
       << (r.node_id >= 0 ? topology.code(r.node_id) : std::string("SYSTEM"))
       << '\t' << r.message << '\n';
  }
}

void write_ras_log_file(const std::string& path,
                        const std::vector<LogRecord>& records,
                        const topo::Topology& topology) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("write_ras_log_file: cannot open " + path);
  write_ras_log(os, records, topology);
  if (!os) throw std::runtime_error("write_ras_log_file: write failed " + path);
}

std::optional<Severity> parse_severity(std::string_view s) {
  if (s == "INFO") return Severity::Info;
  if (s == "WARNING") return Severity::Warning;
  if (s == "SEVERE") return Severity::Severe;
  if (s == "FAILURE") return Severity::Failure;
  if (s == "FATAL") return Severity::Fatal;
  return std::nullopt;
}

std::optional<std::int32_t> parse_location(std::string_view code,
                                           const topo::Topology& topology) {
  if (topology.naming() == topo::NamingStyle::BlueGene) {
    topo::Location loc;
    if (!(take_literal(code, "R") && take_number(code, loc.rack) &&
          take_literal(code, "-M") && take_number(code, loc.midplane) &&
          take_literal(code, "-N") && take_number(code, loc.nodecard) &&
          take_literal(code, "-C:J") && take_number(code, loc.node)))
      return std::nullopt;
    std::int32_t unit = 0;
    if (take_literal(code, "-U") && !take_number(code, unit))
      return std::nullopt;
    if (!code.empty()) return std::nullopt;
    try {
      return topology.node_id(loc);
    } catch (const std::out_of_range&) {
      return std::nullopt;
    }
  }
  std::int32_t flat = 0;
  if (!take_literal(code, topology.node_prefix()) ||
      !take_number(code, flat) || !code.empty() ||
      flat >= topology.total_nodes())
    return std::nullopt;
  return flat;
}

ParsedLog read_ras_log(std::istream& is, const topo::Topology& topology) {
  ParsedLog out;
  const std::istream::sentry ok(is, /*noskipws=*/true);
  if (!ok) return out;
  std::streambuf& sb = *is.rdbuf();
  std::vector<char> buf(kBlockBytes);
  std::size_t begin = 0;  // first byte of the line being split
  std::size_t scan = 0;   // buf[begin, scan) holds no '\n'
  std::size_t end = 0;    // bytes read into buf
  for (;;) {
    const std::size_t nl = std::string_view(buf.data(), end).find('\n', scan);
    if (nl != std::string_view::npos) {
      parse_line(std::string_view(buf.data() + begin, nl - begin), topology,
                 out);
      begin = scan = nl + 1;
      continue;
    }
    // No line end left: move the partial line to the front, then refill.
    if (begin > 0) {
      end -= begin;
      std::memmove(buf.data(), buf.data() + begin, end);
      begin = 0;
    }
    scan = end;
    if (end == buf.size()) buf.resize(2 * buf.size());
    const std::streamsize got = sb.sgetn(
        buf.data() + end, static_cast<std::streamsize>(buf.size() - end));
    if (got <= 0) break;
    end += static_cast<std::size_t>(got);
  }
  parse_line(std::string_view(buf.data(), end), topology, out);  // no '\n'
  is.setstate(std::ios::eofbit);
  return out;
}

ParsedLog read_ras_log_file(const std::string& path,
                            const topo::Topology& topology) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("read_ras_log_file: cannot open " + path);
  return read_ras_log(is, topology);
}

}  // namespace elsa::simlog
