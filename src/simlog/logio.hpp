// Log serialisation: write traces as Blue Gene-style RAS text logs and
// parse such logs back. This is the boundary that lets the analysis
// pipeline run on *real* system logs (the CFDR corpora use close cousins
// of this layout) and lets generated campaigns be inspected with ordinary
// text tools.
//
// Line format (tab-separated, one record per line):
//   <epoch_ms> <TAB> <severity> <TAB> <component> <TAB> <location> <TAB> <message>
// where location is the node's rendered code or "SYSTEM" for service
// records. The hidden ground-truth fields (true_template, fault_id) are
// intentionally NOT serialised — a parsed log carries exactly the
// information a production log would.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "simlog/record.hpp"

namespace elsa::simlog {

/// Serialise records (time-ordered) to the RAS text format.
void write_ras_log(std::ostream& os, const std::vector<LogRecord>& records,
                   const topo::Topology& topology);

/// Convenience: to a file. Throws std::runtime_error on I/O failure.
void write_ras_log_file(const std::string& path,
                        const std::vector<LogRecord>& records,
                        const topo::Topology& topology);

struct ParsedLog {
  std::vector<LogRecord> records;  ///< node_id resolved when possible, else -1
  std::size_t malformed_lines = 0;
};

/// Parse a RAS text log. Unresolvable locations become node_id -1 (the
/// message text still carries the original code). Lines that do not parse
/// are counted, not fatal — real logs are dirty: a non-empty line with fewer
/// than five columns, a time column strtoll cannot read, or an unknown
/// severity is counted in malformed_lines; an empty line is skipped without
/// counting. Lines end at '\n' only (a '\r' stays in the last column), and
/// tabs inside the message column become spaces.
///
/// Reads the stream's buffer in fixed-size blocks and splits lines in place,
/// so the only per-line copy is the record's message. An exception from the
/// stream buffer (a read error) propagates.
ParsedLog read_ras_log(std::istream& is, const topo::Topology& topology);

ParsedLog read_ras_log_file(const std::string& path,
                            const topo::Topology& topology);

/// Parse a severity name ("FAILURE"); nullopt for unknown strings.
std::optional<Severity> parse_severity(std::string_view s);

/// Resolve a node-level location code back to a node id; nullopt for any
/// other text. The grammar is strict, with <d> one to nine ASCII digits (no
/// sign, no space):
///   Blue Gene: R<d>-M<d>-N<d>-C:J<d>, optionally followed by -U<d> (the
///              unit on the node, which names no other node)
///   cluster:   <node prefix><d>
/// Every level must lie inside the machine, so an overflowing field never
/// aliases another node.
std::optional<std::int32_t> parse_location(std::string_view code,
                                           const topo::Topology& topology);

}  // namespace elsa::simlog
