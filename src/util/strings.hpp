// String helpers shared by the log generator (message formatting), the
// HELO template miner (numeric-token test) and the report printers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace elsa::util {

/// Split on any of the given delimiter characters, dropping empty tokens.
std::vector<std::string> split(std::string_view s,
                               std::string_view delims = " \t");

std::string join(const std::vector<std::string>& parts,
                 std::string_view sep = " ");

bool starts_with(std::string_view s, std::string_view prefix);

/// True if the token is entirely digits (possibly hex with 0x prefix),
/// a dotted decimal, or digit-dominated — HELO treats these as variables.
bool looks_numeric(std::string_view token);

/// Render a duration in seconds as a compact human string ("54s", "9m",
/// "1.2h") for the report printers.
std::string human_duration(double seconds);

}  // namespace elsa::util
