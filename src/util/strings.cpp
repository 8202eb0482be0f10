#include "util/strings.hpp"

#include <array>
#include <cstdint>
#include <cstdio>

namespace elsa::util {

namespace {

/// looks_numeric's byte classes by ASCII range: 1 for a digit or one of
/// '.', ':', '-'; 2 for a hex letter a-f or A-F; 0 ("other") for every
/// other byte, >= 0x80 included. Identical to <cctype> in the C locale the
/// program runs in, and a table lookup keeps the count loop branch-free.
constexpr std::array<std::uint8_t, 256> kNumericClass = [] {
  std::array<std::uint8_t, 256> t{};
  for (char c = '0'; c <= '9'; ++c) t[static_cast<unsigned char>(c)] = 1;
  for (const char c : {'.', ':', '-'}) t[static_cast<unsigned char>(c)] = 1;
  for (char c = 'a'; c <= 'f'; ++c) {
    t[static_cast<unsigned char>(c)] = 2;
    t[static_cast<unsigned char>(c - 'a' + 'A')] = 2;
  }
  return t;
}();

}  // namespace

std::vector<std::string> split(std::string_view s, std::string_view delims) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && delims.find(s[i]) != std::string_view::npos) ++i;
    std::size_t j = i;
    while (j < s.size() && delims.find(s[j]) == std::string_view::npos) ++j;
    if (j > i) out.emplace_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool looks_numeric(std::string_view token) {
  const bool hex_prefixed = starts_with(token, "0x") || starts_with(token, "0X");
  if (hex_prefixed) token.remove_prefix(2);
  if (token.empty()) return false;
  std::size_t digits = 0, hex_letters = 0;
  for (const unsigned char c : token) {
    digits += kNumericClass[c] & 1u;
    hex_letters += kNumericClass[c] >> 1;
  }
  const std::size_t others = token.size() - digits - hex_letters;
  // 0x-prefixed payloads are numeric whenever they are valid-ish hex.
  if (hex_prefixed) return others == 0;
  // Otherwise require at least one real digit so ordinary words made of
  // a-f letters ("detected", "cafe") never read as numbers; hex letters
  // then count toward the numeric mass (addresses like 1a2b3c).
  if (digits == 0) return false;
  return others * 3 <= digits + hex_letters;
}

std::string human_duration(double seconds) {
  char buf[48];
  if (seconds < 60.0) {
    std::snprintf(buf, sizeof buf, "%.0fs", seconds);
  } else if (seconds < 3600.0) {
    std::snprintf(buf, sizeof buf, "%.1fm", seconds / 60.0);
  } else {
    std::snprintf(buf, sizeof buf, "%.1fh", seconds / 3600.0);
  }
  return buf;
}

}  // namespace elsa::util
