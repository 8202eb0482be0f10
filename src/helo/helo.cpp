#include "helo/helo.hpp"

#include <array>
#include <limits>

#include "util/strings.hpp"

namespace elsa::helo {

namespace {

/// The generalised numeric token; numeric message tokens view this literal.
constexpr std::string_view kNumeric = "d+";
/// The template token that matches any message token.
constexpr std::string_view kWildcard = "*";

/// Tokens a message may have before its views spill to the heap. The
/// longest generated message has 19 tokens (BG/L) and 10 (Mercury), so
/// serving them never allocates.
constexpr std::size_t kInlineTokens = 32;

/// Storage for one message's token views, on the classifying thread's
/// stack: producers classify concurrently, so there is no shared scratch.
struct TokenBuffer {
  std::array<std::string_view, kInlineTokens> inline_tokens;
  std::vector<std::string_view> spill;  ///< every token, once past inline
};

/// Split `message` on blanks and tabs, dropping empty tokens, and view each
/// token, or kNumeric if it looks numeric. The views borrow `message`.
std::span<const std::string_view> tokenize(std::string_view message,
                                           TokenBuffer& buf) {
  const auto blank = [](char c) { return c == ' ' || c == '\t'; };
  std::size_t n = 0;
  for (std::size_t i = 0; i < message.size();) {
    if (blank(message[i])) {
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    while (j < message.size() && !blank(message[j])) ++j;
    std::string_view token = message.substr(i, j - i);
    if (util::looks_numeric(token)) token = kNumeric;
    if (n < kInlineTokens) {
      buf.inline_tokens[n] = token;
    } else {
      // elsa-lint: allow(realtime-allocates): only past kInlineTokens tokens
      if (n == kInlineTokens)
        buf.spill.assign(buf.inline_tokens.begin(), buf.inline_tokens.end());
      buf.spill.push_back(token);
    }
    ++n;
    i = j;
  }
  if (n > kInlineTokens) return buf.spill;
  return {buf.inline_tokens.data(), n};
}

}  // namespace

std::string Template::text() const { return util::join(tokens, " "); }

std::size_t Template::wildcards() const {
  std::size_t n = 0;
  for (const auto& t : tokens)
    if (t == kWildcard || t == kNumeric) ++n;
  return n;
}

TemplateMiner::TemplateMiner(MinerConfig cfg) : cfg_(cfg) {}

TemplateMiner TemplateMiner::from_templates(std::vector<Template> templates,
                                            MinerConfig cfg) {
  TemplateMiner m(cfg);
  m.templates_ = std::move(templates);
  for (std::uint32_t id = 0; id < m.templates_.size(); ++id) {
    auto& t = m.templates_[id];
    t.id = id;
    if (t.tokens.empty()) continue;
    m.buckets_[bucket_key(t.tokens.size(), t.tokens.front())]
        .template_ids.push_back(id);
  }
  return m;
}

std::uint64_t TemplateMiner::bucket_key(std::size_t len,
                                        std::string_view first) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a over the first token
  for (unsigned char c : first) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return (static_cast<std::uint64_t>(len) << 48) ^ (h & 0xffffffffffffULL);
}

std::uint32_t TemplateMiner::best_match(
    const Bucket& bucket, std::span<const std::string_view> tokens) const {
  std::uint32_t best = kNoTemplate;
  std::size_t best_mismatches = std::numeric_limits<std::size_t>::max();
  const std::size_t allowed = static_cast<std::size_t>(
      cfg_.max_word_mismatch * static_cast<double>(tokens.size()));

  for (const std::uint32_t id : bucket.template_ids) {
    const Template& t = templates_[id];
    std::size_t mismatches = 0;
    bool viable = true;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      const std::string& tt = t.tokens[i];
      if (tt == kWildcard || tt == tokens[i]) continue;
      if (++mismatches > allowed || mismatches >= best_mismatches) {
        viable = false;
        break;
      }
    }
    if (viable && mismatches < best_mismatches) {
      best_mismatches = mismatches;
      best = id;
      if (mismatches == 0) break;
    }
  }
  return best;
}

std::uint32_t TemplateMiner::classify(std::string_view message) {
  TokenBuffer buf;
  const auto tokens = tokenize(message, buf);
  if (tokens.empty()) return kNoTemplate;
  Bucket& bucket = buckets_[bucket_key(tokens.size(), tokens.front())];

  const std::uint32_t best = best_match(bucket, tokens);
  if (best != kNoTemplate) {
    Template& t = templates_[best];
    for (std::size_t i = 0; i < tokens.size(); ++i)
      if (t.tokens[i] != kWildcard && t.tokens[i] != tokens[i])
        t.tokens[i] = "*";
    ++t.count;
    return best;
  }

  Template t;
  t.id = static_cast<std::uint32_t>(templates_.size());
  t.tokens.assign(tokens.begin(), tokens.end());
  t.count = 1;
  templates_.push_back(std::move(t));
  bucket.template_ids.push_back(templates_.back().id);
  return templates_.back().id;
}

// elsa-realtime: the serve producer classifies every record it submits.
std::uint32_t TemplateMiner::classify_const(std::string_view message) const {
  TokenBuffer buf;
  const auto tokens = tokenize(message, buf);
  if (tokens.empty()) return kNoTemplate;
  const auto it = buckets_.find(bucket_key(tokens.size(), tokens.front()));
  if (it == buckets_.end()) return kNoTemplate;
  return best_match(it->second, tokens);
}

}  // namespace elsa::helo
