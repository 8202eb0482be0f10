// HELO — Hierarchical Event Log Organizer (re-implementation of the paper's
// preprocessing stage [15], §III.A).
//
// Raw HPC log messages are unstructured and vary per instance (addresses,
// counts, locations). HELO reduces them to *message templates*: regular
// expressions over tokens where "d+" stands for a numeric field and "*" for
// an arbitrary one. Every downstream signal is keyed by template id.
//
// Algorithm (offline and online are the same code path; online simply keeps
// classifying into the same miner so new software versions create new
// templates on the fly, as §III.A requires):
//   1. tokenize on blanks and tabs;
//   2. pre-generalise: numeric-looking tokens become "d+" immediately;
//   3. bucket by (token count, first token) — the "hierarchical" part:
//      messages of different lengths or different leading constants never
//      share a template;
//   4. within a bucket, greedily match against existing templates counting
//      mismatches at non-wildcard positions; if the best template's
//      mismatch fraction is at or below `max_word_mismatch`, join it and
//      wildcard the mismatching positions, else found a new template.
//
// Steps 1-4 run over string_views into the message (numeric tokens view
// one static "d+"), held in a stack buffer that only messages of more than
// 32 tokens outgrow, so classifying allocates nothing; only founding or
// widening a template copies bytes into the template set.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace elsa::helo {

struct Template {
  std::uint32_t id = 0;
  std::vector<std::string> tokens;  ///< constants, "d+", or "*"
  std::uint64_t count = 0;          ///< messages matched so far

  /// Rendered template text, e.g. "linkcard power module * is not accessible".
  std::string text() const;
  /// Number of wildcard positions ("*" or "d+").
  std::size_t wildcards() const;
};

struct MinerConfig {
  /// Maximum fraction of non-wildcard positions allowed to mismatch when
  /// joining an existing template.
  double max_word_mismatch = 0.30;
};

class TemplateMiner {
 public:
  static constexpr std::uint32_t kNoTemplate = 0xffffffffu;

  explicit TemplateMiner(MinerConfig cfg = {});

  /// Rebuild a miner from a persisted template set (ids must be dense and
  /// equal the vector index). Used by model deserialisation.
  static TemplateMiner from_templates(std::vector<Template> templates,
                                      MinerConfig cfg = {});

  /// Classify a message, creating a new template when nothing fits.
  std::uint32_t classify(std::string_view message);

  /// Classify without mutating the template set; kNoTemplate if unseen.
  std::uint32_t classify_const(std::string_view message) const;

  std::size_t size() const { return templates_.size(); }
  const Template& at(std::uint32_t id) const { return templates_.at(id); }
  const std::vector<Template>& templates() const { return templates_; }

 private:
  struct Bucket {
    std::vector<std::uint32_t> template_ids;
  };

  static std::uint64_t bucket_key(std::size_t len, std::string_view first);

  /// Best template id in the bucket for the generalised `tokens`;
  /// kNoTemplate if the bucket is empty or nothing is within threshold.
  std::uint32_t best_match(const Bucket& bucket,
                           std::span<const std::string_view> tokens) const;

  MinerConfig cfg_;
  std::vector<Template> templates_;
  std::unordered_map<std::uint64_t, Bucket> buckets_;
};

}  // namespace elsa::helo
