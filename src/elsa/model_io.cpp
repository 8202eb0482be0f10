#include "elsa/model_io.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace elsa::core {

namespace {

void expect(std::istream& is, const std::string& keyword) {
  std::string word;
  if (!(is >> word) || word != keyword)
    throw std::runtime_error("load_model: expected '" + keyword + "', got '" +
                             word + "'");
}

/// A section held fewer rows, tokens or items than its count promised.
/// Sections grow one parsed row at a time, so a count the file does not
/// back fails here instead of sizing an allocation.
[[noreturn]] void ends_early(const char* section) {
  throw std::runtime_error(std::string("load_model: ") + section +
                           " section ends early");
}

void expect_row(std::istream& is, const char* marker, const char* section) {
  std::string word;
  if (!(is >> word) || word != marker) ends_early(section);
}

/// One "signal:delay" chain item; each field must be a whole number in
/// range.
ChainItem parse_chain_item(const std::string& pair) {
  ChainItem item;
  const char* end = pair.data() + pair.size();
  const auto sig = std::from_chars(pair.data(), end, item.signal);
  if (sig.ec != std::errc() || sig.ptr == end || *sig.ptr != ':')
    throw std::runtime_error("load_model: bad chain item signal in '" + pair +
                             "'");
  const auto del = std::from_chars(sig.ptr + 1, end, item.delay);
  if (del.ec != std::errc() || del.ptr != end)
    throw std::runtime_error("load_model: bad chain item delay in '" + pair +
                             "'");
  return item;
}

}  // namespace

void save_model(std::ostream& os, const OfflineModel& model) {
  os << "ELSA-MODEL " << kModelFormatVersion << "\n";
  os << "method " << static_cast<int>(model.method) << "\n";
  os << "train " << model.train_begin_ms << " " << model.train_end_ms << "\n";

  os << "templates " << model.helo.size() << "\n";
  for (const auto& t : model.helo.templates()) {
    os << "T " << t.count << " " << t.tokens.size();
    for (const auto& tok : t.tokens) os << " " << tok;
    os << "\n";
  }

  os << "profiles " << model.profiles.size() << "\n";
  for (const auto& p : model.profiles) {
    os << "P " << static_cast<int>(p.cls) << " " << p.median << " " << p.mad
       << " " << p.spike_delta << " " << p.dropout_window << " "
       << p.dropout_min_count << " " << p.period << " " << p.mean << "\n";
  }

  os << "severities " << model.tmpl_severity.size() << "\n";
  os << "S";
  for (const auto s : model.tmpl_severity) os << " " << static_cast<int>(s);
  os << "\n";

  os << "chains " << model.chains.size() << "\n";
  for (const auto& c : model.chains) {
    os << "C " << c.items.size() << " " << c.support << " " << c.confidence
       << " " << c.significance << " " << c.failure_item << " "
       << static_cast<int>(c.location.scope) << " "
       << c.location.propagating_fraction << " "
       << c.location.initiator_included << " " << c.location.mean_nodes
       << " " << c.location.occurrences;
    for (const auto& item : c.items)
      os << " " << item.signal << ":" << item.delay;
    os << "\n";
  }
  os << "end\n";
}

void save_model_file(const std::string& path, const OfflineModel& model) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("save_model_file: cannot open " + path);
  save_model(os, model);
  if (!os) throw std::runtime_error("save_model_file: write failed " + path);
}

OfflineModel load_model(std::istream& is) {
  expect(is, "ELSA-MODEL");
  int version = 0;
  is >> version;
  if (version != kModelFormatVersion)
    throw std::runtime_error("load_model: unsupported format version " +
                             std::to_string(version));
  OfflineModel model;
  int method = 0;
  expect(is, "method");
  is >> method;
  if (method < 0 || method > 2)
    throw std::runtime_error("load_model: bad method id");
  model.method = static_cast<Method>(method);
  expect(is, "train");
  is >> model.train_begin_ms >> model.train_end_ms;

  expect(is, "templates");
  std::size_t n = 0;
  is >> n;
  std::vector<helo::Template> templates;
  for (std::size_t i = 0; i < n; ++i) {
    expect_row(is, "T", "templates");
    helo::Template t;
    std::size_t tokens = 0;
    is >> t.count >> tokens;
    for (std::size_t k = 0; k < tokens; ++k) {
      std::string tok;
      if (!(is >> tok)) ends_early("templates");
      t.tokens.push_back(std::move(tok));
    }
    templates.push_back(std::move(t));
  }
  if (!is) throw std::runtime_error("load_model: truncated template section");
  model.helo = helo::TemplateMiner::from_templates(std::move(templates));

  expect(is, "profiles");
  is >> n;
  for (std::size_t i = 0; i < n; ++i) {
    expect_row(is, "P", "profiles");
    SignalProfile p;
    int cls = 0;
    is >> cls >> p.median >> p.mad >> p.spike_delta >> p.dropout_window >>
        p.dropout_min_count >> p.period >> p.mean;
    if (cls < 0 || cls > 2)
      throw std::runtime_error("load_model: bad signal class");
    p.cls = static_cast<sigkit::SignalClass>(cls);
    model.profiles.push_back(p);
  }

  expect(is, "severities");
  is >> n;
  expect(is, "S");
  for (std::size_t i = 0; i < n; ++i) {
    int v = 0;
    if (!(is >> v)) ends_early("severities");
    if (v < 0 || v > 4) throw std::runtime_error("load_model: bad severity");
    model.tmpl_severity.push_back(static_cast<simlog::Severity>(v));
  }

  expect(is, "chains");
  is >> n;
  for (std::size_t i = 0; i < n; ++i) {
    expect_row(is, "C", "chains");
    Chain c;
    std::size_t items = 0;
    int scope = 0;
    is >> items >> c.support >> c.confidence >> c.significance >>
        c.failure_item >> scope >> c.location.propagating_fraction >>
        c.location.initiator_included >> c.location.mean_nodes >>
        c.location.occurrences;
    if (scope < 0 || scope > 5)
      throw std::runtime_error("load_model: bad scope");
    c.location.scope = static_cast<topo::Scope>(scope);
    for (std::size_t k = 0; k < items; ++k) {
      std::string pair;
      if (!(is >> pair)) ends_early("chains");
      const ChainItem item = parse_chain_item(pair);
      if (item.signal >= model.helo.size())
        throw std::runtime_error("load_model: chain references unknown template");
      c.items.push_back(item);
    }
    // The engine and Chain::lead() index items by failure_item.
    if (c.failure_item < -1 ||
        c.failure_item >= static_cast<std::int32_t>(c.items.size()))
      throw std::runtime_error("load_model: chain failure item out of range");
    model.chains.push_back(std::move(c));
  }
  expect(is, "end");
  if (!is) throw std::runtime_error("load_model: truncated file");
  return model;
}

OfflineModel load_model_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("load_model_file: cannot open " + path);
  return load_model(is);
}

// elsa-deterministic: pure byte fold — the digest primitive everything
// else's reproducibility bottoms out in.
std::uint64_t fnv1a_digest(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string model_to_string(const OfflineModel& model) {
  std::ostringstream os;
  save_model(os, model);
  return os.str();
}

// elsa-deterministic: the cross-config model fingerprint (DESIGN.md §13) —
// must hash identical bytes whatever the shard count or ingest order.
std::uint64_t model_digest(const OfflineModel& model) {
  return fnv1a_digest(model_to_string(model));
}

}  // namespace elsa::core
