// Model-serialisation tests: round trip of every persisted field, version
// and corruption rejection, and behavioural equivalence — a loaded model
// must drive the online engine to the same predictions as the original.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "elsa/model_io.hpp"
#include "elsa/online.hpp"
#include "simlog/scenario.hpp"

namespace {

using namespace elsa;

const core::OfflineModel& trained_model() {
  static const core::OfflineModel model = [] {
    auto sc = simlog::make_bluegene_scenario(2012, 5.0, 30);
    const auto trace = sc.generator.generate(sc.config);
    core::PipelineConfig cfg;
    return core::train_offline(trace, trace.t_end_ms, core::Method::Hybrid,
                               cfg);
  }();
  return model;
}

TEST(ModelIo, RoundTripPreservesStructure) {
  const auto& model = trained_model();
  std::stringstream ss;
  core::save_model(ss, model);
  const auto loaded = core::load_model(ss);

  EXPECT_EQ(loaded.method, model.method);
  EXPECT_EQ(loaded.train_begin_ms, model.train_begin_ms);
  EXPECT_EQ(loaded.train_end_ms, model.train_end_ms);
  ASSERT_EQ(loaded.helo.size(), model.helo.size());
  for (std::uint32_t t = 0; t < model.helo.size(); ++t) {
    EXPECT_EQ(loaded.helo.at(t).text(), model.helo.at(t).text());
    EXPECT_EQ(loaded.helo.at(t).count, model.helo.at(t).count);
  }
  ASSERT_EQ(loaded.profiles.size(), model.profiles.size());
  for (std::size_t i = 0; i < model.profiles.size(); ++i) {
    EXPECT_EQ(loaded.profiles[i].cls, model.profiles[i].cls);
    EXPECT_DOUBLE_EQ(loaded.profiles[i].spike_delta,
                     model.profiles[i].spike_delta);
    EXPECT_EQ(loaded.profiles[i].dropout_window,
              model.profiles[i].dropout_window);
  }
  EXPECT_EQ(loaded.tmpl_severity, model.tmpl_severity);
  ASSERT_EQ(loaded.chains.size(), model.chains.size());
  for (std::size_t c = 0; c < model.chains.size(); ++c) {
    ASSERT_EQ(loaded.chains[c].items.size(), model.chains[c].items.size());
    for (std::size_t j = 0; j < model.chains[c].items.size(); ++j) {
      EXPECT_EQ(loaded.chains[c].items[j].signal,
                model.chains[c].items[j].signal);
      EXPECT_EQ(loaded.chains[c].items[j].delay,
                model.chains[c].items[j].delay);
    }
    EXPECT_EQ(loaded.chains[c].support, model.chains[c].support);
    EXPECT_EQ(loaded.chains[c].failure_item, model.chains[c].failure_item);
    EXPECT_EQ(loaded.chains[c].location.scope,
              model.chains[c].location.scope);
  }
}

TEST(ModelIo, LoadedMinerClassifiesLikeOriginal) {
  const auto& model = trained_model();
  std::stringstream ss;
  core::save_model(ss, model);
  const auto loaded = core::load_model(ss);

  auto sc = simlog::make_bluegene_scenario(99, 0.2, 30);
  const auto trace = sc.generator.generate(sc.config);
  for (std::size_t i = 0; i < trace.records.size(); i += 37) {
    const auto& msg = trace.records[i].message;
    EXPECT_EQ(loaded.helo.classify_const(msg), model.helo.classify_const(msg))
        << msg;
  }
}

TEST(ModelIo, LoadedModelDrivesSamePredictions) {
  const auto& model = trained_model();
  std::stringstream ss;
  core::save_model(ss, model);
  auto loaded = core::load_model(ss);

  auto sc = simlog::make_bluegene_scenario(4242, 2.0, 30);
  const auto trace = sc.generator.generate(sc.config);
  core::PipelineConfig cfg;
  core::EngineConfig ec = cfg.engine;
  ec.dt_ms = cfg.dt_ms;

  auto run = [&](const core::OfflineModel& m) {
    core::OnlineEngine engine(trace.topology, m.chains, m.profiles, ec);
    auto helo = m.helo;
    for (const auto& rec : trace.records)
      engine.feed(rec, helo.classify(rec.message));
    engine.finish(trace.t_end_ms);
    return engine.predictions();
  };
  const auto a = run(model);
  const auto b = run(loaded);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tmpl, b[i].tmpl);
    EXPECT_EQ(a[i].trigger_time_ms, b[i].trigger_time_ms);
    EXPECT_EQ(a[i].nodes, b[i].nodes);
  }
}

TEST(ModelIo, RejectsBadMagicAndVersion) {
  std::stringstream bad1("NOT-A-MODEL 1\n");
  EXPECT_THROW(core::load_model(bad1), std::runtime_error);
  std::stringstream bad2("ELSA-MODEL 999\nmethod 0\n");
  EXPECT_THROW(core::load_model(bad2), std::runtime_error);
}

TEST(ModelIo, RejectsTruncatedFile) {
  const auto& model = trained_model();
  std::stringstream ss;
  core::save_model(ss, model);
  const std::string full = ss.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(core::load_model(truncated), std::runtime_error);
}

TEST(ModelIo, RejectsDanglingChainReference) {
  std::stringstream ss;
  ss << "ELSA-MODEL 1\nmethod 0\ntrain 0 1000\n"
     << "templates 1\nT 5 2 hello world\n"
     << "profiles 1\nP 2 0 0 0.5 0 0 0 0\n"
     << "severities 1\nS 0\n"
     << "chains 1\nC 2 4 0.5 0.9 1 1 0 1 1 4 0:0 9:5\n"  // signal 9 unknown
     << "end\n";
  EXPECT_THROW(core::load_model(ss), std::runtime_error);
}

/// The message load_model fails with on `text`; empty if it loads. A loader
/// that sizes an allocation from an unchecked count throws bad_alloc here
/// instead, which the test reports as an error.
std::string load_error(const std::string& text) {
  std::stringstream is(text);
  try {
    core::load_model(is);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return {};
}

/// A model file's header, and a one-template model up to its chains.
const std::string kHead = "ELSA-MODEL 1\nmethod 0\ntrain 0 1000\n";
const std::string kUpToChains = kHead +
                                "templates 1\nT 5 2 hello world\n"
                                "profiles 1\nP 2 0 0 0.5 0 0 0 0\n"
                                "severities 1\nS 0\n";

// Each count promises far more rows, tokens or items than the file holds:
// the loader must fail at the first missing one, naming its section, and
// never size an allocation from the count. Every count is far past what a
// machine's memory could back at its element size (1-byte severities and
// 8-byte chain items take 10^12), so a loader that did allocate would fail
// outright rather than touch the pages.
TEST(ModelIo, RejectsCountsTheFileDoesNotHold) {
  const std::pair<std::string, std::string> cases[] = {
      {kHead + "templates 4000000000\n", "templates"},
      {kHead + "templates 1\nT 1 3000000000 a\n", "templates"},
      {kHead + "templates 0\nprofiles 4000000000\nend\n", "profiles"},
      {kHead + "templates 0\nprofiles 0\nseverities 1000000000000\nS 0\n",
       "severities"},
      {kUpToChains + "chains 4000000000\nend\n", "chains"},
      {kUpToChains + "chains 1\nC 1000000000000 4 0.5 0.9 1 1 0 1 1 4 0:0\n",
       "chains"}};
  for (const auto& [text, section] : cases)
    EXPECT_EQ(load_error(text), "load_model: " + section + " section ends early")
        << text;
}

TEST(ModelIo, RejectsBadChainItems) {
  const std::string row = kUpToChains + "chains 1\nC 2 4 0.5 0.9 ";
  const std::string items = " 1 0 1 1 4 0:0 ";
  const std::pair<std::string, std::string> cases[] = {
      {"1" + items + "99999999999999999999:1", "signal"},  // overflows
      {"1" + items + "0:99999999999", "delay"},
      {"1" + items + "0:1x", "delay"},
      {"1" + items + "7", "signal"},  // no ':'
      {"2" + items + "0:3", "failure item"},  // past the last item
      {"-2" + items + "0:3", "failure item"}};
  for (const auto& [text, field] : cases)
    EXPECT_NE(load_error(row + text + "\nend\n").find(field),
              std::string::npos)
        << text;
  for (const char* ok : {"1", "0", "-1"})
    EXPECT_EQ(load_error(row + ok + items + "0:-3\nend\n"), "") << ok;
}

TEST(ModelIo, DigestIsStableAndSeparatesModels) {
  // model_digest is the identity the online≡batch mining gate compares:
  // repeatable on the same model, unchanged by a serialisation round trip,
  // different the moment any persisted field differs.
  const auto& model = trained_model();
  const std::uint64_t d = core::model_digest(model);
  EXPECT_EQ(d, core::model_digest(model));

  std::stringstream ss;
  core::save_model(ss, model);
  const auto loaded = core::load_model(ss);
  EXPECT_EQ(core::model_digest(loaded), d);

  auto tweaked = loaded;
  ASSERT_FALSE(tweaked.chains.empty());
  tweaked.chains[0].support += 1;
  EXPECT_NE(core::model_digest(tweaked), d);
}

TEST(ModelIo, Fnv1aDigestChainsConcatenation) {
  const std::uint64_t whole = core::fnv1a_digest("abcdef");
  const std::uint64_t chained =
      core::fnv1a_digest("def", core::fnv1a_digest("abc"));
  EXPECT_EQ(whole, chained);
  EXPECT_NE(core::fnv1a_digest("abc"), core::fnv1a_digest("abd"));
}

TEST(ModelIo, FileRoundTrip) {
  const auto& model = trained_model();
  const std::string path = "/tmp/elsa_model_io_test.model";
  core::save_model_file(path, model);
  const auto loaded = core::load_model_file(path);
  EXPECT_EQ(loaded.chains.size(), model.chains.size());
  std::remove(path.c_str());
  EXPECT_THROW(core::load_model_file("/nonexistent/x.model"),
               std::runtime_error);
}

}  // namespace
