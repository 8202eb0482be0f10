// The fault-injection layer's contract: plans parse (and re-parse from
// their own to_string), the injector's schedule is a pure function of
// (seed, arrival ordinal), every kind does what its clause says, and the
// injector-side conservation identity holds after flush.
#include "faultinject/injector.hpp"
#include "faultinject/plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using namespace elsa;
using faultinject::FaultInjector;
using faultinject::FaultKind;
using faultinject::FaultPlan;

std::vector<simlog::LogRecord> synthetic_stream(std::size_t n) {
  std::vector<simlog::LogRecord> recs(n);
  for (std::size_t i = 0; i < n; ++i) {
    recs[i].time_ms = 1'000'000 + static_cast<std::int64_t>(i) * 250;
    recs[i].node_id = static_cast<std::int32_t>(i % 64);
    recs[i].severity = simlog::Severity::Warning;
    recs[i].true_template = static_cast<std::uint16_t>(i % 7);
    recs[i].message = "synthetic record " + std::to_string(i);
  }
  return recs;
}

/// Run the whole stream through an injector (including flush) and return
/// the delivered sequence.
std::vector<simlog::LogRecord> run_stream(
    FaultInjector& inj, const std::vector<simlog::LogRecord>& in) {
  std::vector<simlog::LogRecord> out;
  for (const auto& rec : in) inj.ingest(rec, out);
  inj.flush(out);
  return out;
}

bool same_record(const simlog::LogRecord& a, const simlog::LogRecord& b) {
  return a.time_ms == b.time_ms && a.node_id == b.node_id &&
         a.severity == b.severity && a.true_template == b.true_template &&
         a.fault_id == b.fault_id && a.message == b.message;
}

// ---------------------------------------------------------------- plans --

TEST(FaultPlan, EmptyForms) {
  EXPECT_TRUE(FaultPlan().empty());
  EXPECT_TRUE(FaultPlan::parse("", 1).empty());
  EXPECT_TRUE(FaultPlan::parse("none", 1).empty());
  EXPECT_EQ(FaultPlan().to_string(), "<empty>");
}

TEST(FaultPlan, ParsesEveryClauseKind) {
  const FaultPlan p = FaultPlan::parse(
      "drop=0.1, dup=0.2, corrupt=0.05, reorder=0.3:12, skew=0.4:5000, "
      "stall=2@100:250, failworker=1@40",
      7);
  EXPECT_EQ(p.seed(), 7u);
  ASSERT_EQ(p.specs().size(), 7u);

  const auto find = [&](FaultKind k) {
    const auto it =
        std::find_if(p.specs().begin(), p.specs().end(),
                     [k](const auto& s) { return s.kind == k; });
    EXPECT_NE(it, p.specs().end()) << faultinject::to_string(k);
    return *it;
  };
  EXPECT_DOUBLE_EQ(find(FaultKind::kDrop).rate, 0.1);
  EXPECT_DOUBLE_EQ(find(FaultKind::kDuplicate).rate, 0.2);
  EXPECT_DOUBLE_EQ(find(FaultKind::kCorrupt).rate, 0.05);
  const auto reorder = find(FaultKind::kReorder);
  EXPECT_DOUBLE_EQ(reorder.rate, 0.3);
  EXPECT_EQ(reorder.depth, 12u);
  const auto skew = find(FaultKind::kSkew);
  EXPECT_DOUBLE_EQ(skew.rate, 0.4);
  EXPECT_EQ(skew.skew_ms, 5000);
  const auto stall = find(FaultKind::kStallShard);
  EXPECT_EQ(stall.shard, 2u);
  EXPECT_EQ(stall.at_record, 100u);
  EXPECT_EQ(stall.stall_ms, 250);
  const auto fail = find(FaultKind::kFailWorker);
  EXPECT_EQ(fail.shard, 1u);
  EXPECT_EQ(fail.at_record, 40u);
}

TEST(FaultPlan, ToStringRoundTrips) {
  const std::string text =
      "drop=0.1, dup=0.2, reorder=0.3:12, skew=0.4:5000, stall=2@100:250, "
      "failworker=1@40";
  const FaultPlan a = FaultPlan::parse(text, 99);
  const FaultPlan b = FaultPlan::parse(a.to_string(), 99);
  ASSERT_EQ(b.specs().size(), a.specs().size());
  for (std::size_t i = 0; i < a.specs().size(); ++i) {
    EXPECT_EQ(b.specs()[i].kind, a.specs()[i].kind);
    EXPECT_DOUBLE_EQ(b.specs()[i].rate, a.specs()[i].rate);
    EXPECT_EQ(b.specs()[i].skew_ms, a.specs()[i].skew_ms);
    EXPECT_EQ(b.specs()[i].depth, a.specs()[i].depth);
    EXPECT_EQ(b.specs()[i].shard, a.specs()[i].shard);
    EXPECT_EQ(b.specs()[i].at_record, a.specs()[i].at_record);
    EXPECT_EQ(b.specs()[i].stall_ms, a.specs()[i].stall_ms);
  }
}

TEST(FaultPlan, AllExpandsToEveryKind) {
  const FaultPlan p = FaultPlan::parse("all", 42);
  EXPECT_FALSE(p.empty());
  std::vector<FaultKind> kinds;
  for (const auto& s : p.specs()) kinds.push_back(s.kind);
  for (const FaultKind k :
       {FaultKind::kDrop, FaultKind::kDuplicate, FaultKind::kCorrupt,
        FaultKind::kReorder, FaultKind::kSkew, FaultKind::kStallShard,
        FaultKind::kFailWorker}) {
    EXPECT_NE(std::find(kinds.begin(), kinds.end(), k), kinds.end())
        << faultinject::to_string(k);
  }
}

TEST(FaultPlan, MalformedClausesThrowWithGrammar) {
  for (const char* bad :
       {"bogus=1", "drop", "drop=1.5", "drop=-0.1", "reorder=0.1:zero",
        "stall=1@x:5", "stall=1", "failworker=@3", "skew=0.1"}) {
    EXPECT_THROW(
        {
          try {
            FaultPlan::parse(bad, 0);
          } catch (const std::runtime_error& e) {
            // Every parse error embeds the grammar so `elsa chaos` users
            // see the fix inline.
            EXPECT_NE(std::string(e.what()).find("drop=RATE"),
                      std::string::npos)
                << bad << " -> " << e.what();
            throw;
          }
        },
        std::runtime_error)
        << bad;
  }
}

TEST(FaultPlan, ServeSideHooksAreExactMatch) {
  const FaultPlan p =
      FaultPlan::parse("stall=1@50:200, stall=1@50:100, failworker=0@9", 3);
  // Sums overlapping stalls at the trigger point, zero everywhere else.
  EXPECT_EQ(p.stall_ms_at(1, 50), 300);
  EXPECT_EQ(p.stall_ms_at(1, 49), 0);
  EXPECT_EQ(p.stall_ms_at(1, 51), 0);
  EXPECT_EQ(p.stall_ms_at(0, 50), 0);
  EXPECT_TRUE(p.worker_fails_at(0, 9));
  EXPECT_FALSE(p.worker_fails_at(0, 8));
  EXPECT_FALSE(p.worker_fails_at(0, 10));  // no re-fire after restart
  EXPECT_FALSE(p.worker_fails_at(1, 9));
}

// ------------------------------------------------------------- injector --

TEST(FaultInjector, EmptyPlanIsStrictPassThrough) {
  const FaultPlan plan;
  FaultInjector inj(plan);
  const auto in = synthetic_stream(200);
  const auto out = run_stream(inj, in);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i)
    EXPECT_TRUE(same_record(out[i], in[i])) << "record " << i;
  EXPECT_EQ(inj.stats().seen, 200u);
  EXPECT_EQ(inj.stats().delivered, 200u);
  EXPECT_EQ(inj.stats().dropped, 0u);
}

TEST(FaultInjector, SameSeedSameSchedule) {
  const FaultPlan plan = FaultPlan::parse("all", 1234);
  FaultInjector a(plan);
  FaultInjector b(plan);
  const auto in = synthetic_stream(2000);
  const auto out_a = run_stream(a, in);
  const auto out_b = run_stream(b, in);
  ASSERT_EQ(out_a.size(), out_b.size());
  for (std::size_t i = 0; i < out_a.size(); ++i)
    ASSERT_TRUE(same_record(out_a[i], out_b[i])) << "record " << i;
  EXPECT_EQ(a.stats().dropped, b.stats().dropped);
  EXPECT_EQ(a.stats().duplicated, b.stats().duplicated);
  EXPECT_EQ(a.stats().corrupted, b.stats().corrupted);
  EXPECT_EQ(a.stats().reordered, b.stats().reordered);
  EXPECT_EQ(a.stats().skewed, b.stats().skewed);
}

TEST(FaultInjector, DifferentSeedDifferentSchedule) {
  const auto in = synthetic_stream(2000);
  const FaultPlan p1 = FaultPlan::parse("drop=0.2", 1);
  const FaultPlan p2 = FaultPlan::parse("drop=0.2", 2);
  FaultInjector a(p1);
  FaultInjector b(p2);
  const auto out_a = run_stream(a, in);
  const auto out_b = run_stream(b, in);
  // Same rate, different coin flips: the surviving subsequences differ.
  bool differ = out_a.size() != out_b.size();
  for (std::size_t i = 0; !differ && i < out_a.size(); ++i)
    differ = !same_record(out_a[i], out_b[i]);
  EXPECT_TRUE(differ);
}

TEST(FaultInjector, DropRateOneDropsEverything) {
  const FaultPlan plan = FaultPlan::parse("drop=1", 5);
  FaultInjector inj(plan);
  const auto out = run_stream(inj, synthetic_stream(100));
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(inj.stats().dropped, 100u);
  EXPECT_EQ(inj.stats().delivered, 0u);
}

TEST(FaultInjector, DupRateOneDoublesEverything) {
  const FaultPlan plan = FaultPlan::parse("dup=1", 5);
  FaultInjector inj(plan);
  const auto in = synthetic_stream(100);
  const auto out = run_stream(inj, in);
  ASSERT_EQ(out.size(), 200u);
  EXPECT_EQ(inj.stats().duplicated, 100u);
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_TRUE(same_record(out[2 * i], in[i]));
    EXPECT_TRUE(same_record(out[2 * i + 1], in[i]));
  }
}

TEST(FaultInjector, CorruptedRecordsAreStructurallyInvalid) {
  const FaultPlan plan = FaultPlan::parse("corrupt=1", 5);
  FaultInjector inj(plan);
  const auto out = run_stream(inj, synthetic_stream(100));
  ASSERT_EQ(out.size(), 100u);
  EXPECT_EQ(inj.stats().corrupted, 100u);
  // Every mangle must be one the service validator rejects: node id out of
  // the topology's range (or below the -1 sentinel) or a negative time.
  for (const auto& rec : out) {
    const bool invalid =
        rec.node_id < -1 || rec.node_id >= 1024 || rec.time_ms < 0;
    EXPECT_TRUE(invalid) << "node=" << rec.node_id << " t=" << rec.time_ms;
  }
}

TEST(FaultInjector, ReorderHoldsBackByDepth) {
  const FaultPlan plan = FaultPlan::parse("reorder=1:4", 5);
  FaultInjector inj(plan);
  const auto in = synthetic_stream(20);
  std::vector<simlog::LogRecord> out;
  inj.ingest(in[0], out);
  EXPECT_TRUE(out.empty());  // held, not delivered
  for (std::size_t i = 1; i <= 4; ++i) inj.ingest(in[i], out);
  // Record 0 was held at seen=1 with depth 4, so it frees once seen >= 5.
  ASSERT_FALSE(out.empty());
  EXPECT_TRUE(same_record(out[0], in[0]));
  inj.flush(out);
  EXPECT_EQ(out.size(), 5u);
  EXPECT_EQ(inj.stats().reordered, 5u);
}

TEST(FaultInjector, SkewStaysWithinBound) {
  constexpr std::int64_t kSkewMs = 4000;
  const FaultPlan plan = FaultPlan::parse("skew=1:4000", 5);
  FaultInjector inj(plan);
  const auto in = synthetic_stream(500);
  const auto out = run_stream(inj, in);
  ASSERT_EQ(out.size(), in.size());
  EXPECT_EQ(inj.stats().skewed, in.size());
  bool any_moved = false;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const std::int64_t delta = out[i].time_ms - in[i].time_ms;
    EXPECT_GE(delta, -kSkewMs);
    EXPECT_LE(delta, kSkewMs);
    any_moved = any_moved || delta != 0;
  }
  EXPECT_TRUE(any_moved);
}

TEST(FaultInjector, ConservationHoldsAfterFlush) {
  for (const char* plan_text :
       {"all", "drop=0.3", "dup=0.5", "reorder=0.8:16",
        "drop=0.2, dup=0.2, corrupt=0.2, reorder=0.5:32, skew=0.3:60000"}) {
    const FaultPlan plan = FaultPlan::parse(plan_text, 77);
    FaultInjector inj(plan);
    const auto out = run_stream(inj, synthetic_stream(3000));
    const auto& s = inj.stats();
    EXPECT_EQ(s.seen + s.duplicated, s.delivered + s.dropped) << plan_text;
    EXPECT_EQ(out.size(), s.delivered) << plan_text;
  }
}

}  // namespace
