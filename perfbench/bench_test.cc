// Tests of the benchmark itself: its statistics helpers, the seeded what-if
// script, and that a seeded run's counts repeat exactly (on the small
// sizes). Run with `python3 perfbench/run.py --test`.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "perfbench/bench_lib.h"
#include "workload/sdss.h"
#include "workload/sdss_scale.h"

namespace parinda {
namespace perfbench {
namespace {

TEST(Percentile, HighestReportableLeavesTenSamplesAbove) {
  EXPECT_DOUBLE_EQ(HighestReportablePercentile(200), 95.0);
  EXPECT_DOUBLE_EQ(HighestReportablePercentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(HighestReportablePercentile(100), 90.0);
  EXPECT_DOUBLE_EQ(HighestReportablePercentile(10), 0.0);
  EXPECT_DOUBLE_EQ(HighestReportablePercentile(5), 0.0);
  // Exactly ten samples lie above the reported percentile.
  for (size_t n : {11u, 57u, 200u, 401u}) {
    std::vector<double> v;
    for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
    const double p = Percentile(v, HighestReportablePercentile(n));
    EXPECT_EQ(n - static_cast<size_t>(p), 10u) << n;
  }
}

TEST(Percentile, NearestRankAndMedian) {
  std::vector<double> v;
  for (int i = 200; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 100.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 95), 190.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 200.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(SpanSelfTimes, SubtractsDirectChildrenOnly) {
  // root [0,100) > a [10,40) > a1 [15,25); root > b [50,90).
  std::vector<trace::TraceEvent> events = {
      {"a1", 15, 10, 1}, {"root", 0, 100, 1}, {"b", 50, 40, 1}, {"a", 10, 30, 1}};
  const auto totals = SpanSelfTimes(events);
  EXPECT_NEAR(totals.at("root").self_s, 30e-6, 1e-12);
  EXPECT_NEAR(totals.at("a").self_s, 20e-6, 1e-12);
  EXPECT_NEAR(totals.at("a1").self_s, 10e-6, 1e-12);
  EXPECT_NEAR(totals.at("b").total_s, 40e-6, 1e-12);
  EXPECT_EQ(totals.at("a").count, 1);
}

class ScriptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SdssConfig config;
    config.photoobj_rows = 2000;
    ASSERT_TRUE(BuildSdssDatabase(&db_, config).ok());
    SdssScaleConfig scale;
    scale.num_queries = 200;
    auto workload = MakeScaledSdssWorkload(db_.catalog(), scale);
    ASSERT_TRUE(workload.ok());
    workload_ = std::move(*workload);
  }
  Database db_;
  Workload workload_;
};

TEST_F(ScriptTest, SameSeedSameScript) {
  auto a = MakeStepScript(db_.catalog(), workload_, 7, 200);
  auto b = MakeStepScript(db_.catalog(), workload_, 7, 200);
  auto c = MakeStepScript(db_.catalog(), workload_, 8, 200);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(DescribeScript(*a), DescribeScript(*b));
  EXPECT_NE(DescribeScript(*a), DescribeScript(*c));
}

TEST_F(ScriptTest, DropsNameLiveFeaturesAndLiveSetStaysBounded) {
  auto script = MakeStepScript(db_.catalog(), workload_, 11, 300, 6);
  ASSERT_TRUE(script.ok());
  std::set<int> live;
  int adds = 0, partitions = 0, drops = 0;
  for (size_t i = 0; i < script->size(); ++i) {
    const ScriptStep& step = (*script)[i];
    if (step.kind == ScriptStep::Kind::kDrop) {
      ASSERT_EQ(live.erase(step.drop_of), 1u) << "step " << i;
      ++drops;
    } else {
      live.insert(static_cast<int>(i));
      ++(step.kind == ScriptStep::Kind::kAddIndex ? adds : partitions);
    }
    ASSERT_LE(live.size(), 6u);
  }
  EXPECT_GT(adds, 0);
  EXPECT_GT(partitions, 0);
  EXPECT_GT(drops, 0);
}

RunResult RunSmall(const std::string& workload, uint64_t seed, bool trace) {
  auto spec = SpecFor(workload, /*small=*/true);
  EXPECT_TRUE(spec.ok());
  RunOptions options;
  options.spec = *spec;
  options.seed = seed;
  options.seconds = 0.01;  // the minimum number of rounds
  options.trace = trace;
  auto result = RunBenchmark(options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? *result : RunResult{};
}

void ExpectClean(const RunResult& r) {
  EXPECT_TRUE(r.correct);
  EXPECT_EQ(r.failed, 0);
  EXPECT_GT(r.attempted, 0);
  for (const std::string& failure : r.failures) ADD_FAILURE() << failure;
}

// At parallelism 1 every per-layer count (planner calls per phase, solver
// nodes, engine hits/misses/evictions, INUM misses, ...) repeats exactly for
// a seed, and tracing does not change the advice.
TEST(Run, CountsRepeatExactlyAndTracingKeepsAdvice) {
  const RunResult first = RunSmall("sdss-zipf-tight", 5, true);
  const RunResult second = RunSmall("sdss-zipf-tight", 5, true);
  const RunResult untraced = RunSmall("sdss-zipf-tight", 5, false);
  ExpectClean(first);
  ExpectClean(second);
  ExpectClean(untraced);
  int compared = 0;
  for (const MetricDef& def : PerLayerMetrics()) {
    const std::string unit = def.unit;
    if (unit == "s" || std::string(def.name) == "trace.overhead_frac") continue;
    ASSERT_TRUE(first.metrics.count(def.name)) << def.name;
    EXPECT_EQ(first.metrics.at(def.name), second.metrics.at(def.name))
        << def.name;
    ++compared;
  }
  EXPECT_GT(compared, 25);
  EXPECT_GT(first.metrics.at("engine.cache_evictions"), 0.0);
  EXPECT_EQ(first.metrics.at("trace.dropped"), 0.0);
  EXPECT_EQ(first.digests, second.digests);
  EXPECT_EQ(first.digests, untraced.digests);
}

// A seed never used while the benchmark was written still runs clean, on
// every workload, with executed speedups of at least 1.
TEST(Run, HeldOutSeedRunsClean) {
  for (const std::string& workload : WorkloadNames()) {
    SCOPED_TRACE(workload);
    const RunResult r = RunSmall(workload, 424242, false);
    ExpectClean(r);
    EXPECT_GE(r.metrics.at("index_speedup_exec"), 1.0);
    EXPECT_GE(r.metrics.at("partition_speedup_exec"), 1.0);
    EXPECT_EQ(r.metrics.at("ok_ops_frac"), 1.0);
  }
}

TEST(Run, UnknownWorkloadIsAnError) {
  EXPECT_FALSE(SpecFor("tpch", false).ok());
}

}  // namespace
}  // namespace perfbench
}  // namespace parinda
