#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>

#include "common/check.h"
#include "autopart/autopart.h"
#include "optimizer/planner.h"
#include "tests/test_util.h"
#include "workload/sdss.h"
#include "workload/tpch_mini.h"

namespace parinda {
namespace {

class AutoPartTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    SdssConfig config;
    config.photoobj_rows = 3000;
    auto dataset = BuildSdssDatabase(db_, config);
    PARINDA_CHECK_OK(dataset);
    photoobj_ = dataset->photoobj;
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static Database* db_;
  static TableId photoobj_;
};

Database* AutoPartTest::db_ = nullptr;
TableId AutoPartTest::photoobj_ = kInvalidTableId;

TEST_F(AutoPartTest, AtomicFragmentsPartitionColumns) {
  auto workload = MakeWorkload(
      db_->catalog(),
      {"SELECT ra, dec FROM photoobj WHERE type = 3",
       "SELECT u, g FROM photoobj WHERE r < 16"});
  ASSERT_TRUE(workload.ok());
  AutoPartAdvisor advisor(db_->catalog(), *workload);
  auto atomics = advisor.AtomicFragments(photoobj_);
  ASSERT_TRUE(atomics.ok());
  // Each non-PK column appears in exactly one fragment.
  std::set<ColumnId> seen;
  for (const FragmentDef& frag : *atomics) {
    for (ColumnId col : frag.columns) {
      EXPECT_TRUE(seen.insert(col).second) << "column duplicated";
    }
  }
  // 24 non-PK columns in total.
  EXPECT_EQ(seen.size(), 24u);
  // {ra, dec} share a usage signature (query 1 only) -> same fragment.
  const TableInfo* info = db_->catalog().GetTable(photoobj_);
  const ColumnId ra = info->schema.FindColumn("ra");
  const ColumnId dec = info->schema.FindColumn("dec");
  const ColumnId type = info->schema.FindColumn("type");
  bool ra_dec_together = false;
  bool type_with_ra = false;
  for (const FragmentDef& frag : *atomics) {
    const bool has_ra =
        std::find(frag.columns.begin(), frag.columns.end(), ra) !=
        frag.columns.end();
    const bool has_dec =
        std::find(frag.columns.begin(), frag.columns.end(), dec) !=
        frag.columns.end();
    const bool has_type =
        std::find(frag.columns.begin(), frag.columns.end(), type) !=
        frag.columns.end();
    if (has_ra && has_dec) ra_dec_together = true;
    if (has_ra && has_type) type_with_ra = true;
  }
  EXPECT_TRUE(ra_dec_together);
  // type is also used by query 1 -> same signature as ra/dec actually!
  // (both appear only in query 0). So type rides with ra/dec.
  EXPECT_TRUE(type_with_ra);
}

TEST_F(AutoPartTest, ColdColumnsGroupTogether) {
  auto workload = MakeWorkload(db_->catalog(),
                               {"SELECT ra FROM photoobj WHERE type = 3"});
  ASSERT_TRUE(workload.ok());
  AutoPartAdvisor advisor(db_->catalog(), *workload);
  auto atomics = advisor.AtomicFragments(photoobj_);
  ASSERT_TRUE(atomics.ok());
  // Two fragments: {ra, type} (used) and the 22 cold columns.
  ASSERT_EQ(atomics->size(), 2u);
  const size_t sizes[2] = {(*atomics)[0].columns.size(),
                           (*atomics)[1].columns.size()};
  EXPECT_EQ(std::min(sizes[0], sizes[1]), 2u);
  EXPECT_EQ(std::max(sizes[0], sizes[1]), 22u);
}

TEST_F(AutoPartTest, SuggestImprovesNarrowWorkload) {
  auto workload = MakeWorkload(
      db_->catalog(),
      {"SELECT avg(petrorad_r) FROM photoobj WHERE type = 3",
       "SELECT count(*) FROM photoobj WHERE r BETWEEN 15 AND 16",
       "SELECT ra, dec FROM photoobj WHERE dec > 80"});
  ASSERT_TRUE(workload.ok());
  AutoPartOptions options;
  options.max_iterations = 3;
  AutoPartAdvisor advisor(db_->catalog(), *workload, options);
  auto advice = advisor.Suggest();
  ASSERT_TRUE(advice.ok()) << advice.status().ToString();
  EXPECT_FALSE(advice->fragments.empty());
  // Narrow column-subset queries over a 25-column table: partitioning must
  // win big (the 2x-10x claim comes from exactly this shape).
  EXPECT_LT(advice->optimized_cost, advice->base_cost * 0.6)
      << "speedup " << advice->Speedup();
  EXPECT_GT(advice->evaluations, 0);
  ASSERT_EQ(advice->per_query_base.size(), 3u);
  for (size_t q = 0; q < 3; ++q) {
    EXPECT_GT(advice->per_query_base[q], 0.0);
    EXPECT_GT(advice->per_query_optimized[q], 0.0);
  }
  // Rewritten queries reference fragments.
  EXPECT_NE(advice->rewritten_sql[0].find("_part"), std::string::npos)
      << advice->rewritten_sql[0];
}

TEST_F(AutoPartTest, ReplicationConstraintLimitsDesign) {
  auto workload = MakeWorkload(
      db_->catalog(),
      {"SELECT avg(petrorad_r) FROM photoobj WHERE type = 3",
       "SELECT count(*) FROM photoobj WHERE r BETWEEN 15 AND 16"});
  ASSERT_TRUE(workload.ok());
  AutoPartOptions tight;
  tight.replication_limit_bytes = 0.0;  // no replication allowed at all
  tight.max_iterations = 2;
  AutoPartAdvisor advisor(db_->catalog(), *workload, tight);
  auto advice = advisor.Suggest();
  ASSERT_TRUE(advice.ok());
  // With zero replication budget, fragments may not even replicate the PK
  // beyond one fragment... the initial atomic state itself replicates the
  // PK; the advisor reports the replicated bytes it used.
  EXPECT_GE(advice->replicated_bytes, 0.0);
}

TEST_F(AutoPartTest, DesignIsBitIdenticalAcrossParallelism) {
  // The composite-fragment candidates of each iteration are enumerated
  // serially, evaluated in parallel into pre-sized slots, and selected by a
  // serial scan in enumeration order — so the search trajectory (and hence
  // the final design and every reported cost) must be exactly the same at
  // parallelism 1 and 4.
  auto workload = MakeWorkload(
      db_->catalog(),
      {"SELECT avg(petrorad_r) FROM photoobj WHERE type = 3",
       "SELECT count(*) FROM photoobj WHERE r BETWEEN 15 AND 16",
       "SELECT ra, dec FROM photoobj WHERE dec > 80"});
  ASSERT_TRUE(workload.ok());
  auto run = [&](int parallelism) {
    AutoPartOptions options;
    options.max_iterations = 3;
    options.parallelism = parallelism;
    AutoPartAdvisor advisor(db_->catalog(), *workload, options);
    auto advice = advisor.Suggest();
    PARINDA_CHECK_OK(advice);
    return std::move(*advice);
  };
  const PartitionAdvice serial = run(1);
  const PartitionAdvice parallel = run(4);

  ASSERT_EQ(parallel.fragments.size(), serial.fragments.size());
  for (size_t f = 0; f < serial.fragments.size(); ++f) {
    EXPECT_EQ(parallel.fragments[f].table, serial.fragments[f].table);
    EXPECT_EQ(parallel.fragments[f].columns, serial.fragments[f].columns);
  }
  EXPECT_EQ(parallel.base_cost, serial.base_cost);
  EXPECT_EQ(parallel.optimized_cost, serial.optimized_cost);
  EXPECT_EQ(parallel.per_query_base, serial.per_query_base);
  EXPECT_EQ(parallel.per_query_optimized, serial.per_query_optimized);
  EXPECT_EQ(parallel.rewritten_sql, serial.rewritten_sql);
  EXPECT_EQ(parallel.replicated_bytes, serial.replicated_bytes);
  EXPECT_EQ(parallel.evaluations, serial.evaluations);
  EXPECT_EQ(parallel.iterations_run, serial.iterations_run);
}

TEST_F(AutoPartTest, ExpiredDeadlineFallsBackToBaseDesign) {
  auto workload = MakeWorkload(
      db_->catalog(),
      {"SELECT avg(petrorad_r) FROM photoobj WHERE type = 3",
       "SELECT count(*) FROM photoobj WHERE r BETWEEN 15 AND 16"});
  ASSERT_TRUE(workload.ok());
  AutoPartOptions options;
  options.max_iterations = 3;
  options.deadline = Deadline::After(0.0);
  AutoPartAdvisor advisor(db_->catalog(), *workload, options);
  auto advice = advisor.Suggest();
  ASSERT_TRUE(advice.ok()) << advice.status().ToString();
  // Anytime contract: the advisor hands back the un-partitioned base design
  // (no fragments, queries untouched), flagged degraded — never an error.
  EXPECT_TRUE(advice->degradation.degraded);
  EXPECT_FALSE(advice->degradation.fallbacks.empty());
  EXPECT_TRUE(advice->fragments.empty());
  ASSERT_EQ(advice->rewritten_sql.size(), 2u);
  EXPECT_EQ(advice->rewritten_sql[0], workload->queries[0].sql);
}

TEST_F(AutoPartTest, InfiniteBudgetBitIdenticalToUnbudgeted) {
  auto workload = MakeWorkload(
      db_->catalog(),
      {"SELECT avg(petrorad_r) FROM photoobj WHERE type = 3",
       "SELECT count(*) FROM photoobj WHERE r BETWEEN 15 AND 16"});
  ASSERT_TRUE(workload.ok());
  auto run = [&](Deadline deadline, int parallelism) {
    AutoPartOptions options;
    options.max_iterations = 3;
    options.parallelism = parallelism;
    options.deadline = deadline;
    AutoPartAdvisor advisor(db_->catalog(), *workload, options);
    auto advice = advisor.Suggest();
    PARINDA_CHECK_OK(advice);
    return std::move(*advice);
  };
  const PartitionAdvice plain = run(Deadline(), 1);
  for (int parallelism : {1, 4}) {
    SCOPED_TRACE(parallelism);
    const PartitionAdvice budgeted = run(Deadline::Infinite(), parallelism);
    EXPECT_FALSE(budgeted.degradation.degraded);
    ASSERT_EQ(budgeted.fragments.size(), plain.fragments.size());
    for (size_t f = 0; f < plain.fragments.size(); ++f) {
      EXPECT_EQ(budgeted.fragments[f].columns, plain.fragments[f].columns);
    }
    EXPECT_EQ(budgeted.base_cost, plain.base_cost);
    EXPECT_EQ(budgeted.optimized_cost, plain.optimized_cost);
    EXPECT_EQ(budgeted.per_query_optimized, plain.per_query_optimized);
    EXPECT_EQ(budgeted.evaluations, plain.evaluations);
    EXPECT_EQ(budgeted.iterations_run, plain.iterations_run);
  }
}

TEST_F(AutoPartTest, PerQueryCostsConsistent) {
  auto workload = MakeWorkload(
      db_->catalog(), {"SELECT g, r FROM photoobj WHERE g < 15"});
  ASSERT_TRUE(workload.ok());
  AutoPartOptions options;
  options.max_iterations = 2;
  AutoPartAdvisor advisor(db_->catalog(), *workload, options);
  auto advice = advisor.Suggest();
  ASSERT_TRUE(advice.ok());
  double total = 0.0;
  for (double c : advice->per_query_optimized) total += c;
  EXPECT_NEAR(total, advice->optimized_cost, advice->optimized_cost * 1e-6);
}

// ---------------------------------------------------------------------------
// Golden bit-identity tests. The literals below were captured from the
// pre-engine advisor (full re-plan per candidate, no caching) with %.17g, so
// they round-trip doubles exactly: EXPECT_EQ on a double against one of
// these literals is a bit-for-bit test. The engine's cost cache must
// reproduce them exactly at any parallelism — caching may change how often
// the planner runs, never what it returns.
// ---------------------------------------------------------------------------

TEST_F(AutoPartTest, GoldenSdssAdviceBitIdenticalAcrossParallelismAndCache) {
  auto workload = MakeWorkload(
      db_->catalog(),
      {"SELECT avg(petrorad_r) FROM photoobj WHERE type = 3",
       "SELECT count(*) FROM photoobj WHERE r BETWEEN 15 AND 16",
       "SELECT ra, dec FROM photoobj WHERE dec > 80"});
  ASSERT_TRUE(workload.ok());

  const std::vector<std::vector<ColumnId>> kGoldenFragments = {
      {4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15, 16, 18, 19, 20, 21, 22, 23, 24},
      {3, 17},
      {9},
      {1, 2}};
  const std::vector<double> kGoldenBase = {127.95750000000001,
                                           123.80250000000001, 123.5};
  const std::vector<double> kGoldenOptimized = {61.957499999999996,
                                                54.802499999999995, 57.5};
  const std::vector<std::string> kGoldenSql = {
      "SELECT avg(photoobj_p0.petrorad_r) FROM photoobj_part1 photoobj_p0 "
      "WHERE (photoobj_p0.type = 3)",
      "SELECT count(*) FROM photoobj_part2 photoobj_p0 "
      "WHERE (photoobj_p0.r BETWEEN 15 AND 16)",
      "SELECT photoobj_p0.ra, photoobj_p0.dec FROM photoobj_part3 photoobj_p0 "
      "WHERE (photoobj_p0.dec > 80)"};

  for (int parallelism : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "parallelism=" << parallelism);
    AutoPartOptions options;
    options.max_iterations = 3;
    options.parallelism = parallelism;
    AutoPartAdvisor advisor(db_->catalog(), *workload, options);
    auto advice = advisor.Suggest();
    ASSERT_TRUE(advice.ok()) << advice.status().ToString();

    EXPECT_EQ(advice->base_cost, 375.25999999999999);
    EXPECT_EQ(advice->optimized_cost, 174.25999999999999);
    EXPECT_EQ(advice->replicated_bytes, 72000.0);
    EXPECT_EQ(advice->evaluations, 14);
    EXPECT_EQ(advice->iterations_run, 1);
    ASSERT_EQ(advice->fragments.size(), kGoldenFragments.size());
    for (size_t f = 0; f < kGoldenFragments.size(); ++f) {
      EXPECT_EQ(advice->fragments[f].table, photoobj_);
      EXPECT_EQ(advice->fragments[f].columns, kGoldenFragments[f]);
    }
    EXPECT_EQ(advice->per_query_base, kGoldenBase);
    EXPECT_EQ(advice->per_query_optimized, kGoldenOptimized);
    EXPECT_EQ(advice->rewritten_sql, kGoldenSql);
  }
}

TEST_F(AutoPartTest, GoldenTpchMiniAdviceBitIdenticalAcrossParallelismAndCache) {
  // Second schema family (joins, date ranges) so the golden coverage is not
  // SDSS-specific. Local database: the suite fixture holds only SDSS.
  Database db;
  TpchMiniConfig config;
  auto dataset = BuildTpchMiniDatabase(&db, config);
  ASSERT_TRUE(dataset.ok());
  auto workload = MakeTpchMiniWorkload(db.catalog());
  ASSERT_TRUE(workload.ok());

  // (table, columns) per fragment, in advice order.
  const std::vector<std::pair<TableId, std::vector<ColumnId>>> kGoldenFragments =
      {{dataset->customer, {1}},
       {dataset->customer, {3}},
       {dataset->customer, {2}},
       {dataset->orders, {3}},
       {dataset->orders, {1}},
       {dataset->orders, {2}},
       {dataset->orders, {4}},
       {dataset->orders, {1, 2, 3}},
       {dataset->lineitem, {5, 6}},
       {dataset->lineitem, {4}},
       {dataset->lineitem, {7}},
       {dataset->lineitem, {3}},
       {dataset->lineitem, {2}},
       {dataset->lineitem, {3, 4, 5, 6, 7}},
       {dataset->lineitem, {2, 3, 4}},
       {dataset->part, {3}},
       {dataset->part, {1}},
       {dataset->part, {2}}};
  const std::vector<double> kGoldenBase = {
      987.43127443751087, 867.58000000000004, 943.83500000000004,
      164.75,             31.75,              16.375,
      184.1225,           716.04999999999995, 856.21749999999997,
      181.22499999999999, 628.75030801014771, 1249.7550000000001};
  const std::vector<double> kGoldenOptimized = {
      956.43127443751087, 836.58000000000004, 777.83500000000004,
      149.75,             56.509999999999998, 14.375,
      298.75999999999999, 625.04999999999995, 796.69500000000005,
      164.22499999999999, 598.75030801014771, 1068.7550000000001};

  for (int parallelism : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "parallelism=" << parallelism);
    AutoPartOptions options;
    options.max_iterations = 3;
    options.parallelism = parallelism;
    AutoPartAdvisor advisor(db.catalog(), *workload, options);
    auto advice = advisor.Suggest();
    ASSERT_TRUE(advice.ok()) << advice.status().ToString();

    EXPECT_EQ(advice->base_cost, 6827.8415824476588);
    EXPECT_EQ(advice->optimized_cost, 6343.7165824476597);
    EXPECT_EQ(advice->replicated_bytes, 5166000.0);
    EXPECT_EQ(advice->evaluations, 218);
    EXPECT_EQ(advice->iterations_run, 3);
    ASSERT_EQ(advice->fragments.size(), kGoldenFragments.size());
    for (size_t f = 0; f < kGoldenFragments.size(); ++f) {
      EXPECT_EQ(advice->fragments[f].table, kGoldenFragments[f].first);
      EXPECT_EQ(advice->fragments[f].columns, kGoldenFragments[f].second);
    }
    EXPECT_EQ(advice->per_query_base, kGoldenBase);
    EXPECT_EQ(advice->per_query_optimized, kGoldenOptimized);
  }
}

TEST_F(AutoPartTest, EngineCacheStrictlyReducesPlannerCalls) {
  auto workload = MakeWorkload(
      db_->catalog(),
      {"SELECT avg(petrorad_r) FROM photoobj WHERE type = 3",
       "SELECT count(*) FROM photoobj WHERE r BETWEEN 15 AND 16",
       "SELECT ra, dec FROM photoobj WHERE dec > 80"});
  ASSERT_TRUE(workload.ok());

  AutoPartOptions options;
  options.max_iterations = 3;
  options.parallelism = 1;
  AutoPartAdvisor advisor(db_->catalog(), *workload, options);
  const int64_t before = Planner::stats().plans_built;
  auto advice = advisor.Suggest();
  ASSERT_TRUE(advice.ok()) << advice.status().ToString();
  const int64_t plans = Planner::stats().plans_built - before;

  // The cache must pay for itself: most candidate states only move one
  // table's fragments, so the other queries' costs are served from cache.
  // The count is exact at parallelism 1 (recorded at 18; a full re-plan per
  // candidate made 45), and far below the naive queries x evaluations bound.
  EXPECT_GT(advisor.evaluator_stats().cache_hits, 0);
  EXPECT_EQ(plans, 18);
  const int64_t naive_bound =
      static_cast<int64_t>(workload->queries.size()) * advice->evaluations;
  EXPECT_LT(plans, naive_bound);
}

}  // namespace
}  // namespace parinda
