#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/check.h"
#include "engine/eval_context.h"
#include "engine/inum_bank.h"
#include "engine/workload_evaluator.h"
#include "optimizer/planner.h"
#include "tests/test_util.h"
#include "workload/sdss.h"

namespace parinda {
namespace {

class EngineTest : public ::testing::Test {
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

Database* EngineTest::db_ = nullptr;
TableId EngineTest::photoobj_ = kInvalidTableId;

TEST_F(EngineTest, ParamsSignatureIsBitExact) {
  CostParams a;
  CostParams b;
  EXPECT_EQ(ParamsSignature(a), ParamsSignature(b));
  // One ULP apart must produce a different signature: the signature is the
  // cache's equality test, and caching may never change a cost.
  b.random_page_cost = std::nextafter(b.random_page_cost, 5.0);
  EXPECT_NE(ParamsSignature(a), ParamsSignature(b));
  CostParams c;
  c.enable_nestloop = false;
  EXPECT_NE(ParamsSignature(a), ParamsSignature(c));
}

TEST_F(EngineTest, TouchesImplementsTableDependency) {
  const std::vector<TableId> query_tables = {1, 3};
  EXPECT_TRUE(WorkloadEvaluator::Touches(query_tables, {}));  // global
  EXPECT_TRUE(WorkloadEvaluator::Touches(query_tables, {3}));
  EXPECT_FALSE(WorkloadEvaluator::Touches(query_tables, {2}));
  EXPECT_TRUE(WorkloadEvaluator::Touches(query_tables, {2, 3, 7}));
}

TEST_F(EngineTest, KeyForIgnoresUnitsOnForeignTables) {
  auto workload = MakeWorkload(
      db_->catalog(), {"SELECT ra, dec FROM photoobj WHERE type = 3"});
  ASSERT_TRUE(workload.ok());
  const CompressedWorkload fold =
      CompressWorkload(db_->catalog(), *workload);
  WorkloadEvaluator evaluator(db_->catalog(), fold);
  CostParams params;

  const std::string bare = evaluator.KeyFor(0, {}, params);
  OverlayUnit foreign{{photoobj_ + 1000}, "index:elsewhere"};
  OverlayUnit touching{{photoobj_}, "index:here"};
  OverlayUnit global{{}, "join:nmh"};

  // A unit on a table the query never reads leaves its key intact — the
  // table-dependency invalidation rule.
  EXPECT_EQ(evaluator.KeyFor(0, {foreign}, params), bare);
  EXPECT_NE(evaluator.KeyFor(0, {touching}, params), bare);
  EXPECT_NE(evaluator.KeyFor(0, {global}, params), bare);
  // Unit order is part of the key; params are too.
  CostParams other;
  other.enable_hashjoin = false;
  EXPECT_NE(evaluator.KeyFor(0, {touching}, other),
            evaluator.KeyFor(0, {touching}, params));
}

TEST_F(EngineTest, BaseCostIsCachedAndBitIdentical) {
  auto workload = MakeWorkload(
      db_->catalog(), {"SELECT count(*) FROM photoobj WHERE r BETWEEN 15 AND 16"});
  ASSERT_TRUE(workload.ok());
  const CompressedWorkload fold =
      CompressWorkload(db_->catalog(), *workload);
  WorkloadEvaluator evaluator(db_->catalog(), fold);
  const EvalContext ctx{};

  EXPECT_FALSE(evaluator.CachedBaseCost(0, ctx.params).has_value());
  const int64_t before = Planner::stats().plans_built;
  auto first = evaluator.BaseCost(0, ctx);
  ASSERT_TRUE(first.ok());
  const int64_t after_first = Planner::stats().plans_built;
  EXPECT_GT(after_first, before);
  auto second = evaluator.BaseCost(0, ctx);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(Planner::stats().plans_built, after_first);  // served from cache
  EXPECT_EQ(*first, *second);
  ASSERT_TRUE(evaluator.CachedBaseCost(0, ctx.params).has_value());
  EXPECT_EQ(*evaluator.CachedBaseCost(0, ctx.params), *first);
}

TEST_F(EngineTest, PartitioningCacheHitsAreBitIdentical) {
  auto workload = MakeWorkload(
      db_->catalog(),
      {"SELECT avg(petrorad_r) FROM photoobj WHERE type = 3",
       "SELECT ra, dec FROM photoobj WHERE dec > 80"});
  ASSERT_TRUE(workload.ok());

  PartitionedTable design;
  design.table = photoobj_;
  const TableInfo* info = db_->catalog().GetTable(photoobj_);
  std::vector<ColumnId> rest;
  for (ColumnId c = 1; c < info->schema.num_columns(); ++c) {
    rest.push_back(c);
  }
  design.fragments = {{rest}};

  const CompressedWorkload fold =
      CompressWorkload(db_->catalog(), *workload);
  WorkloadEvaluator cached(db_->catalog(), fold);
  const EvalContext ctx{};
  PartitionEvalOptions opts;
  std::vector<double> per_query(2, 0.0);
  auto first = cached.EvaluatePartitioning({design}, ctx, opts, &per_query,
                                           nullptr);
  ASSERT_TRUE(first.ok());
  const std::vector<double> first_per_query = per_query;
  EXPECT_EQ(cached.stats().cache_hits, 0);

  const int64_t plans_before = Planner::stats().plans_built;
  auto second = cached.EvaluatePartitioning({design}, ctx, opts, &per_query,
                                            nullptr);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(Planner::stats().plans_built, plans_before);  // all hits
  EXPECT_EQ(cached.stats().cache_hits, 2);
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(first_per_query, per_query);

  // The re-planned total, recorded with %.17g.
  EXPECT_EQ(*first, 251.45750000000001);
}

TEST_F(EngineTest, EvaluateQueryCachesUnderKeyAndBypassesOnEmptyKey) {
  auto workload = MakeWorkload(
      db_->catalog(), {"SELECT ra, dec FROM photoobj WHERE dec > 80"});
  ASSERT_TRUE(workload.ok());
  const CompressedWorkload fold =
      CompressWorkload(db_->catalog(), *workload);
  WorkloadEvaluator evaluator(db_->catalog(), fold);

  WorkloadEvaluator::OverlayView view;
  view.catalog = &db_->catalog();
  static const std::vector<const TableInfo*> kNoFragments;
  view.fragments = &kNoFragments;

  const std::string key = evaluator.KeyFor(0, {}, view.params);
  auto first = evaluator.EvaluateQuery(0, view, key);
  ASSERT_TRUE(first.ok());
  const int64_t plans_after_first = Planner::stats().plans_built;
  auto hit = evaluator.EvaluateQuery(0, view, key);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(Planner::stats().plans_built, plans_after_first);
  EXPECT_EQ(first->cost, hit->cost);
  EXPECT_EQ(first->rewritten_sql, hit->rewritten_sql);

  // An empty key bypasses the cache: the planner runs again.
  auto bypass = evaluator.EvaluateQuery(0, view, "");
  ASSERT_TRUE(bypass.ok());
  EXPECT_GT(Planner::stats().plans_built, plans_after_first);
  EXPECT_EQ(first->cost, bypass->cost);
}

TEST_F(EngineTest, InumBankReusesModelsUntilParamsChange) {
  auto workload = MakeWorkload(
      db_->catalog(), {"SELECT count(*) FROM photoobj WHERE r BETWEEN 15 AND 16"});
  ASSERT_TRUE(workload.ok());
  const CompressedWorkload fold =
      CompressWorkload(db_->catalog(), *workload);
  InumBank bank(db_->catalog(), fold);
  EXPECT_EQ(bank.Get(0), nullptr);

  CostParams params;
  auto model = bank.Model(0, params, nullptr);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(bank.Get(0), *model);
  auto base = (*model)->EstimateCost({});
  ASSERT_TRUE(base.ok());
  const int64_t served = bank.TotalEstimatesServed();
  EXPECT_GT(served, 0);

  // Same params: the model (and its estimate cache) is reused.
  auto again = bank.Model(0, params, nullptr);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *model);
  EXPECT_EQ(bank.TotalEstimatesServed(), served);

  // Changed params: the bank rebuilds from scratch, dropping the old
  // model's served-estimate tally with it.
  CostParams flipped;
  flipped.enable_nestloop = false;
  auto rebuilt = bank.Model(0, flipped, nullptr);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(bank.TotalEstimatesServed(), 0);
}

// Keys name a fold class by its first original query, so a spilled record
// keyed on a later member of a class is never read as any class's cost.
TEST_F(EngineTest, FoldClassesAreKeyedByTheirFirstQuery) {
  const std::string a = "SELECT ra, dec FROM photoobj WHERE type = 3";
  const std::string b = "SELECT ra, dec FROM photoobj WHERE dec > 80";
  auto workload = MakeWorkload(db_->catalog(), {a, a, b});
  ASSERT_TRUE(workload.ok());
  const CompressedWorkload fold =
      CompressWorkload(db_->catalog(), *workload);
  ASSERT_EQ(fold.workload.size(), 2);
  WorkloadEvaluator evaluator(db_->catalog(), fold);
  const CostParams params;
  const std::string sig = ParamsSignature(params);
  EXPECT_EQ(evaluator.KeyFor(1, {}, params), "q2|" + sig);

  // base:1 is the second member of class 0; base:2 is class 1's first query.
  ASSERT_TRUE(evaluator.ImportCacheRecord({"base:1|" + sig, 7.0, false, ""})
                  .ok());
  ASSERT_TRUE(evaluator.ImportCacheRecord({"base:2|" + sig, 9.0, false, ""})
                  .ok());
  EXPECT_FALSE(evaluator.CachedBaseCost(0, params).has_value());
  EXPECT_EQ(evaluator.CachedBaseCost(1, params), 9.0);
  const std::vector<CostCacheRecord> records = evaluator.ExportCacheRecords();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, "base:2|" + sig);
}

}  // namespace
}  // namespace parinda
