#include <gtest/gtest.h>

#include "common/check.h"
#include "executor/executor.h"
#include "optimizer/cost_model.h"
#include "optimizer/index_match.h"
#include "optimizer/planner.h"
#include "optimizer/selectivity.h"
#include "parser/binder.h"
#include "parser/parser.h"
#include "tests/test_util.h"

namespace parinda {
namespace {

class OptimizerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    orders_ = testing_util::MakeOrdersTable(&db_, 20000);
    customers_ = testing_util::MakeCustomersTable(&db_, 2000);
  }

  SelectStatement Bind(const std::string& sql) {
    auto stmt = ParseSelect(sql);
    PARINDA_CHECK_OK(stmt);
    PARINDA_CHECK_OK(BindStatement(db_.catalog(), &*stmt));
    return std::move(*stmt);
  }

  Plan MustPlan(const SelectStatement& stmt, PlannerOptions options = {}) {
    auto plan = PlanQuery(db_.catalog(), stmt, options);
    PARINDA_CHECK_OK(plan);
    return std::move(*plan);
  }

  Database db_;
  TableId orders_ = kInvalidTableId;
  TableId customers_ = kInvalidTableId;
};

TEST_F(OptimizerTest, EqSelectivityOnUniqueColumn) {
  const TableInfo* t = db_.catalog().GetTable(orders_);
  const double sel = EqSelectivity(*t, 0, Value::Int64(500));
  EXPECT_NEAR(sel, 1.0 / 20000.0, 1.0 / 20000.0);
}

TEST_F(OptimizerTest, EqSelectivityUsesMcvs) {
  const TableInfo* t = db_.catalog().GetTable(orders_);
  // "north" is the zipf head: frequency must be well above 1/8.
  const double sel = EqSelectivity(*t, 3, Value::String("north"));
  EXPECT_GT(sel, 0.2);
  EXPECT_LT(sel, 0.8);
}

TEST_F(OptimizerTest, EqSelectivityOutOfRangeIsZero) {
  const TableInfo* t = db_.catalog().GetTable(orders_);
  EXPECT_DOUBLE_EQ(EqSelectivity(*t, 0, Value::Int64(10000000)), 0.0);
}

TEST_F(OptimizerTest, RangeSelectivityInterpolates) {
  const TableInfo* t = db_.catalog().GetTable(orders_);
  // amount uniform in [0, 1000): P(amount < 250) ~ 0.25.
  const double sel =
      RangeSelectivity(*t, 2, BinaryOp::kLt, Value::Double(250.0));
  EXPECT_NEAR(sel, 0.25, 0.05);
  const double sel_hi =
      RangeSelectivity(*t, 2, BinaryOp::kGt, Value::Double(900.0));
  EXPECT_NEAR(sel_hi, 0.10, 0.05);
}

TEST_F(OptimizerTest, RangePairSelectivityNotSquared) {
  SelectStatement stmt =
      Bind("SELECT id FROM orders WHERE amount > 400 AND amount < 600");
  std::vector<const TableInfo*> tables = {db_.catalog().GetTable(orders_)};
  std::vector<const Expr*> conjuncts;
  FlattenConjuncts(stmt.where.get(), &conjuncts);
  const double sel = ConjunctionSelectivity(tables, conjuncts);
  // Paired bounds: ~0.2, not 0.6 * 0.4 = 0.24 (still close) — but crucially
  // not the naive independent product of two one-sided estimates, which for
  // a narrow band would collapse. Check the window estimate.
  EXPECT_NEAR(sel, 0.2, 0.06);
}

TEST_F(OptimizerTest, BetweenSelectivity) {
  SelectStatement stmt =
      Bind("SELECT id FROM orders WHERE amount BETWEEN 100 AND 300");
  std::vector<const TableInfo*> tables = {db_.catalog().GetTable(orders_)};
  const double sel = ClauseSelectivity(tables, *stmt.where);
  EXPECT_NEAR(sel, 0.2, 0.06);
}

TEST_F(OptimizerTest, OrAndNotSelectivity) {
  std::vector<const TableInfo*> tables = {db_.catalog().GetTable(orders_)};
  SelectStatement stmt = Bind(
      "SELECT id FROM orders WHERE amount < 100 OR amount > 900");
  const double sel = ClauseSelectivity(tables, *stmt.where);
  EXPECT_NEAR(sel, 0.2, 0.08);
  SelectStatement neg = Bind("SELECT id FROM orders WHERE NOT amount < 100");
  EXPECT_NEAR(ClauseSelectivity(tables, *neg.where), 0.9, 0.05);
}

TEST_F(OptimizerTest, EquiJoinSelectivity) {
  const TableInfo* o = db_.catalog().GetTable(orders_);
  const TableInfo* c = db_.catalog().GetTable(customers_);
  const double sel = EquiJoinSelectivity(*o, 1, *c, 0);
  EXPECT_NEAR(sel, 1.0 / 2000.0, 1.0 / 4000.0);
}

TEST_F(OptimizerTest, MackertLohmanBounds) {
  // Fetching more tuples never touches more than all pages.
  EXPECT_LE(MackertLohmanPagesFetched(1e9, 1000, 10000), 1000.0);
  // Tiny fetches touch about one page per tuple.
  EXPECT_NEAR(MackertLohmanPagesFetched(10, 100000, 100000), 10.0, 1.0);
  EXPECT_DOUBLE_EQ(MackertLohmanPagesFetched(0, 1000, 1000), 0.0);
}

TEST_F(OptimizerTest, SeqScanForUnindexedTable) {
  SelectStatement stmt = Bind("SELECT id FROM orders WHERE amount < 10");
  Plan plan = MustPlan(stmt);
  ASSERT_NE(plan.root, nullptr);
  EXPECT_EQ(plan.root->type, PlanNodeType::kSeqScan);
  EXPECT_GT(plan.total_cost(), 0.0);
}

TEST_F(OptimizerTest, SelectiveEqUsesIndex) {
  ASSERT_TRUE(db_.BuildIndex("orders_id", orders_, {0}).ok());
  SelectStatement stmt = Bind("SELECT amount FROM orders WHERE id = 123");
  Plan plan = MustPlan(stmt);
  EXPECT_EQ(plan.root->type, PlanNodeType::kIndexScan);
}

TEST_F(OptimizerTest, UnselectiveRangeStaysSeqScan) {
  ASSERT_TRUE(db_.BuildIndex("orders_amt", orders_, {2}).ok());
  SelectStatement stmt = Bind("SELECT id FROM orders WHERE amount > 10");
  Plan plan = MustPlan(stmt);
  // ~99% of rows: random index I/O would be slower than one pass.
  EXPECT_EQ(plan.root->type, PlanNodeType::kSeqScan);
}

TEST_F(OptimizerTest, SelectiveRangeUsesIndex) {
  ASSERT_TRUE(db_.BuildIndex("orders_id2", orders_, {0}).ok());
  // id is perfectly correlated -> narrow range scans are nearly sequential.
  SelectStatement stmt = Bind("SELECT amount FROM orders WHERE id < 50");
  Plan plan = MustPlan(stmt);
  EXPECT_EQ(plan.root->type, PlanNodeType::kIndexScan);
}

TEST_F(OptimizerTest, DisablingIndexScanFallsBack) {
  ASSERT_TRUE(db_.BuildIndex("orders_id3", orders_, {0}).ok());
  SelectStatement stmt = Bind("SELECT amount FROM orders WHERE id = 5");
  PlannerOptions options;
  options.params.enable_indexscan = false;
  Plan plan = MustPlan(stmt, options);
  EXPECT_EQ(plan.root->type, PlanNodeType::kSeqScan);
}

TEST_F(OptimizerTest, JoinProducesJoinNode) {
  SelectStatement stmt = Bind(
      "SELECT o.id FROM orders o, customers c WHERE o.customer_id = c.cid");
  Plan plan = MustPlan(stmt);
  const PlanNodeType t = plan.root->type;
  EXPECT_TRUE(t == PlanNodeType::kHashJoin || t == PlanNodeType::kMergeJoin ||
              t == PlanNodeType::kNestLoopJoin);
  EXPECT_EQ(plan.CollectScans().size(), 2u);
}

TEST_F(OptimizerTest, SelectiveJoinPrefersParameterizedNestLoop) {
  ASSERT_TRUE(db_.BuildIndex("orders_cid", orders_, {1}).ok());
  // One customer -> few orders: index nested loop should win.
  SelectStatement stmt = Bind(
      "SELECT o.amount FROM customers c, orders o "
      "WHERE c.cid = o.customer_id AND c.cid = 42");
  Plan plan = MustPlan(stmt);
  // Find a nested loop with an inner index scan.
  bool found = false;
  std::vector<const PlanNode*> stack = {plan.root.get()};
  while (!stack.empty()) {
    const PlanNode* n = stack.back();
    stack.pop_back();
    if (n->type == PlanNodeType::kNestLoopJoin &&
        n->children[1]->type == PlanNodeType::kIndexScan) {
      found = true;
    }
    for (const auto& c : n->children) stack.push_back(c.get());
  }
  EXPECT_TRUE(found) << plan.ToString();
}

TEST_F(OptimizerTest, DisablingNestLoopSwitchesMethod) {
  ASSERT_TRUE(db_.BuildIndex("orders_cid2", orders_, {1}).ok());
  SelectStatement stmt = Bind(
      "SELECT o.amount FROM customers c, orders o "
      "WHERE c.cid = o.customer_id AND c.cid = 42");
  PlannerOptions options;
  options.params.enable_nestloop = false;
  Plan plan = MustPlan(stmt, options);
  std::vector<const PlanNode*> stack = {plan.root.get()};
  while (!stack.empty()) {
    const PlanNode* n = stack.back();
    stack.pop_back();
    EXPECT_NE(n->type, PlanNodeType::kNestLoopJoin) << plan.ToString();
    for (const auto& c : n->children) stack.push_back(c.get());
  }
}

TEST_F(OptimizerTest, OrderByAddsSortUnlessIndexProvidesOrder) {
  SelectStatement stmt = Bind("SELECT id FROM orders ORDER BY id");
  Plan unsorted_plan = MustPlan(stmt);
  EXPECT_EQ(unsorted_plan.root->type, PlanNodeType::kSort);

  ASSERT_TRUE(db_.BuildIndex("orders_id4", orders_, {0}).ok());
  SelectStatement stmt2 = Bind("SELECT id FROM orders ORDER BY id LIMIT 10");
  Plan plan = MustPlan(stmt2);
  // LIMIT over an ordered index scan: no sort anywhere.
  std::vector<const PlanNode*> stack = {plan.root.get()};
  while (!stack.empty()) {
    const PlanNode* n = stack.back();
    stack.pop_back();
    EXPECT_NE(n->type, PlanNodeType::kSort) << plan.ToString();
    for (const auto& c : n->children) stack.push_back(c.get());
  }
}

TEST_F(OptimizerTest, AggregatePlans) {
  SelectStatement stmt = Bind(
      "SELECT region, count(*), avg(amount) FROM orders GROUP BY region");
  Plan plan = MustPlan(stmt);
  EXPECT_EQ(plan.root->type, PlanNodeType::kAggregate);
  // ~8 regions.
  EXPECT_LT(plan.root->rows, 50.0);
  EXPECT_TRUE(StatementHasAggregates(stmt));
}

TEST_F(OptimizerTest, LimitScalesCost) {
  SelectStatement all = Bind("SELECT id FROM orders");
  SelectStatement limited = Bind("SELECT id FROM orders LIMIT 1");
  const double full_cost = MustPlan(all).total_cost();
  const double limited_cost = MustPlan(limited).total_cost();
  EXPECT_LT(limited_cost, full_cost / 100.0);
}

TEST_F(OptimizerTest, HookInjectsHypotheticalIndex) {
  // No real index: a hook-injected hypothetical index should change the plan.
  IndexInfo hypo;
  hypo.id = 9999;
  hypo.name = "hypo_orders_id";
  hypo.table_id = orders_;
  hypo.columns = {0};
  hypo.hypothetical = true;
  hypo.leaf_pages = 60;
  hypo.tree_height = 1;
  hypo.entries = 20000;
  HookRegistry hooks;
  hooks.set_relation_info_hook(
      [&](const CatalogReader&, RelOptInfo* rel) {
        if (rel->table->id == orders_) rel->indexes.push_back(&hypo);
      });
  SelectStatement stmt = Bind("SELECT amount FROM orders WHERE id = 7");
  PlannerOptions options;
  options.hooks = &hooks;
  Plan plan = MustPlan(stmt, options);
  ASSERT_EQ(plan.root->type, PlanNodeType::kIndexScan);
  EXPECT_EQ(plan.root->index_id, 9999);
}

TEST_F(OptimizerTest, ExplainMentionsNodesAndCosts) {
  SelectStatement stmt = Bind(
      "SELECT o.id FROM orders o, customers c WHERE o.customer_id = c.cid");
  Plan plan = MustPlan(stmt);
  const std::string text = plan.ToString();
  EXPECT_NE(text.find("cost="), std::string::npos);
  EXPECT_NE(text.find("rows="), std::string::npos);
}

TEST_F(OptimizerTest, ThreeWayJoin) {
  // Self-join style 3-relation query exercises DP.
  SelectStatement stmt = Bind(
      "SELECT o.id FROM orders o, customers c, customers c2 "
      "WHERE o.customer_id = c.cid AND c.cid = c2.cid AND c2.score > 50");
  Plan plan = MustPlan(stmt);
  EXPECT_EQ(plan.CollectScans().size(), 3u);
}

}  // namespace
}  // namespace parinda

namespace parinda {
namespace {

class BitmapScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    orders_ = testing_util::MakeOrdersTable(&db_, 20000);
    PARINDA_CHECK_OK(db_.BuildIndex("orders_amt_bm", orders_, {2}));
  }
  SelectStatement Bind(const std::string& sql) {
    auto stmt = ParseSelect(sql);
    PARINDA_CHECK_OK(stmt);
    PARINDA_CHECK_OK(BindStatement(db_.catalog(), &*stmt));
    return std::move(*stmt);
  }
  Database db_;
  TableId orders_ = kInvalidTableId;
};

TEST_F(BitmapScanTest, MidSelectivityPrefersBitmap) {
  // ~4% of an uncorrelated column: plain index scans thrash on random heap
  // fetches, a full pass reads too much — the bitmap scan's window.
  SelectStatement stmt =
      Bind("SELECT id FROM orders WHERE amount BETWEEN 400 AND 440");
  auto plan = PlanQuery(db_.catalog(), stmt);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root->type, PlanNodeType::kBitmapHeapScan)
      << plan->ToString();
}

TEST_F(BitmapScanTest, CorrelatedColumnStillPlainIndexScan) {
  // On a perfectly correlated column the plain index scan's heap reads are
  // already sequential, so the bitmap adds nothing (PostgreSQL behaves the
  // same; uncorrelated columns go to bitmap scans even for small fetches).
  ASSERT_TRUE(db_.BuildIndex("orders_id_bm", orders_, {0}).ok());
  SelectStatement stmt = Bind("SELECT amount FROM orders WHERE id < 200");
  auto plan = PlanQuery(db_.catalog(), stmt);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root->type, PlanNodeType::kIndexScan) << plan->ToString();
}

TEST_F(BitmapScanTest, LowSelectivityStillSeqScan) {
  SelectStatement stmt = Bind("SELECT id FROM orders WHERE amount > 50");
  auto plan = PlanQuery(db_.catalog(), stmt);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root->type, PlanNodeType::kSeqScan) << plan->ToString();
}

TEST_F(BitmapScanTest, BitmapCostBetweenIndexAndSeqAtMidSelectivity) {
  const TableInfo* table = db_.catalog().GetTable(orders_);
  const IndexInfo* index = db_.catalog().TableIndexes(orders_)[0];
  CostParams params;
  const double sel = 0.04;
  const double seq = CostSeqScan(params, RelSize::Of(*table), sel, 1).total;
  const double plain =
      CostIndexScan(params, *table, RelSize::Of(*table), *index, sel, sel, 1, 0)
          .total;
  const double bitmap =
      CostBitmapHeapScan(params, RelSize::Of(*table), *index, sel, sel, 1, 0)
          .total;
  EXPECT_LT(bitmap, plain);
  EXPECT_LT(bitmap, seq);
}

TEST_F(BitmapScanTest, BitmapHasNoPathkeys) {
  SelectStatement stmt = Bind(
      "SELECT id FROM orders WHERE amount BETWEEN 400 AND 440 "
      "ORDER BY amount");
  auto plan = PlanQuery(db_.catalog(), stmt);
  ASSERT_TRUE(plan.ok());
  // Either a sorted bitmap scan (Sort on top) or a plain index scan that
  // provides the order — never a bare bitmap root.
  if (plan->root->type == PlanNodeType::kSort) {
    EXPECT_EQ(plan->root->children[0]->type, PlanNodeType::kBitmapHeapScan);
  } else {
    EXPECT_EQ(plan->root->type, PlanNodeType::kIndexScan);
  }
}

TEST_F(BitmapScanTest, DisableIndexScanDisablesBitmapToo) {
  SelectStatement stmt =
      Bind("SELECT id FROM orders WHERE amount BETWEEN 400 AND 440");
  PlannerOptions options;
  options.params.enable_indexscan = false;
  auto plan = PlanQuery(db_.catalog(), stmt, options);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root->type, PlanNodeType::kSeqScan);
}

}  // namespace
}  // namespace parinda

namespace parinda {
namespace {

TEST_F(BitmapScanTest, InListUsesBitmapMultiProbe) {
  ASSERT_TRUE(db_.BuildIndex("orders_id_in", orders_, {0}).ok());
  SelectStatement stmt =
      Bind("SELECT amount FROM orders WHERE id IN (5, 900, 15000)");
  auto plan = PlanQuery(db_.catalog(), stmt);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->root->type, PlanNodeType::kBitmapHeapScan)
      << plan->ToString();
  ASSERT_EQ(plan->root->index_conds.size(), 1u);
  EXPECT_EQ(plan->root->index_conds[0]->kind, ExprKind::kInList);
}

TEST_F(BitmapScanTest, InListExecutesCorrectly) {
  ASSERT_TRUE(db_.BuildIndex("orders_id_in2", orders_, {0}).ok());
  auto result =
      ExecuteSql(db_, "SELECT count(*) FROM orders WHERE id IN (5, 900, "
                      "15000, 999999)");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].AsInt64(), 3);
  // Three probes touch a handful of pages, not the whole heap.
  EXPECT_LT(result->stats.seq_pages_read + result->stats.random_pages_read,
            20);
}

TEST_F(BitmapScanTest, PlainIndexScanNeverServesInList) {
  const TableInfo* table = db_.catalog().GetTable(orders_);
  SelectStatement stmt =
      Bind("SELECT amount FROM orders WHERE id IN (1, 2, 3)");
  std::vector<const Expr*> restrictions;
  FlattenConjuncts(stmt.where.get(), &restrictions);
  IndexInfo fake;
  fake.table_id = orders_;
  fake.columns = {0};
  const IndexMatch plain = MatchIndexConditions(
      {table}, restrictions, 0, fake, /*allow_in_list=*/false);
  EXPECT_FALSE(plain.HasConds());
  const IndexMatch bitmap = MatchIndexConditions(
      {table}, restrictions, 0, fake, /*allow_in_list=*/true);
  EXPECT_TRUE(bitmap.HasConds());
  EXPECT_TRUE(bitmap.has_in_list);
}

}  // namespace
}  // namespace parinda
