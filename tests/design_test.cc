// Tests for the DesignSession layer: composable what-if overlays with
// incremental re-evaluation (DESIGN.md §9). The two core guarantees under
// test are determinism — a warmed session's report is bit-identical to the
// stateless Parinda::EvaluateDesign for any Add/Drop interleaving reaching
// the same component set — and invalidation precision — a delta on table T
// re-plans only the queries referencing T.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/check.h"
#include "design/design_session.h"
#include "optimizer/planner.h"
#include "parinda/parinda.h"
#include "workload/compress.h"
#include "workload/sdss.h"
#include "workload/sdss_scale.h"

namespace parinda {
namespace {

class DesignSessionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    SdssConfig config;
    config.photoobj_rows = 3000;
    auto dataset = BuildSdssDatabase(db_, config);
    PARINDA_CHECK_OK(dataset);
    dataset_ = new SdssDataset(*dataset);
    auto workload = MakeSdssWorkload(db_->catalog());
    PARINDA_CHECK_OK(workload);
    sdss_ = new Workload(std::move(*workload));
  }
  static void TearDownTestSuite() {
    delete sdss_;
    delete dataset_;
    delete db_;
    db_ = nullptr;
    dataset_ = nullptr;
    sdss_ = nullptr;
  }

  /// Queries in `workload` referencing `table` (the invalidation unit).
  static int QueriesReferencing(const Workload& workload, TableId table) {
    int n = 0;
    for (const WorkloadQuery& query : workload.queries) {
      for (const TableRef& ref : query.stmt.from) {
        if (ref.bound_table == table) {
          ++n;
          break;
        }
      }
    }
    return n;
  }

  static void ExpectReportsBitIdentical(const InteractiveReport& a,
                                        const InteractiveReport& b) {
    EXPECT_EQ(a.base_cost, b.base_cost);
    EXPECT_EQ(a.optimized_cost, b.optimized_cost);
    EXPECT_EQ(a.average_benefit_pct, b.average_benefit_pct);
    ASSERT_EQ(a.per_query_base.size(), b.per_query_base.size());
    for (size_t q = 0; q < a.per_query_base.size(); ++q) {
      EXPECT_EQ(a.per_query_base[q], b.per_query_base[q]) << "query " << q;
      EXPECT_EQ(a.per_query_optimized[q], b.per_query_optimized[q]) << "query " << q;
      EXPECT_EQ(a.per_query_benefit_pct[q], b.per_query_benefit_pct[q])
          << "query " << q;
      EXPECT_EQ(a.rewritten_sql[q], b.rewritten_sql[q]) << "query " << q;
    }
  }

  static Database* db_;
  static SdssDataset* dataset_;
  static Workload* sdss_;
};

Database* DesignSessionTest::db_ = nullptr;
SdssDataset* DesignSessionTest::dataset_ = nullptr;
Workload* DesignSessionTest::sdss_ = nullptr;

TEST_F(DesignSessionTest, PlannerStatsCountPlansBuilt) {
  const int64_t before = Planner::stats().plans_built;
  auto workload =
      MakeWorkload(db_->catalog(), {"SELECT objid FROM photoobj WHERE "
                                    "objid = 7"});
  ASSERT_TRUE(workload.ok());
  auto plan = PlanQuery(db_->catalog(), workload->queries[0].stmt);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(Planner::stats().plans_built, before + 1);
}

TEST_F(DesignSessionTest, FirstEvaluateIsTheStatelessEvaluation) {
  Parinda tool(db_);
  InteractiveDesign design;
  design.indexes.push_back({"ds_objid", dataset_->photoobj, {0}, false});
  auto reference = tool.EvaluateDesign(*sdss_, design);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  DesignSession session(db_->catalog(), sdss_);
  ASSERT_TRUE(
      session.AddIndex({"ds_objid", dataset_->photoobj, {0}, false}).ok());
  EXPECT_EQ(session.pending_queries(), sdss_->size());
  auto report = session.Evaluate();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectReportsBitIdentical(*report, *reference);
}

TEST_F(DesignSessionTest, ExpiredDeadlineDegradesAndFreshBudgetCompletes) {
  Parinda tool(db_);
  InteractiveDesign design;
  design.indexes.push_back({"ds_budget_objid", dataset_->photoobj, {0}, false});
  auto reference = tool.EvaluateDesign(*sdss_, design);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  DesignSession session(db_->catalog(), sdss_);
  ASSERT_TRUE(
      session.AddIndex({"ds_budget_objid", dataset_->photoobj, {0}, false})
          .ok());
  // A pre-expired budget: no query gets re-costed; the report is flagged and
  // every cost stays at its last-known value (zero on a cold session).
  session.set_deadline(Deadline::After(0.0));
  auto truncated = session.Evaluate();
  ASSERT_TRUE(truncated.ok()) << truncated.status().ToString();
  EXPECT_TRUE(truncated->degradation.degraded);
  EXPECT_FALSE(truncated->degradation.fallbacks.empty());

  // Re-arming with a fresh (infinite) budget finishes the pending queries
  // and lands exactly on the stateless evaluation.
  session.set_deadline(Deadline::Infinite());
  auto completed = session.Evaluate();
  ASSERT_TRUE(completed.ok()) << completed.status().ToString();
  EXPECT_FALSE(completed->degradation.degraded);
  ExpectReportsBitIdentical(*completed, *reference);
}

TEST_F(DesignSessionTest, WarmedSessionBitIdenticalForAnyInterleaving) {
  // Reach the component set {partition(photoobj), range(photoobj.ra),
  // index(field.quality)} through a messy interleaving with intermediate
  // evaluations and a drop/re-add, then compare against the one-shot
  // stateless evaluation of the same set.
  WhatIfPartitionDef partition{"ds_shape", dataset_->photoobj, {3, 17}};
  RangePartitionDef range;
  range.parent = dataset_->photoobj;
  range.column = 1;  // ra
  range.bounds = {Value::Double(90), Value::Double(180), Value::Double(270)};
  WhatIfIndexDef field_idx{"ds_quality", dataset_->field, {8}, false};
  WhatIfIndexDef transient{"ds_transient", dataset_->specobj, {2}, false};

  DesignSession session(db_->catalog(), sdss_);
  auto transient_id = session.AddIndex(transient);
  ASSERT_TRUE(transient_id.ok());
  ASSERT_TRUE(session.AddPartition(partition).ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.AddIndex(field_idx).ok());
  ASSERT_TRUE(session.Drop(*transient_id).ok());
  ASSERT_TRUE(session.Evaluate().ok());
  ASSERT_TRUE(session.AddRangePartitioning(range).ok());
  auto warmed = session.Evaluate();
  ASSERT_TRUE(warmed.ok()) << warmed.status().ToString();
  EXPECT_EQ(session.Components().size(), 3u);

  Parinda tool(db_);
  InteractiveDesign design;
  design.partitions.push_back(partition);
  design.range_partitions.push_back(range);
  design.indexes.push_back(field_idx);
  auto reference = tool.EvaluateDesign(*sdss_, design);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ExpectReportsBitIdentical(*warmed, *reference);

  // A re-evaluation with nothing pending is free and unchanged.
  EXPECT_EQ(session.pending_queries(), 0);
  auto again = session.Evaluate();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(session.last_eval_planner_calls(), 0);
  ExpectReportsBitIdentical(*again, *reference);
}

TEST_F(DesignSessionTest, SingleTableDeltaReplansOnlyReferencingQueries) {
  const int referencing = QueriesReferencing(*sdss_, dataset_->field);
  ASSERT_GT(referencing, 0);
  ASSERT_LT(referencing, sdss_->size());

  DesignSession session(db_->catalog(), sdss_);
  ASSERT_TRUE(session.Evaluate().ok());  // warm every cache

  auto id = session.AddIndex({"ds_field_q", dataset_->field, {8}, false});
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(session.pending_queries(), referencing);
  auto report = session.Evaluate();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // One planner invocation per invalidated query, none for the rest (base
  // costs stay cached too).
  EXPECT_EQ(session.last_eval_planner_calls(), referencing);

  // Dropping it re-pends the same slice, but the drop returns those queries
  // to their pre-add cache keys — the engine serves the already-planned
  // costs, so re-evaluation costs zero planner calls (CoPhy-style reuse).
  ASSERT_TRUE(session.Drop(*id).ok());
  EXPECT_EQ(session.pending_queries(), referencing);
  ASSERT_TRUE(session.Evaluate().ok());
  EXPECT_EQ(session.last_eval_planner_calls(), 0);
}

TEST_F(DesignSessionTest, JoinFlagsInvalidateEveryQuery) {
  DesignSession session(db_->catalog(), sdss_);
  ASSERT_TRUE(session.Evaluate().ok());
  WhatIfJoinDef flags;
  flags.enable_nestloop = false;
  auto id = session.AddJoinFlags(flags);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(session.pending_queries(), sdss_->size());
  auto report = session.Evaluate();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  Parinda tool(db_);
  InteractiveDesign design;
  design.join_flags.push_back(flags);
  auto reference = tool.EvaluateDesign(*sdss_, design);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ExpectReportsBitIdentical(*report, *reference);
}

TEST_F(DesignSessionTest, InumModeRecostsIndexOnlyDeltas) {
  DesignSessionOptions options;
  options.inum_index_deltas = true;
  DesignSession session(db_->catalog(), sdss_, options);
  ASSERT_TRUE(session.Evaluate().ok());

  ASSERT_TRUE(
      session.AddIndex({"ds_inum_q", dataset_->field, {8}, false}).ok());
  auto report = session.Evaluate();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const int referencing = QueriesReferencing(*sdss_, dataset_->field);
  // Every invalidated query is INUM-eligible (no table/range components);
  // queries INUM cannot model fall back to the exact path.
  EXPECT_GT(session.last_eval_inum_recosts(), 0);
  EXPECT_LE(session.last_eval_inum_recosts(), referencing);

  // INUM recomposition approximates the exact re-plan closely.
  Parinda tool(db_);
  InteractiveDesign design;
  design.indexes.push_back({"ds_inum_q", dataset_->field, {8}, false});
  auto reference = tool.EvaluateDesign(*sdss_, design);
  ASSERT_TRUE(reference.ok());
  for (size_t q = 0; q < report->per_query_optimized.size(); ++q) {
    EXPECT_NEAR(report->per_query_optimized[q], reference->per_query_optimized[q],
                0.15 * reference->per_query_optimized[q] + 1e-6)
        << "query " << q;
  }
}

TEST_F(DesignSessionTest, DropOfUnknownIdFails) {
  DesignSession session(db_->catalog(), sdss_);
  EXPECT_FALSE(session.Drop(42).ok());
}

TEST_F(DesignSessionTest, DropRestoresSessionWhenRemainderDoesNotCompose) {
  DesignSession session(db_->catalog(), sdss_);
  auto partition_id =
      session.AddPartition({"ds_frag", dataset_->photoobj, {3, 17}});
  ASSERT_TRUE(partition_id.ok());
  // Index the hypothetical fragment: resolves only while the partition is in
  // the design.
  const TableInfo* fragment = session.overlay().catalog().FindTable("ds_frag");
  ASSERT_NE(fragment, nullptr);
  ASSERT_TRUE(fragment->hypothetical);
  auto index_id = session.AddIndex({"ds_frag_idx", fragment->id, {0}, false});
  ASSERT_TRUE(index_id.ok()) << index_id.status().ToString();

  // Dropping the partition would orphan the fragment index: refused, and the
  // session keeps working exactly as before.
  EXPECT_FALSE(session.Drop(*partition_id).ok());
  EXPECT_EQ(session.Components().size(), 2u);
  auto report = session.Evaluate();
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Dropping in dependency order works.
  ASSERT_TRUE(session.Drop(*index_id).ok());
  ASSERT_TRUE(session.Drop(*partition_id).ok());
  EXPECT_TRUE(session.Components().empty());
}

TEST_F(DesignSessionTest, EagerValidationRejectsBadComponents) {
  DesignSession session(db_->catalog(), sdss_);
  // Unknown table id: nothing is added.
  EXPECT_FALSE(session.AddIndex({"ds_bad", 99999, {0}, false}).ok());
  EXPECT_TRUE(session.Components().empty());
  auto report = session.Evaluate();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->optimized_cost, report->base_cost);
}

TEST_F(DesignSessionTest, ComponentsReportsIdsKindsAndDescriptions) {
  DesignSession session(db_->catalog(), sdss_);
  auto a = session.AddIndex({"ds_list_idx", dataset_->photoobj, {0}, false});
  auto b = session.AddPartition({"ds_list_frag", dataset_->specobj, {2, 4}});
  WhatIfJoinDef flags;
  flags.enable_hashjoin = false;
  auto c = session.AddJoinFlags(flags);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_LT(*a, *b);
  EXPECT_LT(*b, *c);

  const auto components = session.Components();
  ASSERT_EQ(components.size(), 3u);
  EXPECT_EQ(components[0].kind, OverlayKind::kIndex);
  EXPECT_EQ(components[1].kind, OverlayKind::kTable);
  EXPECT_EQ(components[2].kind, OverlayKind::kJoinFlags);
  for (const DesignSession::ComponentEntry& e : components) {
    EXPECT_FALSE(e.description.empty());
  }

  session.ClearDesign();
  EXPECT_TRUE(session.Components().empty());
  auto cleared = session.Evaluate();
  ASSERT_TRUE(cleared.ok());
  EXPECT_EQ(cleared->optimized_cost, cleared->base_cost);
}

TEST_F(DesignSessionTest, SetWorkloadDiscardsCachedCosts) {
  auto small = MakeWorkload(
      db_->catalog(),
      {"SELECT objid FROM photoobj WHERE objid = 3",
       "SELECT field_id FROM field WHERE quality = 3"});
  ASSERT_TRUE(small.ok());

  DesignSession session(db_->catalog(), sdss_);
  ASSERT_TRUE(session.Evaluate().ok());
  session.SetWorkload(&*small);
  EXPECT_EQ(session.pending_queries(), small->size());
  auto report = session.Evaluate();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->per_query_base.size(), 2u);
}

// The session folds its workload (DESIGN.md §15): a fresh session's first
// Evaluate() plans each fold class once for the base design and once for
// the what-if design, however often the log repeats a query.
TEST_F(DesignSessionTest, FirstEvaluatePlansEachFoldClassOnce) {
  SdssScaleConfig config;
  config.num_queries = 300;
  auto scaled = MakeScaledSdssWorkload(db_->catalog(), config);
  ASSERT_TRUE(scaled.ok());
  const int classes =
      CompressWorkload(db_->catalog(), *scaled).workload.size();
  ASSERT_LT(classes, scaled->size());

  DesignSession session(db_->catalog(), &*scaled);
  ASSERT_TRUE(
      session.AddIndex({"ds_fold", dataset_->photoobj, {0}, false}).ok());
  EXPECT_EQ(session.pending_queries(), scaled->size());
  auto report = session.Evaluate();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->per_query_base.size(), 300u);
  EXPECT_LE(session.last_eval_planner_calls(), 2 * classes);
  EXPECT_EQ(session.pending_queries(), 0);
}

TEST_F(DesignSessionTest, NullWorkloadYieldsEmptyReport) {
  DesignSession session(db_->catalog(), nullptr);
  ASSERT_TRUE(
      session.AddIndex({"ds_nw", dataset_->photoobj, {0}, false}).ok());
  auto report = session.Evaluate();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->per_query_base.size(), 0u);
  EXPECT_EQ(report->base_cost, 0.0);
}

}  // namespace
}  // namespace parinda
