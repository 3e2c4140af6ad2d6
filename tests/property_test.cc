// Property-style sweeps over the invariants the system's correctness rests
// on: selectivity calibration, INUM-vs-optimizer agreement, MIP exactness,
// rewrite equivalence, and plan-choice invariance of query results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>

#include "common/check.h"
#include "common/random.h"
#include "executor/executor.h"
#include "inum/inum.h"
#include "optimizer/planner.h"
#include "optimizer/selectivity.h"
#include "parser/binder.h"
#include "parser/parser.h"
#include "rewriter/rewriter.h"
#include "solver/bnb.h"
#include "tests/test_util.h"
#include "whatif/whatif_index.h"
#include "whatif/whatif_table.h"

namespace parinda {
namespace {

Database* SharedDb() {
  static Database* db = [] {
    auto* d = new Database();
    testing_util::MakeOrdersTable(d, 20000);
    testing_util::MakeCustomersTable(d, 2000);
    return d;
  }();
  return db;
}

SelectStatement BindSql(const Database& db, const std::string& sql) {
  auto stmt = ParseSelect(sql);
  PARINDA_CHECK_OK(stmt);
  PARINDA_CHECK_OK(BindStatement(db.catalog(), &*stmt));
  return std::move(*stmt);
}

// ---------------------------------------------------------------------------
// Property 1: estimated selectivity tracks actual row counts within a
// factor, across predicate shapes and constants.
// ---------------------------------------------------------------------------

class SelectivityCalibration : public ::testing::TestWithParam<const char*> {};

TEST_P(SelectivityCalibration, EstimateWithinFactorOfActual) {
  Database* db = SharedDb();
  const std::string predicate = GetParam();
  const std::string sql = "SELECT count(*) FROM orders WHERE " + predicate;
  SelectStatement stmt = BindSql(*db, sql);
  const TableInfo* table = db->catalog().FindTable("orders");
  std::vector<const TableInfo*> tables = {table};
  const double sel = ClauseSelectivity(tables, *stmt.where);
  const double estimated = sel * table->row_count;
  auto result = ExecuteSql(*db, sql);
  ASSERT_TRUE(result.ok());
  const double actual = static_cast<double>(result->rows[0][0].AsInt64());
  // Within a factor of 2.5, with absolute slack for tiny counts
  // (PostgreSQL-grade accuracy on these stats).
  const double slack = 60.0;
  EXPECT_LE(estimated, actual * 2.5 + slack) << predicate;
  EXPECT_GE(estimated, actual / 2.5 - slack) << predicate;
}

INSTANTIATE_TEST_SUITE_P(
    Predicates, SelectivityCalibration,
    ::testing::Values(
        "amount < 100", "amount < 500", "amount > 950",
        "amount BETWEEN 200 AND 300", "amount BETWEEN 499 AND 501",
        "id = 17", "id < 40", "id BETWEEN 10000 AND 12000",
        "region = 'north'", "region = 'latam'", "region <> 'north'",
        "customer_id = 55", "customer_id < 100",
        "flag = true", "flag IS NULL", "flag IS NOT NULL",
        "amount < 100 OR amount > 900",
        "region = 'north' AND amount < 500",
        "NOT amount < 100",
        "id IN (1, 2, 3, 4, 5)"));

// ---------------------------------------------------------------------------
// Property 2: INUM recomposition stays close to direct optimizer calls for
// every configuration of a candidate pool, across query shapes.
// ---------------------------------------------------------------------------

class InumAgreement : public ::testing::TestWithParam<const char*> {};

TEST_P(InumAgreement, WithinQuarterOfDirectCost) {
  Database* db = SharedDb();
  SelectStatement stmt = BindSql(*db, GetParam());
  WhatIfIndexSet whatif(db->catalog());
  const TableId orders = db->catalog().FindTable("orders")->id;
  const TableId customers = db->catalog().FindTable("customers")->id;
  std::vector<const IndexInfo*> pool;
  for (const WhatIfIndexDef& def :
       {WhatIfIndexDef{"p1", orders, {0}, false},
        WhatIfIndexDef{"p2", orders, {1}, false},
        WhatIfIndexDef{"p3", orders, {2}, false},
        WhatIfIndexDef{"p4", orders, {3, 2}, false},
        WhatIfIndexDef{"p5", customers, {0}, false}}) {
    auto id = whatif.AddIndex(def);
    ASSERT_TRUE(id.ok());
    pool.push_back(whatif.Get(*id));
  }
  InumCostModel inum(db->catalog(), stmt, CostParams{});
  ASSERT_TRUE(inum.Init().ok());
  for (unsigned mask = 0; mask < (1u << pool.size()); ++mask) {
    std::vector<const IndexInfo*> config;
    for (size_t i = 0; i < pool.size(); ++i) {
      if ((mask >> i) & 1) config.push_back(pool[i]);
    }
    auto estimated = inum.EstimateCost(config);
    auto direct = inum.DirectOptimizerCost(config);
    ASSERT_TRUE(estimated.ok());
    ASSERT_TRUE(direct.ok());
    EXPECT_NEAR(*estimated, *direct, *direct * 0.25)
        << "config mask " << mask;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Queries, InumAgreement,
    ::testing::Values(
        "SELECT amount FROM orders WHERE id = 99",
        "SELECT count(*) FROM orders WHERE amount BETWEEN 100 AND 150",
        "SELECT id FROM orders WHERE region = 'north' AND amount < 50",
        "SELECT o.amount FROM orders o, customers c "
        "WHERE o.customer_id = c.cid AND c.cid = 7",
        "SELECT o.id FROM orders o, customers c "
        "WHERE o.customer_id = c.cid AND c.score > 95",
        "SELECT region, count(*) FROM orders GROUP BY region"));

// ---------------------------------------------------------------------------
// Property 3: the branch-and-bound MIP solver is exact on random instances
// (verified by brute force).
// ---------------------------------------------------------------------------

class MipExactness : public ::testing::TestWithParam<int> {};

TEST_P(MipExactness, MatchesBruteForce) {
  Random rng(static_cast<uint64_t>(GetParam()));
  const int n = 4 + static_cast<int>(rng.Uniform(9));  // 4..12 vars
  BinaryMip mip;
  for (int i = 0; i < n; ++i) {
    mip.lp.objective.push_back(rng.UniformDouble(-5.0, 20.0));
  }
  // 1-3 knapsack rows.
  const int rows = 1 + static_cast<int>(rng.Uniform(3));
  std::vector<std::vector<double>> weights(rows);
  std::vector<double> caps(rows);
  for (int r = 0; r < rows; ++r) {
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
      weights[r].push_back(rng.UniformDouble(1.0, 10.0));
      total += weights[r].back();
    }
    caps[r] = rng.UniformDouble(0.3, 0.8) * total;
    LinearProgram::Constraint row;
    for (int i = 0; i < n; ++i) row.terms.push_back({i, weights[r][i]});
    row.rhs = caps[r];
    mip.lp.AddConstraint(std::move(row));
  }
  // Optional exclusion pair.
  if (n >= 2 && rng.Bernoulli(0.5)) {
    mip.lp.AddConstraint({{{0, 1.0}, {1, 1.0}}, 1.0});
  }
  auto solution = SolveBinaryMip(mip);
  ASSERT_TRUE(solution.ok());
  ASSERT_TRUE(solution->feasible);
  // Brute force.
  double best = 0.0;
  for (int mask = 0; mask < (1 << n); ++mask) {
    bool ok = true;
    for (const auto& row : mip.lp.constraints) {
      double lhs = 0.0;
      for (const auto& [var, coeff] : row.terms) {
        if ((mask >> var) & 1) lhs += coeff;
      }
      if (lhs > row.rhs + 1e-9) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    double value = 0.0;
    for (int i = 0; i < n; ++i) {
      if ((mask >> i) & 1) value += mip.lp.objective[i];
    }
    best = std::max(best, value);
  }
  EXPECT_NEAR(solution->objective, best, 1e-6);
  EXPECT_TRUE(solution->proved_optimal);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MipExactness, ::testing::Range(1, 21));

// ---------------------------------------------------------------------------
// Property 4: rewriting a query onto any random fragmentation returns
// exactly the original answer.
// ---------------------------------------------------------------------------

struct RewriteCase {
  const char* label;
  int seed;
  const char* sql;
};

// gtest prints the parameter into each test's listing, and CMake's test
// discovery copies that into the ctest name: print the label, not the raw
// bytes (which hold pointers).
void PrintTo(const RewriteCase& c, std::ostream* os) { *os << c.label; }

class RewriteEquivalence : public ::testing::TestWithParam<RewriteCase> {};

TEST_P(RewriteEquivalence, SameRowsAfterRewrite) {
  Database db;
  const TableId orders = testing_util::MakeOrdersTable(&db, 3000);
  const TableInfo* info = db.catalog().GetTable(orders);

  // Random partition of the non-PK columns into 1-3 fragments.
  Random rng(static_cast<uint64_t>(GetParam().seed));
  const int num_fragments = 1 + static_cast<int>(rng.Uniform(3));
  std::vector<std::vector<ColumnId>> groups(
      static_cast<size_t>(num_fragments));
  for (ColumnId c = 0; c < info->schema.num_columns(); ++c) {
    if (c == 0) continue;  // PK rides along everywhere
    groups[rng.Uniform(static_cast<uint64_t>(num_fragments))].push_back(c);
  }
  std::vector<const TableInfo*> fragments;
  for (size_t g = 0; g < groups.size(); ++g) {
    if (groups[g].empty()) continue;
    auto id = db.MaterializeVerticalPartition(
        orders, "orders_rf" + std::to_string(g), groups[g]);
    ASSERT_TRUE(id.ok());
    fragments.push_back(db.catalog().GetTable(*id));
  }

  const std::string sql = GetParam().sql;
  auto base = ExecuteSql(db, sql);
  ASSERT_TRUE(base.ok());

  SelectStatement stmt = BindSql(db, sql);
  auto rewritten = RewriteForPartitions(db.catalog(), stmt, fragments);
  ASSERT_TRUE(rewritten.ok());
  auto plan = PlanQuery(db.catalog(), rewritten->stmt);
  ASSERT_TRUE(plan.ok());
  auto result = ExecutePlan(db, rewritten->stmt, *plan);
  ASSERT_TRUE(result.ok()) << rewritten->stmt.ToSql();

  // Order-insensitive comparison (sort both).
  auto sort_rows = [](std::vector<Row>* rows) {
    std::sort(rows->begin(), rows->end(),
              [](const Row& a, const Row& b) { return CompareRows(a, b) < 0; });
  };
  sort_rows(&base->rows);
  sort_rows(&result->rows);
  ASSERT_EQ(base->rows.size(), result->rows.size()) << rewritten->stmt.ToSql();
  for (size_t i = 0; i < base->rows.size(); ++i) {
    EXPECT_EQ(CompareRows(base->rows[i], result->rows[i]), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RewriteEquivalence,
    ::testing::Values(
        RewriteCase{"amount_filter", 1,
                    "SELECT amount FROM orders WHERE amount > 900"},
        RewriteCase{"group_by_region", 2,
                    "SELECT region, count(*) FROM orders GROUP BY region"},
        RewriteCase{"flag_and_amount", 3,
                    "SELECT id, amount, region FROM orders "
                    "WHERE flag = true AND amount < 250"},
        RewriteCase{"count_star", 4, "SELECT count(*) FROM orders"},
        RewriteCase{"group_order_by", 5,
                    "SELECT region, avg(amount) FROM orders "
                    "WHERE customer_id < 50 GROUP BY region ORDER BY region"},
        RewriteCase{"between_limit", 6,
                    "SELECT id FROM orders WHERE amount BETWEEN 400 AND 500 "
                    "ORDER BY id DESC LIMIT 20"},
        RewriteCase{"min_max", 7, "SELECT max(amount), min(id) FROM orders"},
        RewriteCase{"expr_not_null", 8,
                    "SELECT amount + 1 FROM orders WHERE region = 'north' "
                    "AND flag IS NOT NULL"}),
    testing_util::CaseName());

// ---------------------------------------------------------------------------
// Property 5: query answers are invariant under planner method flags (every
// plan the optimizer can pick computes the same result).
// ---------------------------------------------------------------------------

struct FlagCase {
  const char* label;
  bool seqscan, indexscan, nestloop, mergejoin, hashjoin;
};

void PrintTo(const FlagCase& c, std::ostream* os) { *os << c.label; }

class PlanInvariance : public ::testing::TestWithParam<FlagCase> {};

TEST_P(PlanInvariance, JoinQueryResultStable) {
  Database* db = SharedDb();
  static const int64_t kExpected = [] {
    Database* d = SharedDb();
    auto r = ExecuteSql(
        *d,
        "SELECT count(*) FROM orders o, customers c "
        "WHERE o.customer_id = c.cid AND c.score > 80 AND o.amount < 600");
    PARINDA_CHECK_OK(r);
    return r->rows[0][0].AsInt64();
  }();
  const FlagCase flags = GetParam();
  SelectStatement stmt = BindSql(
      *db,
      "SELECT count(*) FROM orders o, customers c "
      "WHERE o.customer_id = c.cid AND c.score > 80 AND o.amount < 600");
  PlannerOptions options;
  options.params.enable_seqscan = flags.seqscan;
  options.params.enable_indexscan = flags.indexscan;
  options.params.enable_nestloop = flags.nestloop;
  options.params.enable_mergejoin = flags.mergejoin;
  options.params.enable_hashjoin = flags.hashjoin;
  auto plan = PlanQuery(db->catalog(), stmt, options);
  ASSERT_TRUE(plan.ok());
  auto result = ExecutePlan(*db, stmt, *plan);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].AsInt64(), kExpected) << plan->ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Flags, PlanInvariance,
    ::testing::Values(
        FlagCase{"all_on", true, true, true, true, true},
        FlagCase{"no_nestloop", true, true, false, true, true},
        FlagCase{"no_mergejoin", true, true, true, false, true},
        FlagCase{"no_hashjoin", true, true, true, true, false},
        FlagCase{"nestloop_only", true, true, true, false, false},
        FlagCase{"mergejoin_only", true, true, false, true, false},
        FlagCase{"hashjoin_only", true, true, false, false, true},
        FlagCase{"no_indexscan", true, false, true, true, true},
        FlagCase{"no_seqscan", false, true, true, true, true}),
    testing_util::CaseName());

}  // namespace
}  // namespace parinda

namespace parinda {
namespace {

// ---------------------------------------------------------------------------
// Property 6: the parser never crashes — random mutations of valid queries
// either parse or return a ParseError Status.
// ---------------------------------------------------------------------------

class ParserRobustness : public ::testing::TestWithParam<int> {};

TEST_P(ParserRobustness, MutatedSqlNeverCrashes) {
  Random rng(static_cast<uint64_t>(GetParam()) * 7919);
  const char* kSeeds[] = {
      "SELECT a, b FROM t WHERE a = 1 AND b BETWEEN 2 AND 3 ORDER BY a",
      "SELECT count(*), avg(x + 1) FROM t1, t2 WHERE t1.k = t2.k GROUP BY y",
      "SELECT * FROM photoobj WHERE ra < 10 OR dec > 80 LIMIT 5",
      "SELECT sum(p * (1 - d)) FROM l WHERE s IN (1, 2, 3) AND f IS NOT NULL",
  };
  for (int round = 0; round < 200; ++round) {
    std::string sql = kSeeds[rng.Uniform(4)];
    const int mutations = 1 + static_cast<int>(rng.Uniform(6));
    for (int m = 0; m < mutations; ++m) {
      const size_t pos = rng.Uniform(sql.size());
      switch (rng.Uniform(4)) {
        case 0:  // flip a character
          sql[pos] = static_cast<char>(32 + rng.Uniform(95));
          break;
        case 1:  // delete a character
          sql.erase(pos, 1);
          break;
        case 2:  // duplicate a slice
          sql.insert(pos, sql.substr(pos, rng.Uniform(8)));
          break;
        default:  // inject a random token
          static const char* kTokens[] = {" SELECT ", " WHERE ", "(", ")",
                                          "'", " AND ", ",", " 1e",
                                          " BETWEEN ", ";"};
          sql.insert(pos, kTokens[rng.Uniform(10)]);
          break;
      }
      if (sql.empty()) sql = "x";
    }
    // Must not crash; Status result either way.
    auto parsed = ParseSelect(sql);
    if (parsed.ok()) {
      // Whatever parsed must render and reparse.
      auto again = ParseSelect(parsed->ToSql());
      EXPECT_TRUE(again.ok()) << sql << "\n-> " << parsed->ToSql();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRobustness, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Property 7: for single-table queries INUM's recomposition is essentially
// exact (the internal cost above one scan is order-independent).
// ---------------------------------------------------------------------------

class InumSingleTableExactness
    : public ::testing::TestWithParam<const char*> {};

TEST_P(InumSingleTableExactness, WithinTwoPercentOfDirect) {
  Database* db = SharedDb();
  SelectStatement stmt = BindSql(*db, GetParam());
  WhatIfIndexSet whatif(db->catalog());
  const TableId orders = db->catalog().FindTable("orders")->id;
  std::vector<const IndexInfo*> pool;
  for (const WhatIfIndexDef& def :
       {WhatIfIndexDef{"s1", orders, {0}, false},
        WhatIfIndexDef{"s2", orders, {2}, false},
        WhatIfIndexDef{"s3", orders, {3, 2}, false}}) {
    auto id = whatif.AddIndex(def);
    ASSERT_TRUE(id.ok());
    pool.push_back(whatif.Get(*id));
  }
  InumCostModel inum(db->catalog(), stmt, CostParams{});
  ASSERT_TRUE(inum.Init().ok());
  for (unsigned mask = 0; mask < 8u; ++mask) {
    std::vector<const IndexInfo*> config;
    for (size_t i = 0; i < pool.size(); ++i) {
      if ((mask >> i) & 1) config.push_back(pool[i]);
    }
    auto estimated = inum.EstimateCost(config);
    auto direct = inum.DirectOptimizerCost(config);
    ASSERT_TRUE(estimated.ok());
    ASSERT_TRUE(direct.ok());
    EXPECT_NEAR(*estimated, *direct, *direct * 0.02) << "mask " << mask;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Queries, InumSingleTableExactness,
    ::testing::Values(
        "SELECT amount FROM orders WHERE id = 5",
        "SELECT id FROM orders WHERE amount BETWEEN 10 AND 30",
        "SELECT count(*) FROM orders WHERE region = 'emea' AND amount < 200",
        "SELECT id FROM orders WHERE amount > 995 ORDER BY id"));

}  // namespace
}  // namespace parinda
