// End-to-end correctness oracle: every query in the corpus is evaluated by a
// brute-force reference evaluator (cartesian product + semantic filtering,
// no optimizer, no indexes, no join algorithms) and compared against the
// full parse → bind → plan → execute pipeline under several planner
// configurations. Any bug in path selection, join execution, scan pruning or
// predicate pushdown shows up as a row-set mismatch.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "common/check.h"
#include "executor/executor.h"
#include "optimizer/planner.h"
#include "parser/binder.h"
#include "parser/parser.h"
#include "tests/test_util.h"

namespace parinda {
namespace {

Database* OracleDb() {
  static Database* db = [] {
    auto* d = new Database();
    const TableId orders = testing_util::MakeOrdersTable(d, 4000);
    const TableId customers = testing_util::MakeCustomersTable(d, 400);
    // A spread of indexes so different plans become attractive.
    PARINDA_CHECK_OK(d->BuildIndex("o_id", orders, {0}));
    PARINDA_CHECK_OK(d->BuildIndex("o_cid", orders, {1}));
    PARINDA_CHECK_OK(d->BuildIndex("o_amount", orders, {2}));
    PARINDA_CHECK_OK(d->BuildIndex("o_region_amount", orders, {3, 2}));
    PARINDA_CHECK_OK(d->BuildIndex("c_cid", customers, {0}));
    return d;
  }();
  return db;
}

/// Brute-force evaluation: all FROM combinations, semantic WHERE, semantic
/// projection/aggregation — mirrors SQL semantics with no planning at all.
Result<std::vector<Row>> BruteForce(const Database& db,
                                    const SelectStatement& stmt) {
  const int num_ranges = static_cast<int>(stmt.from.size());
  std::vector<const HeapTable*> heaps;
  for (const TableRef& ref : stmt.from) {
    const HeapTable* heap = db.GetHeapTable(ref.bound_table);
    if (heap == nullptr) return Status::NotFound("heap missing");
    heaps.push_back(heap);
  }
  // Enumerate the cross product with an odometer.
  std::vector<CompositeRow> matches;
  std::vector<int64_t> pick(static_cast<size_t>(num_ranges), 0);
  while (true) {
    CompositeRow composite(static_cast<size_t>(num_ranges));
    for (int r = 0; r < num_ranges; ++r) {
      composite[r] = heaps[r]->row(pick[r]);
    }
    bool pass = true;
    if (stmt.where != nullptr) {
      PARINDA_ASSIGN_OR_RETURN(pass, EvalPredicate(*stmt.where, composite));
    }
    if (pass) matches.push_back(std::move(composite));
    int r = 0;
    while (r < num_ranges && ++pick[r] >= heaps[r]->num_rows()) {
      pick[r] = 0;
      ++r;
    }
    if (r == num_ranges) break;
  }

  std::vector<Row> out;
  const bool has_aggs = StatementHasAggregates(stmt);
  if (has_aggs) {
    // Group by evaluated keys.
    std::map<std::string, std::vector<const CompositeRow*>> groups;
    for (const CompositeRow& row : matches) {
      std::string key;
      for (const auto& g : stmt.group_by) {
        PARINDA_ASSIGN_OR_RETURN(Value v, EvalScalar(*g, row));
        key += v.ToString() + "|";
      }
      groups[key].push_back(&row);
    }
    if (groups.empty() && stmt.group_by.empty()) groups[""] = {};
    for (const auto& [key, group] : groups) {
      Row row;
      for (const SelectItem& item : stmt.select_list) {
        PARINDA_ASSIGN_OR_RETURN(Value v, EvalAggregate(*item.expr, group));
        row.push_back(std::move(v));
      }
      out.push_back(std::move(row));
    }
  } else {
    for (const CompositeRow& match : matches) {
      Row row;
      for (const SelectItem& item : stmt.select_list) {
        PARINDA_ASSIGN_OR_RETURN(Value v, EvalScalar(*item.expr, match));
        row.push_back(std::move(v));
      }
      out.push_back(std::move(row));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Row& a, const Row& b) { return CompareRows(a, b) < 0; });
  return out;
}

struct OracleCase {
  const char* label;
  const char* sql;
};

// gtest prints the parameter into each test's listing, and CMake's test
// discovery copies that into the ctest name: print the label, not the raw
// bytes (which hold pointers).
void PrintTo(const OracleCase& c, std::ostream* os) { *os << c.label; }

class OracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(OracleTest, PipelineMatchesBruteForce) {
  Database* db = OracleDb();
  const std::string sql = GetParam().sql;
  auto stmt = ParseSelect(sql);
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(BindStatement(db->catalog(), &*stmt).ok());
  auto expected = BruteForce(*db, *stmt);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  const struct {
    bool indexscan, nestloop, hashjoin, mergejoin;
  } configs[] = {
      {true, true, true, true},
      {false, true, true, true},
      {true, false, false, true},
      {true, true, false, false},
  };
  for (const auto& config : configs) {
    PlannerOptions options;
    options.params.enable_indexscan = config.indexscan;
    options.params.enable_nestloop = config.nestloop;
    options.params.enable_hashjoin = config.hashjoin;
    options.params.enable_mergejoin = config.mergejoin;
    auto plan = PlanQuery(db->catalog(), *stmt, options);
    ASSERT_TRUE(plan.ok());
    auto result = ExecutePlan(*db, *stmt, *plan);
    ASSERT_TRUE(result.ok()) << plan->ToString(db->catalog());
    std::vector<Row> actual = result->rows;
    std::sort(actual.begin(), actual.end(), [](const Row& a, const Row& b) {
      return CompareRows(a, b) < 0;
    });
    ASSERT_EQ(actual.size(), expected->size())
        << sql << "\n" << plan->ToString(db->catalog());
    for (size_t i = 0; i < actual.size(); ++i) {
      EXPECT_EQ(CompareRows(actual[i], (*expected)[i]), 0)
          << sql << " row " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, OracleTest,
    ::testing::Values(
        OracleCase{"point_lookup",
                   "SELECT id, amount FROM orders WHERE id = 1234"},
        OracleCase{"amount_between",
                   "SELECT id FROM orders WHERE amount BETWEEN 250 AND 300"},
        OracleCase{"region_and_amount",
                   "SELECT id FROM orders WHERE region = 'north' "
                   "AND amount < 100"},
        OracleCase{"in_list",
                   "SELECT id FROM orders WHERE id IN (3, 33, 333, 3333)"},
        OracleCase{"or_ranges",
                   "SELECT id FROM orders WHERE amount < 50 OR amount > 980"},
        OracleCase{"not_flag",
                   "SELECT id FROM orders WHERE NOT (flag = true) "
                   "AND customer_id < 20"},
        OracleCase{"join_point",
                   "SELECT o.id, c.name FROM orders o, customers c "
                   "WHERE o.customer_id = c.cid AND c.cid = 42"},
        OracleCase{"join_filters",
                   "SELECT o.id FROM orders o, customers c "
                   "WHERE o.customer_id = c.cid AND c.score > 90 "
                   "AND o.amount < 150"},
        OracleCase{"join_count",
                   "SELECT count(*) FROM orders o, customers c "
                   "WHERE o.customer_id = c.cid"},
        OracleCase{"group_by_region",
                   "SELECT region, count(*), avg(amount) FROM orders "
                   "WHERE amount > 500 GROUP BY region"},
        OracleCase{"join_group_by",
                   "SELECT c.name, count(*) FROM orders o, customers c "
                   "WHERE o.customer_id = c.cid AND c.cid < 10 "
                   "GROUP BY c.name"},
        OracleCase{"min_max_sum",
                   "SELECT min(amount), max(amount), sum(amount) FROM orders "
                   "WHERE region = 'emea'"},
        OracleCase{"group_by_flag",
                   "SELECT flag, count(*) FROM orders GROUP BY flag"},
        OracleCase{"arith_projection",
                   "SELECT id + 1, amount * 2 FROM orders WHERE id < 10"},
        OracleCase{"is_null_between",
                   "SELECT id FROM orders WHERE flag IS NULL "
                   "AND amount BETWEEN 100 AND 200"}),
    testing_util::CaseName());

}  // namespace
}  // namespace parinda
