#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "advisor/index_advisor.h"
#include "autopart/autopart.h"
#include "common/check.h"
#include "common/memsize.h"
#include "common/metrics.h"
#include "workload/compress.h"
#include "workload/sdss.h"
#include "workload/sdss_scale.h"
#include "workload/tpch_mini.h"
#include "workload/workload.h"

namespace parinda {
namespace {

Database* MakeSdssDb(double rows) {
  auto* db = new Database();
  SdssConfig config;
  config.photoobj_rows = rows;
  PARINDA_CHECK_OK(BuildSdssDatabase(db, config));
  return db;
}

/// Bitwise advice identity (== on doubles, no tolerance): compression is
/// exact by construction, so every reported value must match exactly.
void ExpectSameIndexAdvice(const IndexAdvice& a, const IndexAdvice& b) {
  EXPECT_EQ(a.base_cost, b.base_cost);
  EXPECT_EQ(a.optimized_cost, b.optimized_cost);
  EXPECT_EQ(a.per_query_base, b.per_query_base);
  EXPECT_EQ(a.per_query_optimized, b.per_query_optimized);
  EXPECT_EQ(a.total_size_bytes, b.total_size_bytes);
  EXPECT_EQ(a.total_maintenance_cost, b.total_maintenance_cost);
  ASSERT_EQ(a.indexes.size(), b.indexes.size());
  for (size_t i = 0; i < a.indexes.size(); ++i) {
    EXPECT_EQ(a.indexes[i].def.table, b.indexes[i].def.table);
    EXPECT_EQ(a.indexes[i].def.columns, b.indexes[i].def.columns);
    EXPECT_EQ(a.indexes[i].size_bytes, b.indexes[i].size_bytes);
    EXPECT_EQ(a.indexes[i].benefit, b.indexes[i].benefit);
    EXPECT_EQ(a.indexes[i].maintenance_cost, b.indexes[i].maintenance_cost);
    EXPECT_EQ(a.indexes[i].used_by, b.indexes[i].used_by);
  }
}

TEST(CompressTest, FoldsIdenticalQueriesAndSumsWeights) {
  std::unique_ptr<Database> db(MakeSdssDb(500));
  const std::string a = "SELECT objid FROM photoobj WHERE ra > 100";
  const std::string b = "SELECT objid FROM photoobj WHERE dec < 5";
  auto workload = MakeWorkload(db->catalog(), {a, a, b, a});
  ASSERT_TRUE(workload.ok());
  workload->queries[1].weight = 3.0;

  const CompressedWorkload compressed =
      CompressWorkload(db->catalog(), *workload);
  EXPECT_EQ(compressed.expansion.original_size(), 4);
  ASSERT_EQ(compressed.workload.size(), 2);
  EXPECT_EQ(compressed.folded(), 2);
  EXPECT_DOUBLE_EQ(compressed.ratio(), 2.0);
  // Representatives keep first-occurrence order.
  EXPECT_EQ(compressed.workload.queries[0].sql, a);
  EXPECT_EQ(compressed.workload.queries[1].sql, b);
  // Weights are summed into the representative (1 + 3 + 1 for `a`).
  EXPECT_DOUBLE_EQ(compressed.workload.queries[0].weight, 5.0);
  EXPECT_DOUBLE_EQ(compressed.workload.queries[1].weight, 1.0);
  // Expansion maps every original to its class, members ascending.
  EXPECT_EQ(compressed.expansion.representative,
            (std::vector<int>{0, 0, 1, 0}));
  ASSERT_EQ(compressed.expansion.members.size(), 2u);
  EXPECT_EQ(compressed.expansion.members[0], (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(compressed.expansion.members[1], (std::vector<int>{2}));
  EXPECT_EQ(compressed.expansion.weights,
            (std::vector<double>{1.0, 3.0, 1.0, 1.0}));
}

TEST(CompressTest, DifferentLiteralsDoNotFold) {
  std::unique_ptr<Database> db(MakeSdssDb(500));
  auto workload = MakeWorkload(
      db->catalog(), {"SELECT objid FROM photoobj WHERE ra > 100",
                      "SELECT objid FROM photoobj WHERE ra > 101"});
  ASSERT_TRUE(workload.ok());
  const CompressedWorkload compressed =
      CompressWorkload(db->catalog(), *workload);
  EXPECT_EQ(compressed.workload.size(), 2);
  EXPECT_EQ(compressed.folded(), 0);
}

TEST(CompressTest, StatsScopeIsPartOfTheFoldKey) {
  std::unique_ptr<Database> db(MakeSdssDb(500));
  auto workload = MakeWorkload(db->catalog(),
                               {"SELECT objid FROM photoobj WHERE ra > 100"});
  ASSERT_TRUE(workload.ok());
  const std::string before =
      QueryFoldSignature(db->catalog(), workload->queries[0]);
  // Deterministic for an unchanged catalog.
  EXPECT_EQ(before, QueryFoldSignature(db->catalog(), workload->queries[0]));
  // Changing the statistics of a touched table changes the key: the same
  // template over a different stats scope must never fold.
  TableInfo* table = db->catalog().GetMutableTable(
      db->catalog().FindTable("photoobj")->id);
  ASSERT_NE(table, nullptr);
  table->row_count *= 2.0;
  const std::string after =
      QueryFoldSignature(db->catalog(), workload->queries[0]);
  EXPECT_NE(before, after);
}

TEST(CompressTest, PerturbSqlLiteralsIsExactAndDeterministic) {
  EXPECT_EQ(PerturbSqlLiterals("SELECT a FROM t WHERE x > 100", 0),
            "SELECT a FROM t WHERE x > 100");
  EXPECT_EQ(PerturbSqlLiterals("SELECT a FROM t WHERE x > 100", 1),
            "SELECT a FROM t WHERE x > 101");
  // +0.125*variant is exact in binary, so the decimal round-trips.
  EXPECT_EQ(PerturbSqlLiterals("WHERE r < 19.5", 2), "WHERE r < 19.75");
  // Identifiers with digits are not literals.
  EXPECT_EQ(PerturbSqlLiterals("SELECT col2 FROM t1", 3),
            "SELECT col2 FROM t1");
}

TEST(CompressTest, ScaledWorkloadIsDeterministicAndFolds) {
  std::unique_ptr<Database> db(MakeSdssDb(2000));
  SdssScaleConfig config;
  config.num_queries = 300;
  auto first = MakeScaledSdssWorkload(db->catalog(), config);
  auto second = MakeScaledSdssWorkload(db->catalog(), config);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->size(), 300);
  ASSERT_EQ(second->size(), 300);
  for (int i = 0; i < first->size(); ++i) {
    EXPECT_EQ(first->queries[i].sql, second->queries[i].sql);
    EXPECT_EQ(first->queries[i].weight, second->queries[i].weight);
  }
  const CompressedWorkload compressed =
      CompressWorkload(db->catalog(), *first);
  // Fold classes are bounded by templates x literal variants.
  EXPECT_LE(compressed.workload.size(), 30 * config.literal_variants);
  EXPECT_GT(compressed.ratio(), 2.0);
}

// ---------------------------------------------------------------------------
// Golden advice under compression. The literals below are the advice of the
// uncompressed advisors (one model per original query), recorded with %.17g
// so EXPECT_EQ against them is bit-for-bit. Compression folds duplicate
// queries and expands every total and per-query output back over the
// original queries in their original order, so the advisors, which fold,
// must reproduce them exactly, at any parallelism.
// ---------------------------------------------------------------------------

/// A pinned index: definition (name aside) plus every reported field.
SuggestedIndex Pin(TableId table, std::vector<ColumnId> columns,
                   double size_bytes, double benefit, double maintenance_cost,
                   std::vector<int> used_by) {
  SuggestedIndex index;
  index.def.table = table;
  index.def.columns = std::move(columns);
  index.size_bytes = size_bytes;
  index.benefit = benefit;
  index.maintenance_cost = maintenance_cost;
  index.used_by = std::move(used_by);
  return index;
}

IndexAdvice PinnedIndexAdvice(double base_cost, double optimized_cost,
                              double total_size_bytes,
                              std::vector<double> per_query_base,
                              std::vector<double> per_query_optimized,
                              std::vector<SuggestedIndex> indexes) {
  IndexAdvice advice;
  advice.base_cost = base_cost;
  advice.optimized_cost = optimized_cost;
  advice.total_size_bytes = total_size_bytes;
  advice.total_maintenance_cost = 0.0;
  advice.per_query_base = std::move(per_query_base);
  advice.per_query_optimized = std::move(per_query_optimized);
  advice.indexes = std::move(indexes);
  return advice;
}

/// `values` repeated `times` times, back to back.
std::vector<double> Tiled(const std::vector<double>& values, int times) {
  std::vector<double> out;
  for (int t = 0; t < times; ++t) {
    out.insert(out.end(), values.begin(), values.end());
  }
  return out;
}

/// FNV-1a 64 over every rewritten statement, newline-terminated: pins the
/// 160 rewritten statements without spelling them out.
uint64_t SqlDigest(const std::vector<std::string>& sqls) {
  uint64_t hash = 14695981039346656037ULL;
  auto mix = [&hash](unsigned char byte) {
    hash ^= byte;
    hash *= 1099511628211ULL;
  };
  for (const std::string& sql : sqls) {
    for (const char c : sql) mix(static_cast<unsigned char>(c));
    mix('\n');
  }
  return hash;
}

/// SDSS-160: the 160-query scaled SDSS workload over 2000 photoobj rows.
/// Per-query base costs, shared by the index and partition advisors.
const std::vector<double> kSdss160Base = {
    86.030000000000001, 83, 88, 83, 89.647500000000008, 103.60000000000001,
    88.975000000000009, 88.075000000000003, 88.012500000000003,
    5.5175000000000001, 88, 88.747500000000002, 83, 88, 5.5175000000000001, 88,
    83.012500000000003, 83.012500000000003, 88, 114.65000000000001, 83, 88,
    88.25, 88.012500000000003, 86.797500000000014, 5.5175000000000001, 88,
    5.5125000000000002, 83, 83.012500000000003, 88, 88.25, 85.995000000000005,
    88.140000000000001, 114.65000000000001, 88.015000000000001, 83, 88,
    5.5125000000000002, 6.0300000000000002, 88.015000000000001, 88, 88,
    84.780000000000001, 83, 5.5175000000000001, 88, 30.962500000000002, 88, 88,
    88.975000000000009, 23, 88, 5.5125000000000002, 88, 5.5125000000000002,
    5.5125000000000002, 88.77000000000001, 88.012500000000003,
    88.012500000000003, 6.0300000000000002, 84.262500000000003, 88,
    103.60000000000001, 7.4708008562199311, 83.012500000000003,
    88.747500000000002, 88, 88.015000000000001, 89.647500000000008,
    30.777500000000003, 88, 88.77000000000001, 88, 88, 83.012500000000003,
    88.015000000000001, 88, 88, 89.010000000000005, 5.5175000000000001, 83, 88,
    88.79249999999999, 88.012500000000003, 88, 85.995000000000005,
    89.010000000000005, 83, 88, 88, 88.012500000000003, 88, 88, 88,
    89.010000000000005, 88, 88, 83, 88.012500000000003, 88.075000000000003, 88,
    88, 88.012500000000003, 89.010000000000005, 88.015000000000001,
    88.030000000000001, 88, 20.530000000000001, 6.0300000000000002,
    88.79249999999999, 88, 88, 89.010000000000005, 5.5125000000000002,
    83.012500000000003, 6.0300000000000002, 83, 88, 88.975000000000009,
    30.777500000000003, 83, 85.995000000000005, 5.5125000000000002, 23, 88, 88,
    88, 88, 84.780000000000001, 88.030000000000001, 88.690000000000012,
    90.035000000000011, 6.0300000000000002, 88, 84.780000000000001,
    6.0300000000000002, 88, 88, 88, 88, 88.015000000000001, 88,
    88.012500000000003, 83, 83.012500000000003, 83.012500000000003, 83,
    88.015000000000001, 23, 84.780000000000001, 88, 88, 84.9375, 88,
    89.057500000000005, 88, 88.25, 88, 30.967500000000001};

/// Per-query optimized costs of the SDSS-160 index advice; greedy and ILP
/// reach the same per-query costs with different index sets.
const std::vector<double> kSdss160IndexOptimized = {
    86.030000000000001, 70.42787205901692, 70.540514693572902,
    35.741225122626531, 82.724513544977128, 28.053787523671438,
    71.790541267757561, 38.407785197596759, 12.022500000000003,
    5.5175000000000001, 70.698235676972402, 88.747500000000002,
    68.421661038806121, 70.700312827340923, 5.5175000000000001,
    70.520677937522905, 12.022500000000003, 12.022500000000003, 12.01,
    114.65000000000001, 12.01, 70.700312827340923, 67.35257703755218,
    12.022499999999996, 86.797500000000014, 5.5175000000000001,
    69.437223594262093, 5.5125000000000002, 12.01, 12.022500000000003,
    70.540514693572902, 67.35257703755218, 85.995000000000005,
    31.419737987616802, 114.65000000000001, 12.025, 12.01, 68.739246215815868,
    5.5125000000000002, 6.0300000000000002, 12.025, 70.698235676972402,
    68.739246215815868, 84.780000000000001, 70.42787205901692,
    5.5175000000000001, 87.720198951279457, 21.826985424916067, 12.01, 12.01,
    71.790541267757561, 12.01169996158028, 76.837013544977125,
    5.5125000000000002, 12.01, 5.5125000000000002, 5.5125000000000002,
    88.77000000000001, 12.022499999999996, 12.022500000000003,
    6.0300000000000002, 13.272500000000003, 88, 28.053787523671438,
    7.4708008562199311, 12.022500000000003, 88.747500000000002,
    70.700312827340923, 12.025, 82.724513544977128, 12.037500000000003,
    70.547269384441378, 88.77000000000001, 12.01, 70.502381004213291,
    12.022500000000003, 12.025, 70.700312827340923, 70.502381004213291,
    18.027500000000003, 5.5175000000000001, 43.657933871027673, 12.01,
    88.79249999999999, 12.022500000000003, 70.520677937522905,
    85.995000000000005, 18.027500000000003, 12.01, 70.520677937522905,
    70.520677937522905, 12.022499999999996, 69.437223594262093,
    70.502381004213291, 70.520677937522905, 18.027500000000003,
    70.502381004213291, 70.520677937522905, 69.212332840708683,
    12.022500000000003, 38.407785197596759, 70.520677937522905,
    70.698235676972402, 12.022500000000003, 18.027500000000003, 12.025,
    88.030000000000001, 70.520677937522905, 16.597151802228893,
    6.0300000000000002, 88.79249999999999, 70.502381004213291,
    70.502381004213291, 18.027500000000003, 5.5125000000000002,
    12.022500000000003, 6.0300000000000002, 12.01, 70.698235676972402,
    71.790541267757561, 12.037500000000003, 35.741225122626531,
    85.995000000000005, 5.5125000000000002, 12.011763614717225,
    69.437223594262093, 76.837013544977125, 70.540514693572902,
    69.437223594262093, 84.780000000000001, 88.030000000000001,
    70.088338017166322, 17.530000000000001, 6.0300000000000002,
    70.698235676972402, 84.780000000000001, 6.0300000000000002, 12.01,
    70.698235676972402, 69.437223594262093, 70.540514693572902, 12.025,
    87.720198951279457, 12.022499999999996, 69.212332840708683,
    12.022500000000003, 12.022500000000003, 12.01, 12.025, 12.011815481963222,
    84.780000000000001, 12.01, 12.01, 72.471427422733257, 70.520677937522905,
    71.628095348786161, 70.520677937522905, 67.35257703755218,
    70.540514693572902, 21.87069512425515};
const std::vector<SuggestedIndex> kSdss160GreedyIndexes = {
    Pin(1, {3, 8}, 81920, 7048.0516303640306, 0,
        {18, 48, 54, 73, 82, 137, 151, 152}),
    Pin(1, {0}, 65536, 2631.0474999999997, 0,
        {20, 28, 36, 79, 87, 88, 95, 104, 113, 117, 132, 147}),
    Pin(1, {2}, 65536, 1809.9528904605554, 0,
        {2, 3, 10, 15, 30, 41, 81, 85, 89, 90, 94, 97, 101, 102, 107, 118, 121,
        127, 134, 138, 140, 154, 156, 158}),
    Pin(1, {4, 6}, 81920, 1160.216074012016, 0, {7, 8, 59, 84, 99, 100, 103}),
    Pin(1, {9}, 65536, 702.04716696576315, 0,
        {1, 4, 12, 37, 42, 44, 46, 52, 69, 98, 126, 142, 144, 155}),
    Pin(1, {3, 17}, 81920, 367.38232244486557, 0,
        {6, 22, 31, 35, 40, 50, 76, 105, 119, 141, 157}),
    Pin(1, {3, 9}, 81920, 141.78508500692661, 0,
        {23, 33, 58, 68, 91, 131, 143, 148}),
    Pin(3, {0, 2}, 40960, 97.823044738161457, 0, {5, 51, 63, 124, 149}),
    Pin(4, {0}, 49152, 93.700000000000017, 0, {70, 120}),
    Pin(1, {5}, 65536, 87.263653077793109, 0, {71}),
    Pin(4, {2}, 49152, 63.871182626909373, 0, {47, 159}),
    Pin(1, {8}, 65536, 51.673334105271323, 0,
        {13, 21, 26, 67, 77, 92, 125, 128, 139, 153}),
    Pin(3, {2}, 32768, 15.731392791084431, 0, {108}),
    Pin(1, {1}, 65536, 4.0782713602122698, 0, {74, 78, 93, 96, 111, 112}),
    Pin(1, {3, 20}, 81920, 0.0049999999999990052, 0, {49}),
};
const std::vector<SuggestedIndex> kSdss160IlpIndexes = {
    Pin(1, {3}, 65536, 2413.6599999999994, 0, {}),
    Pin(1, {9}, 65536, 467.17263199660533, 0,
        {1, 4, 12, 37, 42, 44, 46, 52, 69, 98, 126, 142, 144, 155}),
    Pin(1, {1}, 65536, 297.45952292837404, 0, {74, 78, 93, 96, 111, 112}),
    Pin(1, {2}, 65536, 1516.5716388923936, 0,
        {2, 3, 10, 15, 30, 41, 81, 85, 89, 90, 94, 97, 101, 102, 107, 118, 121,
        127, 134, 138, 140, 154, 156, 158}),
    Pin(1, {0}, 65536, 2631.0474999999997, 0,
        {20, 28, 36, 79, 87, 88, 95, 104, 113, 117, 132, 147}),
    Pin(3, {2}, 32768, 15.731392791084431, 0, {108}),
    Pin(3, {0}, 32768, 31.893487334299977, 0, {}),
    Pin(3, {0, 2}, 40960, 65.92955740386148, 0, {51, 124, 149}),
    Pin(1, {3, 17}, 81920, 1431.2073224448654, 0,
        {6, 22, 31, 35, 40, 50, 76, 105, 119, 141, 157}),
    Pin(1, {4, 6}, 81920, 1160.216074012016, 0, {7, 8, 59, 84, 99, 100, 103}),
    Pin(1, {8}, 65536, 582.69496446930498, 0,
        {13, 21, 26, 67, 77, 92, 125, 128, 139, 153}),
    Pin(1, {3, 8}, 81920, 1367.8199999999999, 0,
        {18, 48, 54, 73, 82, 137, 151, 152}),
    Pin(1, {3, 9}, 81920, 1896.4096199760845, 0,
        {23, 33, 58, 68, 91, 131, 143, 148}),
    Pin(4, {2}, 49152, 63.871182626909373, 0, {47, 159}),
    Pin(1, {3, 20}, 81920, 151.97999999999999, 0, {49}),
    Pin(4, {0}, 49152, 93.700000000000017, 0, {70, 120}),
    Pin(1, {5}, 65536, 87.263653077793109, 0, {71}),
};
/// AutoPart on SDSS-160 (2 iterations, 16 candidates per iteration).
const std::vector<double> kSdss160PartitionOptimized = {
    75.039999999999992, 36, 43, 38, 60.754999999999995, 56.600000000000001,
    81.91500000000002, 43.074999999999996, 43.012499999999996,
    9.0274999999999999, 43, 45.494999999999997, 36, 49, 9.0274999999999999, 43,
    36.012499999999996, 36.012499999999996, 49, 67.650000000000006, 50, 49,
    76.200000000000003, 49.012499999999996, 79.307500000000005,
    9.0274999999999999, 49, 9.0224999999999991, 50, 36.012499999999996, 43,
    76.200000000000003, 38.994999999999997, 49.140000000000001,
    67.650000000000006, 72.507500000000007, 50, 49, 9.0224999999999991,
    5.0300000000000002, 72.507500000000007, 43, 49, 37.780000000000001, 36,
    9.0274999999999999, 49, 25.962500000000002, 49, 72.012500000000003,
    81.91500000000002, 23, 49, 9.0224999999999991, 49, 9.0224999999999991,
    9.0224999999999991, 45.539999999999999, 49.012499999999996,
    43.012499999999996, 5.0300000000000002, 73.272499999999994, 49,
    56.600000000000001, 12.365800856219931, 36.012499999999996,
    45.494999999999997, 49, 87.025000000000006, 60.754999999999995,
    30.777500000000003, 77.210000000000008, 45.539999999999999, 49, 43,
    36.012499999999996, 72.507500000000007, 49, 43, 47.054999999999993,
    9.0274999999999999, 38, 49, 45.585000000000001, 43.012499999999996, 43,
    38.994999999999997, 51.659999999999997, 50, 43, 43, 49.012499999999996, 49,
    43, 43, 47.054999999999993, 43, 43, 36, 43.012499999999996,
    43.074999999999996, 43, 43, 43.012499999999996, 47.039999999999992,
    72.665000000000006, 41.030000000000001, 43, 17.530000000000001,
    5.0300000000000002, 45.585000000000001, 43, 43, 47.039999999999992,
    9.0224999999999991, 36.012499999999996, 5.0300000000000002, 50, 43,
    81.91500000000002, 30.777500000000003, 38, 38.994999999999997,
    9.0224999999999991, 23, 49, 49, 43, 49, 37.780000000000001,
    41.030000000000001, 90.750000000000014, 59.519999999999996,
    5.0300000000000002, 43, 37.780000000000001, 5.0300000000000002, 49, 43, 49,
    43, 72.507500000000007, 49, 49.012499999999996, 36, 36.012499999999996,
    36.012499999999996, 50, 87.025000000000006, 23, 37.780000000000001, 49, 49,
    77.447499999999991, 43, 59.759999999999991, 43, 76.200000000000003, 43,
    25.967500000000001};
const std::vector<FragmentDef> kSdss160Fragments = {
    {0, {3, 4, 5, 6, 7, 9}}, {0, {8}}, {0, {1}}, {0, {2}},
    {1, {12, 13, 14, 15, 16, 21, 22, 24}}, {1, {3}}, {1, {23}}, {1, {9}},
    {1, {1, 2}}, {1, {8}}, {1, {7, 10, 11}}, {1, {17}}, {1, {4, 6}}, {1, {20}},
    {1, {18, 19}}, {1, {5}}, {1, {1, 2, 3, 8, 9}},
    {1, {1, 2, 3, 7, 8, 9, 10, 11}}, {2, {3, 8}}, {2, {4}}, {2, {1}}, {2, {2}},
    {2, {6}}, {2, {7, 9}}, {2, {5}}, {3, {3}}, {3, {2}}, {3, {0}}, {3, {1}},
    {4, {3}}, {4, {2}}, {4, {0, 1}}};
/// TPC-H-mini: the 12 templates, per round of the x3 workload.
const std::vector<double> kTpchMiniBase = {
    987.43127443751087, 867.58000000000004, 943.83500000000004, 164.75, 31.75,
    16.375, 184.1225, 716.04999999999995, 856.21749999999997,
    181.22499999999999, 628.75030801014771, 1249.7550000000001};

const std::vector<double> kTpchMiniGreedyOptimized = {
    987.43127443751087, 549.60366125000007, 907.67986666666661, 12.0175,
    12.0175, 16.375, 89.7468176, 22.830187081246336, 855.44749999999999,
    60.29229711412821, 628.75030801014771, 1224.2750000000001};

const std::vector<SuggestedIndex> kTpchMiniX3GreedyIndexes = {
    Pin(2, {0}, 966656, 2079.6594387562609, 0, {7, 19, 31}),
    Pin(2, {6}, 966656, 953.9290162499999, 0, {1, 13, 25}),
    Pin(1, {0}, 245760, 458.19749999999999, 0, {3, 15, 27}),
    Pin(1, {1}, 245760, 349.72560865761534, 0, {9, 21, 33}),
    Pin(1, {3}, 245760, 290.42224545454576, 0, {2, 14, 26}),
    Pin(1, {4, 3}, 360448, 101.17020174545455, 0, {6, 18, 30}),
    Pin(2, {7}, 876544, 76.440000000000055, 0, {11, 23, 35}),
    Pin(3, {0}, 49152, 59.197500000000005, 0, {4, 16, 28}),
    Pin(0, {0}, 24576, 13.072499999999984, 0, {9, 21, 33}),
    Pin(3, {2}, 49152, 2.3099999999999454, 0, {8, 20, 32}),
};
TEST(CompressTest, SdssAdviceBitIdenticalUnderCompression) {
  std::unique_ptr<Database> db(MakeSdssDb(2000));
  SdssScaleConfig config;
  config.num_queries = 160;
  auto workload = MakeScaledSdssWorkload(db->catalog(), config);
  ASSERT_TRUE(workload.ok());
  const IndexAdvice greedy_golden = PinnedIndexAdvice(
      35733.835703424869, 21459.207155471286, 974848, kSdss160Base,
      kSdss160IndexOptimized, kSdss160GreedyIndexes);
  const IndexAdvice ilp_golden = PinnedIndexAdvice(
      35733.835703424869, 21459.207155471286, 1073152, kSdss160Base,
      kSdss160IndexOptimized, kSdss160IlpIndexes);
  for (const int parallelism : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "parallelism=" << parallelism);
    IndexAdvisorOptions options;
    options.parallelism = parallelism;
    IndexAdvisor advisor(db->catalog(), *workload, options);

    auto greedy = advisor.SuggestWithGreedy();
    ASSERT_TRUE(greedy.ok());
    ExpectSameIndexAdvice(*greedy, greedy_golden);

    auto ilp = advisor.SuggestWithIlp();
    ASSERT_TRUE(ilp.ok());
    ExpectSameIndexAdvice(*ilp, ilp_golden);
  }
}

TEST(CompressTest, TpchMiniAdviceBitIdenticalUnderCompression) {
  Database db;
  TpchMiniConfig config;
  PARINDA_CHECK_OK(BuildTpchMiniDatabase(&db, config));
  // Duplicate the template set 3x so there is something to fold.
  std::vector<std::string> sqls;
  for (int round = 0; round < 3; ++round) {
    for (const std::string& sql : TpchMiniQueries()) sqls.push_back(sql);
  }
  auto workload = MakeWorkload(db.catalog(), sqls);
  ASSERT_TRUE(workload.ok());
  const IndexAdvice golden = PinnedIndexAdvice(
      20483.524747342977, 16099.4007364791, 4030464, Tiled(kTpchMiniBase, 3),
      Tiled(kTpchMiniGreedyOptimized, 3), kTpchMiniX3GreedyIndexes);
  for (const int parallelism : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "parallelism=" << parallelism);
    IndexAdvisorOptions options;
    options.parallelism = parallelism;
    IndexAdvisor advisor(db.catalog(), *workload, options);
    auto greedy = advisor.SuggestWithGreedy();
    ASSERT_TRUE(greedy.ok());
    ExpectSameIndexAdvice(*greedy, golden);
  }
}

TEST(CompressTest, AutoPartAdviceBitIdenticalUnderCompression) {
  std::unique_ptr<Database> db(MakeSdssDb(2000));
  SdssScaleConfig config;
  config.num_queries = 160;
  auto workload = MakeScaledSdssWorkload(db->catalog(), config);
  ASSERT_TRUE(workload.ok());
  for (const int parallelism : {1, 4}) {
    SCOPED_TRACE(testing::Message() << "parallelism=" << parallelism);
    AutoPartOptions options;
    options.max_iterations = 2;
    options.max_candidates_per_iteration = 16;
    options.parallelism = parallelism;
    AutoPartAdvisor advisor(db->catalog(), *workload, options);
    auto advice = advisor.Suggest();
    ASSERT_TRUE(advice.ok());
    EXPECT_EQ(advice->base_cost, 35733.835703424869);
    EXPECT_EQ(advice->optimized_cost, 21127.580703424883);
    EXPECT_EQ(advice->per_query_base, kSdss160Base);
    EXPECT_EQ(advice->per_query_optimized, kSdss160PartitionOptimized);
    EXPECT_EQ(advice->replicated_bytes, 426080);
    EXPECT_EQ(advice->evaluations, 66);
    EXPECT_EQ(advice->iterations_run, 2);
    ASSERT_EQ(advice->rewritten_sql.size(), 160u);
    EXPECT_EQ(SqlDigest(advice->rewritten_sql), 0xb31af36b9ed2cd31ULL);
    ASSERT_EQ(advice->fragments.size(), kSdss160Fragments.size());
    for (size_t i = 0; i < kSdss160Fragments.size(); ++i) {
      EXPECT_EQ(advice->fragments[i].table, kSdss160Fragments[i].table);
      EXPECT_EQ(advice->fragments[i].columns, kSdss160Fragments[i].columns);
    }
  }
}

// `advisor.compression_ratio` describes the latest fold, whoever took it and
// whether or not anything folded: a non-folding AutoPart run after a folding
// index advisor must not leave the index advisor's ratio behind.
TEST(CompressTest, CompressionRatioGaugeTracksTheLatestFold) {
  std::unique_ptr<Database> db(MakeSdssDb(2000));
  metrics::Gauge& gauge =
      metrics::Registry::Global().gauge("advisor.compression_ratio");
  SdssScaleConfig config;
  config.num_queries = 300;
  auto scaled = MakeScaledSdssWorkload(db->catalog(), config);
  ASSERT_TRUE(scaled.ok());
  IndexAdvisor index_advisor(db->catalog(), *scaled);
  ASSERT_TRUE(index_advisor.SuggestWithIlp().ok());
  EXPECT_GT(gauge.value(), 200);

  auto distinct = MakeSdssWorkload(db->catalog());
  ASSERT_TRUE(distinct.ok());
  AutoPartOptions options;
  options.max_iterations = 1;
  AutoPartAdvisor autopart(db->catalog(), *distinct, options);
  ASSERT_TRUE(autopart.Suggest().ok());
  EXPECT_EQ(gauge.value(), 100);
}

TEST(CompressTest, PeakRssBytesReportsPeak) {
#ifdef __linux__
  EXPECT_GT(PeakRssBytes(), 0);
#else
  EXPECT_GE(PeakRssBytes(), 0);
#endif
}

}  // namespace
}  // namespace parinda
