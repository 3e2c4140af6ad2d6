// The rewriter's fragment choice is the engine's AutoPart cost-cache key.
// These tests pin the three facts that make that safe: the key derived from
// the choice names exactly the FROM list the rewrite builds, building from
// the choice reproduces the rewriter's SQL byte for byte, and an AutoPart
// search rewrites a statement only when it plans it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "autopart/autopart.h"
#include "common/check.h"
#include "common/metrics.h"
#include "engine/workload_evaluator.h"
#include "optimizer/planner.h"
#include "rewriter/rewriter.h"
#include "whatif/whatif_table.h"
#include "workload/compress.h"
#include "workload/sdss.h"
#include "workload/tpch_mini.h"
#include "workload/workload.h"

namespace parinda {
namespace {

using Design = std::vector<PartitionedTable>;

/// One schema family: its database, its stock workload, and that workload
/// plus the shapes the stock queries lack (SELECT *, row counts with no
/// column reference), on tables with a primary key and without one.
struct Schema {
  Database db;
  Workload stock;
  Workload workload;
};

/// `stock` plus `extra`, bound against `catalog`.
Workload Extended(const CatalogReader& catalog, const Workload& stock,
                  const std::vector<std::string>& extra) {
  std::vector<std::string> sql;
  for (const WorkloadQuery& query : stock.queries) sql.push_back(query.sql);
  sql.insert(sql.end(), extra.begin(), extra.end());
  auto workload = MakeWorkload(catalog, sql);
  PARINDA_CHECK_OK(workload);
  return std::move(*workload);
}

void BuildSdss(Schema* s) {
  SdssConfig config;
  config.photoobj_rows = 3000;
  PARINDA_CHECK_OK(BuildSdssDatabase(&s->db, config));
  auto stock = MakeSdssWorkload(s->db.catalog());
  PARINDA_CHECK_OK(stock);
  PARINDA_CHECK(stock->size() == 30);
  s->stock = std::move(*stock);
  s->workload = Extended(s->db.catalog(), s->stock,
                         {"SELECT * FROM photoobj WHERE objid < 40",
                          "SELECT * FROM neighbors WHERE distance < 0.05",
                          "SELECT count(*) FROM photoobj",
                          "SELECT count(*) FROM neighbors"});
}

void BuildTpch(Schema* s) {
  TpchMiniConfig config;
  config.lineitem_rows = 4000;
  PARINDA_CHECK_OK(BuildTpchMiniDatabase(&s->db, config));
  auto stock = MakeTpchMiniWorkload(s->db.catalog());
  PARINDA_CHECK_OK(stock);
  PARINDA_CHECK(stock->size() == 12);
  s->stock = std::move(*stock);
  s->workload = Extended(s->db.catalog(), s->stock,
                         {"SELECT * FROM lineitem WHERE l_quantity > 49",
                          "SELECT count(*) FROM lineitem",
                          "SELECT count(*) FROM part"});
}

/// Seeded vertical partitionings of every table the workload reads: the
/// atomic fragments, then atomic designs with one to three pairwise merges
/// (some replicated, keeping both inputs), then one design that leaves a
/// column group of every table in no fragment.
std::vector<Design> Partitionings(const CatalogReader& catalog,
                                  const Workload& workload, uint64_t seed) {
  AutoPartAdvisor advisor(catalog, workload);
  std::set<TableId> tables;
  for (const WorkloadQuery& query : workload.queries) {
    for (const TableRef& ref : query.stmt.from) tables.insert(ref.bound_table);
  }
  Design atomic;
  for (TableId table : tables) {
    auto atomics = advisor.AtomicFragments(table);
    PARINDA_CHECK_OK(atomics);
    PartitionedTable entry;
    entry.table = table;
    for (const FragmentDef& def : *atomics) entry.fragments.push_back(def.columns);
    if (!entry.fragments.empty()) atomic.push_back(std::move(entry));
  }
  std::mt19937_64 rng(seed);
  std::vector<Design> designs = {atomic};
  for (int d = 0; d < 16; ++d) {
    Design design = atomic;
    const int merges = 1 + static_cast<int>(rng() % 3);
    for (int m = 0; m < merges; ++m) {
      PartitionedTable& entry = design[rng() % design.size()];
      const size_t n = entry.fragments.size();
      if (n < 2) continue;
      const size_t a = rng() % n;
      const size_t b = (a + 1 + rng() % (n - 1)) % n;
      std::vector<ColumnId> merged = entry.fragments[a];
      merged.insert(merged.end(), entry.fragments[b].begin(),
                    entry.fragments[b].end());
      std::sort(merged.begin(), merged.end());
      merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
      if (rng() % 3 != 0) {
        entry.fragments.erase(entry.fragments.begin() +
                              static_cast<std::ptrdiff_t>(std::max(a, b)));
        entry.fragments.erase(entry.fragments.begin() +
                              static_cast<std::ptrdiff_t>(std::min(a, b)));
      }
      entry.fragments.push_back(std::move(merged));
    }
    designs.push_back(std::move(design));
  }
  Design partial = atomic;
  for (PartitionedTable& entry : partial) {
    if (entry.fragments.size() > 1) {
      entry.fragments.erase(entry.fragments.begin() +
                            static_cast<std::ptrdiff_t>(
                                rng() % entry.fragments.size()));
    }
  }
  designs.push_back(std::move(partial));
  return designs;
}

/// The key read off a rewritten statement's FROM list, one entry per range:
/// `b:<id>` for a base table, `f:<parent>:<column names>` for a fragment.
std::string KeyOfFromList(int first, const std::string& params_sig,
                          const CatalogReader& overlay,
                          const SelectStatement& stmt) {
  std::string key = "plan:" + std::to_string(first) + '|' + params_sig;
  for (const TableRef& ref : stmt.from) {
    const TableInfo* info = overlay.GetTable(ref.bound_table);
    PARINDA_CHECK(info != nullptr);
    key += '|';
    if (info->parent_table == kInvalidTableId) {
      key += "b:" + std::to_string(ref.bound_table);
      continue;
    }
    key += "f:" + std::to_string(info->parent_table) + ':';
    for (ColumnId c = 0; c < info->schema.num_columns(); ++c) {
      if (c > 0) key += ',';
      key += info->schema.column(c).name;
    }
  }
  return key;
}

/// FNV-1a over every rewritten statement's SQL, newline-separated.
struct SqlDigest {
  uint64_t hash = 1469598103934665603ULL;
  void Add(const std::string& sql) {
    for (char c : sql + '\n') {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ULL;
    }
  }
  std::string Hex() const {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
  }
};

struct Coverage {
  int pairs = 0;
  int changed = 0;
  /// Ranges served by two or more fragments joined on the primary key.
  int multi_fragment = 0;
  /// Ranges whose table has fragments in the design but stays the base
  /// table (columns outside every fragment, or no primary key to join on).
  int kept = 0;
};

/// Chooses, keys and builds every (query, partitioning) pair of `s`;
/// returns the digest of the built SQL.
std::string CheckChoices(const Schema& s, uint64_t seed, Coverage* coverage) {
  const CatalogReader& catalog = s.db.catalog();
  const CompressedWorkload fold = CompressWorkload(catalog, s.workload);
  WorkloadEvaluator evaluator(catalog, fold);
  const std::string sig = ParamsSignature(CostParams{});
  SqlDigest digest;
  for (const Design& design : Partitionings(catalog, s.workload, seed)) {
    WhatIfTableCatalog overlay(catalog);
    std::vector<const TableInfo*> fragments;
    for (const PartitionedTable& entry : design) {
      for (size_t k = 0; k < entry.fragments.size(); ++k) {
        auto id = overlay.AddPartition(
            {catalog.GetTable(entry.table)->name + "_f" + std::to_string(k),
             entry.table, entry.fragments[k]});
        PARINDA_CHECK_OK(id);
        fragments.push_back(overlay.GetTable(*id));
      }
    }
    for (int q = 0; q < fold.workload.size(); ++q) {
      const SelectStatement& stmt = fold.workload.queries[q].stmt;
      auto choice = ChooseFragments(overlay, stmt, fragments);
      EXPECT_TRUE(choice.ok()) << choice.status().ToString();
      if (!choice.ok()) continue;
      auto rewritten = BuildRewrite(overlay, stmt, *choice);
      EXPECT_TRUE(rewritten.ok()) << rewritten.status().ToString();
      if (!rewritten.ok()) continue;
      const int first = fold.expansion.members[static_cast<size_t>(q)].front();
      EXPECT_EQ(evaluator.PlanKey(q, sig, *choice),
                KeyOfFromList(first, sig, overlay, rewritten->stmt))
          << fold.workload.queries[q].sql;
      EXPECT_EQ(rewritten->changed, choice->changed());
      digest.Add(rewritten->stmt.ToSql());
      ++coverage->pairs;
      if (rewritten->changed) ++coverage->changed;
      for (const FragmentChoice::Range& range : choice->ranges) {
        if (range.fragments.size() > 1) ++coverage->multi_fragment;
        const bool partitioned =
            std::any_of(design.begin(), design.end(),
                        [&](const PartitionedTable& entry) {
                          return entry.table == range.table->id;
                        });
        if (partitioned && range.fragments.empty()) ++coverage->kept;
      }
    }
  }
  return digest.Hex();
}

class FragmentChoiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sdss_ = new Schema();
    BuildSdss(sdss_);
    tpch_ = new Schema();
    BuildTpch(tpch_);
  }
  static void TearDownTestSuite() {
    delete sdss_;
    delete tpch_;
    sdss_ = nullptr;
    tpch_ = nullptr;
  }
  static Schema* sdss_;
  static Schema* tpch_;
};

Schema* FragmentChoiceTest::sdss_ = nullptr;
Schema* FragmentChoiceTest::tpch_ = nullptr;

// The digests were recorded from the rewriter before the choice was split
// from the statement build (one RewriteForPartitions call per pair).
TEST_F(FragmentChoiceTest, SdssChoiceKeysAndSqlMatchTheRewrite) {
  Coverage coverage;
  EXPECT_EQ(CheckChoices(*sdss_, 29, &coverage), "5c0e070f1ce320f5");
  EXPECT_EQ(coverage.pairs, 34 * 18);
  EXPECT_GT(coverage.changed, 0);
  EXPECT_GT(coverage.multi_fragment, 0);
  EXPECT_GT(coverage.kept, 0);
}

TEST_F(FragmentChoiceTest, TpchChoiceKeysAndSqlMatchTheRewrite) {
  Coverage coverage;
  EXPECT_EQ(CheckChoices(*tpch_, 29, &coverage), "0fbe50a73b53572f");
  EXPECT_EQ(coverage.pairs, 15 * 18);
  EXPECT_GT(coverage.changed, 0);
  EXPECT_GT(coverage.multi_fragment, 0);
  EXPECT_GT(coverage.kept, 0);
}

// Every statement AutoPart rewrites is planned next, and nothing else is
// rewritten: `engine.rewrites` equals the planner calls of
// EvaluatePartitioning, which are all of Suggest's planner calls but the
// base-design ones (one per fold class on a fresh advisor). The stock
// workloads keep this fast: SELECT * over atomic fragments rewrites into a
// join of every fragment, which the planner enumerates exhaustively.
TEST_F(FragmentChoiceTest, AutoPartRewritesOnlyWhatItPlans) {
  metrics::Counter& rewrites =
      metrics::Registry::Global().counter("engine.rewrites");
  for (const Schema* s : {sdss_, tpch_}) {
    AutoPartOptions options;
    options.max_iterations = 2;
    options.parallelism = 1;
    AutoPartAdvisor advisor(s->db.catalog(), s->stock, options);
    const int64_t classes =
        CompressWorkload(s->db.catalog(), s->stock).workload.size();
    const int64_t rewrites_before = rewrites.value();
    const int64_t plans_before = Planner::stats().plans_built;
    auto advice = advisor.Suggest();
    ASSERT_TRUE(advice.ok()) << advice.status().ToString();
    const int64_t rewritten = rewrites.value() - rewrites_before;
    const int64_t partition_plans =
        Planner::stats().plans_built - plans_before - classes;
    EXPECT_EQ(rewritten, partition_plans);
    EXPECT_GT(rewritten, 0);
    // Most evaluations are served by the choice-keyed cache without a
    // rewrite.
    EXPECT_LT(rewritten, advisor.evaluator_stats().cache_hits);
  }
}

}  // namespace
}  // namespace parinda
