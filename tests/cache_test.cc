// Resource-governed, crash-safe evaluation cache (DESIGN.md §14):
//  - CacheGovernor: LRU eviction across shards under a byte budget, MRU pin,
//    stats, and the no-wrong-answers guarantee (budgeted advice equals
//    unbudgeted advice bit-for-bit).
//  - CacheSpill: durable save/load with per-record CRCs; every corruption —
//    bit flips, truncation, version skew, scope mismatch — degrades to a
//    cache miss, never a crash or a wrong cost. Includes a seeded fuzz loop
//    over randomized corruptions.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "autopart/autopart.h"
#include "common/check.h"
#include "common/crc32.h"
#include "common/file_io.h"
#include "design/design_session.h"
#include "engine/cache_governor.h"
#include "engine/cache_spill.h"
#include "storage/database.h"
#include "workload/compress.h"
#include "workload/sdss.h"
#include "workload/sdss_scale.h"

namespace parinda {
namespace {

// ---------------------------------------------------------------- governor

/// A shard that records which ids the governor evicted from it.
struct RecordingShard {
  std::vector<std::string> evicted;
  int handle = 0;

  void Register(CacheGovernor* governor, const std::string& name) {
    handle = governor->RegisterShard(
        name, [this](const std::string& id) { evicted.push_back(id); });
  }
};

TEST(CacheGovernorTest, EvictsLeastRecentlyTouchedFirst) {
  CacheGovernor governor(MemoryBudget{300});
  RecordingShard shard;
  shard.Register(&governor, "test");
  ASSERT_TRUE(governor.Touch(shard.handle, "a", 100).ok());
  ASSERT_TRUE(governor.Touch(shard.handle, "b", 100).ok());
  ASSERT_TRUE(governor.Touch(shard.handle, "c", 100).ok());
  EXPECT_TRUE(shard.evicted.empty());
  EXPECT_EQ(governor.stats().tracked_bytes, 300);

  // "a" is coldest; the fourth entry pushes it out.
  ASSERT_TRUE(governor.Touch(shard.handle, "d", 100).ok());
  ASSERT_EQ(shard.evicted.size(), 1u);
  EXPECT_EQ(shard.evicted[0], "a");
  EXPECT_EQ(governor.stats().tracked_bytes, 300);

  // Re-touching "b" promotes it, so "c" goes next.
  ASSERT_TRUE(governor.Touch(shard.handle, "b", 100).ok());
  ASSERT_TRUE(governor.Touch(shard.handle, "e", 100).ok());
  ASSERT_EQ(shard.evicted.size(), 2u);
  EXPECT_EQ(shard.evicted[1], "c");
}

TEST(CacheGovernorTest, JustTouchedEntryIsNeverTheVictim) {
  // A single entry larger than the whole budget must survive its own Touch
  // (the caller holds a pointer into it); everything else is fair game.
  CacheGovernor governor(MemoryBudget{100});
  RecordingShard shard;
  shard.Register(&governor, "test");
  ASSERT_TRUE(governor.Touch(shard.handle, "small", 50).ok());
  ASSERT_TRUE(governor.Touch(shard.handle, "huge", 500).ok());
  EXPECT_EQ(shard.evicted, std::vector<std::string>{"small"});
  // Over budget, but the pin keeps the last entry: no livelock, no
  // use-after-free.
  EXPECT_EQ(governor.stats().tracked_bytes, 500);

  // The next touch of another id can now evict "huge".
  ASSERT_TRUE(governor.Touch(shard.handle, "next", 50).ok());
  ASSERT_EQ(shard.evicted.size(), 2u);
  EXPECT_EQ(shard.evicted[1], "huge");
}

TEST(CacheGovernorTest, EvictionCrossesShards) {
  CacheGovernor governor(MemoryBudget{250});
  RecordingShard costs;
  RecordingShard models;
  costs.Register(&governor, "costs");
  models.Register(&governor, "models");
  ASSERT_TRUE(governor.Touch(costs.handle, "q0", 100).ok());
  ASSERT_TRUE(governor.Touch(models.handle, "0", 100).ok());
  ASSERT_TRUE(governor.Touch(costs.handle, "q1", 100).ok());
  // The victim is the globally coldest entry — costs."q0" — even though the
  // touch came from the costs shard itself.
  EXPECT_EQ(costs.evicted, std::vector<std::string>{"q0"});
  EXPECT_TRUE(models.evicted.empty());
}

TEST(CacheGovernorTest, ResizingATouchedEntryAdjustsTracking) {
  CacheGovernor governor(MemoryBudget{1000});
  RecordingShard shard;
  shard.Register(&governor, "test");
  ASSERT_TRUE(governor.Touch(shard.handle, "grows", 100).ok());
  ASSERT_TRUE(governor.Touch(shard.handle, "grows", 400).ok());
  EXPECT_EQ(governor.stats().tracked_bytes, 400);
  ASSERT_TRUE(governor.Touch(shard.handle, "grows", 50).ok());
  EXPECT_EQ(governor.stats().tracked_bytes, 50);
}

TEST(CacheGovernorTest, ForgetDropsTrackingWithoutCallback) {
  CacheGovernor governor(MemoryBudget{1000});
  RecordingShard shard;
  RecordingShard other;
  shard.Register(&governor, "test");
  other.Register(&governor, "other");
  ASSERT_TRUE(governor.Touch(shard.handle, "a", 100).ok());
  ASSERT_TRUE(governor.Touch(shard.handle, "b", 100).ok());
  ASSERT_TRUE(governor.Touch(other.handle, "c", 100).ok());
  governor.Forget(shard.handle, "a");
  governor.Forget(shard.handle, "not-tracked");  // no-op
  EXPECT_EQ(governor.stats().tracked_bytes, 200);
  governor.ForgetShard(shard.handle);
  EXPECT_EQ(governor.stats().tracked_bytes, 100);
  EXPECT_TRUE(shard.evicted.empty());
  EXPECT_EQ(governor.stats().evictions, 0);
}

TEST(CacheGovernorTest, StatsTrackPeakAfterSettleAndEvictedBytes) {
  CacheGovernor governor(MemoryBudget{250});
  RecordingShard shard;
  shard.Register(&governor, "test");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(governor.Touch(shard.handle, "e" + std::to_string(i), 100).ok());
  }
  const CacheGovernor::Stats stats = governor.stats();
  // Peak is measured after eviction settled, so it respects the budget.
  EXPECT_LE(stats.peak_bytes, 250);
  EXPECT_EQ(stats.tracked_bytes, 200);
  EXPECT_EQ(stats.evictions, 8);
  EXPECT_EQ(stats.evicted_bytes, 800);
  EXPECT_EQ(governor.budget_bytes(), 250);
}

// ------------------------------------------------------------------- spill

std::vector<CostCacheRecord> SampleRecords() {
  std::vector<CostCacheRecord> records;
  CostCacheRecord plain;
  plain.key = "q0|aa11|vp:1:[2,3]";
  plain.cost = 12345.6789012345;
  records.push_back(plain);
  CostCacheRecord with_sql;
  with_sql.key = "q1|aa11";
  with_sql.cost = 0.1;  // not exactly representable: bit-identity matters
  with_sql.has_sql = true;
  with_sql.rewritten_sql = "SELECT a FROM t_part0 WHERE b = 'x\ny'";
  records.push_back(with_sql);
  CostCacheRecord base;
  base.key = "base:2|aa11";
  base.cost = -0.0;
  records.push_back(base);
  return records;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(CacheSpillTest, RoundTripIsBitIdentical) {
  const std::string path = TempPath("roundtrip.parinda");
  const SpillScope scope{"aa11", 0x1234abcd};
  const std::vector<CostCacheRecord> saved = SampleRecords();
  ASSERT_TRUE(SaveCacheSpill(path, scope, saved, Deadline::Infinite()).ok());

  std::vector<CostCacheRecord> loaded;
  auto report = LoadCacheSpill(path, scope, &loaded, Deadline::Infinite());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->records_loaded, 3);
  EXPECT_EQ(report->records_rejected, 0);
  ASSERT_EQ(loaded.size(), saved.size());
  for (size_t i = 0; i < saved.size(); ++i) {
    EXPECT_EQ(loaded[i].key, saved[i].key);
    // Bit-identity, not numeric equality: -0.0 vs 0.0 must round-trip too.
    uint64_t saved_bits = 0;
    uint64_t loaded_bits = 0;
    std::memcpy(&saved_bits, &saved[i].cost, sizeof(saved_bits));
    std::memcpy(&loaded_bits, &loaded[i].cost, sizeof(loaded_bits));
    EXPECT_EQ(loaded_bits, saved_bits) << loaded[i].key;
    EXPECT_EQ(loaded[i].has_sql, saved[i].has_sql);
    EXPECT_EQ(loaded[i].rewritten_sql, saved[i].rewritten_sql);
  }
  std::remove(path.c_str());
}

TEST(CacheSpillTest, MissingFileIsNotFound) {
  std::vector<CostCacheRecord> loaded;
  auto report = LoadCacheSpill(TempPath("does_not_exist.parinda"), SpillScope{},
                               &loaded, Deadline::Infinite());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNotFound);
}

TEST(CacheSpillTest, ZeroByteFileIsAWholeFileMiss) {
  const std::string path = TempPath("zero_byte.parinda");
  ASSERT_TRUE(WriteFileAtomic(path, "").ok());
  std::vector<CostCacheRecord> loaded;
  auto report =
      LoadCacheSpill(path, SpillScope{}, &loaded, Deadline::Infinite());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kParseError);
  EXPECT_TRUE(loaded.empty());
  std::remove(path.c_str());
}

TEST(CacheSpillTest, VersionSkewAndScopeMismatchAreWholeFileMisses) {
  const std::string path = TempPath("mismatch.parinda");
  const SpillScope scope{"aa11", 7};
  ASSERT_TRUE(
      SaveCacheSpill(path, scope, SampleRecords(), Deadline::Infinite()).ok());

  std::vector<CostCacheRecord> loaded;
  // Future version.
  ASSERT_TRUE(WriteFileAtomic(TempPath("v9.parinda"),
                              "PARINDA-SPILL v9\nparams aa11\n")
                  .ok());
  auto skew = LoadCacheSpill(TempPath("v9.parinda"), scope, &loaded,
                             Deadline::Infinite());
  ASSERT_FALSE(skew.ok());
  EXPECT_EQ(skew.status().code(), StatusCode::kParseError);
  EXPECT_NE(skew.status().message().find("v9"), std::string::npos);

  // Params mismatch (costs computed under other parameters).
  auto params = LoadCacheSpill(path, SpillScope{"bb22", 7}, &loaded,
                               Deadline::Infinite());
  ASSERT_FALSE(params.ok());
  EXPECT_EQ(params.status().code(), StatusCode::kFailedPrecondition);

  // Scope mismatch (different catalog/workload).
  auto scope_miss = LoadCacheSpill(path, SpillScope{"aa11", 8}, &loaded,
                                   Deadline::Infinite());
  ASSERT_FALSE(scope_miss.ok());
  EXPECT_EQ(scope_miss.status().code(), StatusCode::kFailedPrecondition);

  EXPECT_TRUE(loaded.empty());
  std::remove(path.c_str());
  std::remove(TempPath("v9.parinda").c_str());
}

TEST(CacheSpillTest, SingleFlippedPayloadByteRejectsOnlyThatRecord) {
  const std::string path = TempPath("flip.parinda");
  const SpillScope scope{"aa11", 7};
  const std::vector<CostCacheRecord> saved = SampleRecords();
  ASSERT_TRUE(SaveCacheSpill(path, scope, saved, Deadline::Infinite()).ok());
  auto content = ReadFile(path);
  ASSERT_TRUE(content.ok());

  // Flip one bit inside the *first record's payload* (the line after its
  // header).
  const size_t header = content->find("record ");
  ASSERT_NE(header, std::string::npos);
  const size_t payload = content->find('\n', header) + 1;
  (*content)[payload + 3] ^= 0x10;
  ASSERT_TRUE(WriteFileAtomic(path, *content).ok());

  std::vector<CostCacheRecord> loaded;
  auto report = LoadCacheSpill(path, scope, &loaded, Deadline::Infinite());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->records_loaded, 2);
  EXPECT_EQ(report->records_rejected, 1);
  EXPECT_NE(report->diagnosis.find("CRC"), std::string::npos);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].key, saved[1].key);
  EXPECT_EQ(loaded[1].key, saved[2].key);
  std::remove(path.c_str());
}

TEST(CacheSpillTest, EofMidRecordLoadsThePrefix) {
  const std::string path = TempPath("eof_mid_record.parinda");
  const SpillScope scope{"aa11", 7};
  const std::vector<CostCacheRecord> saved = SampleRecords();
  ASSERT_TRUE(SaveCacheSpill(path, scope, saved, Deadline::Infinite()).ok());
  auto content = ReadFile(path);
  ASSERT_TRUE(content.ok());

  // Cut the file in the middle of the *second* record's payload — a torn
  // write. The first record still loads; the tear and the lost remainder
  // count as rejected.
  const size_t first = content->find("record ");
  const size_t second = content->find("record ", first + 1);
  ASSERT_NE(second, std::string::npos);
  const size_t second_payload = content->find('\n', second) + 1;
  ASSERT_TRUE(
      WriteFileAtomic(path, content->substr(0, second_payload + 4)).ok());

  std::vector<CostCacheRecord> loaded;
  auto report = LoadCacheSpill(path, scope, &loaded, Deadline::Infinite());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->records_loaded, 1);
  EXPECT_GE(report->records_rejected, 1);
  EXPECT_NE(report->diagnosis.find("truncated"), std::string::npos);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].key, saved[0].key);
  std::remove(path.c_str());
}

TEST(CacheSpillTest, SeededFuzzNeverCrashesAndNeverServesWrongCosts) {
  // ≥ 200 randomized corruptions (bit flips, truncations, garbage splices)
  // of a valid spill file: every load must return cleanly, and every record
  // it does accept must be bit-identical to one the writer produced — CRC32
  // catches all 1-2 bit errors, and the length-delimited framing bounds the
  // blast radius of everything else.
  const std::string base_path = TempPath("fuzz_base.parinda");
  const SpillScope scope{"aa11", 7};
  std::vector<CostCacheRecord> saved = SampleRecords();
  for (int i = 0; i < 20; ++i) {
    CostCacheRecord r;
    r.key = "q" + std::to_string(i + 10) + "|aa11|vp:" + std::to_string(i);
    r.cost = 1e6 / (i + 1);
    r.has_sql = (i % 3) == 0;
    if (r.has_sql) r.rewritten_sql = "SELECT " + std::to_string(i);
    saved.push_back(std::move(r));
  }
  ASSERT_TRUE(SaveCacheSpill(base_path, scope, saved, Deadline::Infinite()).ok());
  auto pristine = ReadFile(base_path);
  ASSERT_TRUE(pristine.ok());

  auto cost_bits = [](double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    return bits;
  };
  std::mt19937 rng(20260808);  // fixed seed: failures reproduce
  const std::string path = TempPath("fuzz_mutated.parinda");
  int64_t total_loaded = 0;
  int64_t total_rejected = 0;
  for (int round = 0; round < 250; ++round) {
    std::string mutated = *pristine;
    const int kind = static_cast<int>(rng() % 3);
    if (kind == 0) {
      // Bit flip(s).
      const int flips = 1 + static_cast<int>(rng() % 4);
      for (int f = 0; f < flips; ++f) {
        mutated[rng() % mutated.size()] ^=
            static_cast<char>(1u << (rng() % 8));
      }
    } else if (kind == 1) {
      // Truncation (torn write / partial copy).
      mutated.resize(rng() % mutated.size());
    } else {
      // Garbage splice.
      const size_t at = rng() % mutated.size();
      std::string junk(1 + rng() % 64, '\0');
      for (char& c : junk) c = static_cast<char>(rng() % 256);
      mutated.insert(at, junk);
    }
    ASSERT_TRUE(WriteFileAtomic(path, mutated).ok());

    std::vector<CostCacheRecord> loaded;
    auto report = LoadCacheSpill(path, scope, &loaded, Deadline::Infinite());
    if (!report.ok()) continue;  // whole-file miss: a fine outcome
    total_loaded += report->records_loaded;
    total_rejected += report->records_rejected;
    for (const CostCacheRecord& got : loaded) {
      bool matched = false;
      for (const CostCacheRecord& want : saved) {
        if (got.key != want.key) continue;
        EXPECT_EQ(cost_bits(got.cost), cost_bits(want.cost)) << got.key;
        EXPECT_EQ(got.has_sql, want.has_sql) << got.key;
        EXPECT_EQ(got.rewritten_sql, want.rewritten_sql) << got.key;
        matched = true;
        break;
      }
      EXPECT_TRUE(matched) << "loader fabricated a record: " << got.key;
    }
  }
  // The fuzz actually exercised both paths: most rounds load something, and
  // plenty of records were rejected along the way.
  EXPECT_GT(total_loaded, 0);
  EXPECT_GT(total_rejected, 0);
  std::remove(base_path.c_str());
  std::remove(path.c_str());
}

// -------------------------------------------------- end-to-end equivalence

struct Stack {
  Database db;
  Workload workload;

  Stack() {
    SdssConfig config;
    config.photoobj_rows = 1000;
    PARINDA_CHECK_OK(BuildSdssDatabase(&db, config));
    auto wl = MakeSdssWorkload(db.catalog());
    PARINDA_CHECK_OK(wl);
    workload = std::move(*wl);
  }
};

Result<InteractiveReport> EvaluateWithDesign(DesignSession* session) {
  const TableInfo* photoobj =
      session->overlay().catalog().FindTable("photoobj");
  PARINDA_CHECK(photoobj != nullptr);
  WhatIfPartitionDef def;
  def.name = "cache_test_part";
  def.parent = photoobj->id;
  def.columns = {0, 1, 2};
  PARINDA_RETURN_IF_ERROR(session->AddPartition(std::move(def)).status());
  return session->Evaluate();
}

TEST(BudgetEquivalenceTest, BudgetedDesignSessionMatchesUnbudgeted) {
  Stack s;
  DesignSession plain(s.db.catalog(), &s.workload);
  auto want = EvaluateWithDesign(&plain);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(plain.governor(), nullptr);

  // A budget far below the session's working set: evictions must happen,
  // peak tracked bytes must respect the budget, and the advice must be
  // bit-identical — the governor degrades to re-planning, never to wrong
  // numbers.
  DesignSessionOptions options;
  options.memory_budget_bytes = 2 * 1024;
  DesignSession budgeted(s.db.catalog(), &s.workload, options);
  auto got = EvaluateWithDesign(&budgeted);
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  ASSERT_NE(budgeted.governor(), nullptr);
  const CacheGovernor::Stats stats = budgeted.governor()->stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(stats.peak_bytes, options.memory_budget_bytes);

  EXPECT_EQ(got->base_cost, want->base_cost);
  EXPECT_EQ(got->optimized_cost, want->optimized_cost);
  EXPECT_EQ(got->average_benefit_pct, want->average_benefit_pct);
  EXPECT_EQ(got->per_query_optimized, want->per_query_optimized);
  // Eviction is reported as degradation, not hidden.
  EXPECT_TRUE(got->degradation.degraded);
  ASSERT_FALSE(got->degradation.fallbacks.empty());
  bool noted = false;
  for (const std::string& f : got->degradation.fallbacks) {
    if (f == "engine:cache-evicted") noted = true;
  }
  EXPECT_TRUE(noted);
  EXPECT_FALSE(want->degradation.degraded);
}

TEST(BudgetEquivalenceTest, BudgetedAutoPartMatchesUnbudgeted) {
  Stack s;
  AutoPartOptions plain_options;
  plain_options.max_iterations = 2;
  AutoPartAdvisor plain(s.db.catalog(), s.workload, plain_options);
  auto want = plain.Suggest();
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  AutoPartOptions options;
  options.max_iterations = 2;
  options.memory_budget_bytes = 8 * 1024;
  AutoPartAdvisor budgeted(s.db.catalog(), s.workload, options);
  auto got = budgeted.Suggest();
  ASSERT_TRUE(got.ok()) << got.status().ToString();

  ASSERT_NE(budgeted.governor(), nullptr);
  const CacheGovernor::Stats stats = budgeted.governor()->stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(stats.peak_bytes, options.memory_budget_bytes);

  EXPECT_EQ(got->base_cost, want->base_cost);
  EXPECT_EQ(got->optimized_cost, want->optimized_cost);
  ASSERT_EQ(got->fragments.size(), want->fragments.size());
  for (size_t i = 0; i < want->fragments.size(); ++i) {
    EXPECT_EQ(got->fragments[i].table, want->fragments[i].table);
    EXPECT_EQ(got->fragments[i].columns, want->fragments[i].columns);
  }
  // More planner work, same advice.
  EXPECT_GE(budgeted.evaluator_stats().cache_misses,
            plain.evaluator_stats().cache_misses);
}

/// Evaluates `session` under EvaluateWithDesign's partition when
/// `with_design`, under no design otherwise.
Result<InteractiveReport> Evaluate(DesignSession* session, bool with_design) {
  if (with_design) return EvaluateWithDesign(session);
  return session->Evaluate();
}

/// Saves the cache of a session that evaluated `workload` (under a vertical
/// partition when `with_design`), loads it into a fresh session and expects
/// a warm start: zero planner calls and a bit-identical report.
void ExpectSpillWarmsAFreshSession(const Database& db, const Workload& workload,
                                   bool with_design, const std::string& path) {
  DesignSession first(db.catalog(), &workload);
  auto want = Evaluate(&first, with_design);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ASSERT_TRUE(first.SaveCache(path).ok());

  DesignSession second(db.catalog(), &workload);
  auto report = second.LoadCache(path);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->records_loaded, 0);
  EXPECT_EQ(report->records_rejected, 0);

  auto got = Evaluate(&second, with_design);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  // Warm start: every cost came from the spill — zero planner calls, and the
  // report matches the saving session's bit-for-bit.
  EXPECT_EQ(second.last_eval_planner_calls(), 0);
  EXPECT_EQ(got->base_cost, want->base_cost);
  EXPECT_EQ(got->optimized_cost, want->optimized_cost);
  EXPECT_EQ(got->per_query_base, want->per_query_base);
  EXPECT_EQ(got->per_query_optimized, want->per_query_optimized);
  EXPECT_EQ(got->rewritten_sql, want->rewritten_sql);
  std::remove(path.c_str());
}

TEST(SpillSessionTest, SavedCacheWarmsAFreshSessionBitIdentically) {
  Stack s;
  ExpectSpillWarmsAFreshSession(s.db, s.workload, /*with_design=*/false,
                                TempPath("session_spill.parinda"));
  // A log that repeats its queries: the session keys each fold class by its
  // first query, and the spill warms every member of the class.
  SdssScaleConfig config;
  config.num_queries = 120;
  auto scaled = MakeScaledSdssWorkload(s.db.catalog(), config);
  ASSERT_TRUE(scaled.ok());
  ASSERT_LT(CompressWorkload(s.db.catalog(), *scaled).workload.size(),
            scaled->size());
  ExpectSpillWarmsAFreshSession(s.db, *scaled, /*with_design=*/true,
                                TempPath("session_spill_folded.parinda"));
}

TEST(SpillSessionTest, MismatchedParamsRefuseTheSpill) {
  Stack s;
  const std::string path = TempPath("session_spill_params.parinda");
  DesignSession first(s.db.catalog(), &s.workload);
  ASSERT_TRUE(first.Evaluate().ok());
  ASSERT_TRUE(first.SaveCache(path).ok());

  DesignSessionOptions other;
  other.params.random_page_cost = 2.5;
  DesignSession second(s.db.catalog(), &s.workload, other);
  auto report = second.LoadCache(path);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  // The refused load left the session fully usable — just cold.
  EXPECT_TRUE(second.Evaluate().ok());
  std::remove(path.c_str());
}

TEST(Crc32Test, KnownVectorsAndIncrementalUpdate) {
  // The reflected IEEE polynomial's check value.
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(Crc32(""), 0u);
  EXPECT_EQ(Crc32Update(Crc32Update(0, "1234"), "56789"), 0xcbf43926u);
}

}  // namespace
}  // namespace parinda
