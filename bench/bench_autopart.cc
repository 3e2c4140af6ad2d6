// E6 — demo scenario 2: automatic partition suggestion. Reproduces the
// Figure-2-style report (suggested partitions, average and per-query
// benefit) and sweeps the DBA's replication constraint. Ablation: atomic
// fragments only (iterations = 0) vs the full composite-fragment loop.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>

#include "common/check.h"
#include "common/metrics.h"
#include "autopart/autopart.h"
#include "bench/bench_util.h"
#include "optimizer/planner.h"
#include "parser/binder.h"
#include "parser/parser.h"
#include "whatif/whatif_horizontal.h"
#include "whatif/whatif_table.h"
#include "workload/tpch_mini.h"

namespace parinda {
namespace {

/// Statements the engine has rewritten onto fragments so far (process-wide).
int64_t EngineRewrites() {
  return metrics::Registry::Global().counter("engine.rewrites").value();
}

/// The photoobj-heavy slice of the prototypical workload (the queries
/// AutoPart can affect; join-heavy queries keep their base tables).
Workload PartitionWorkload(const Database& db) {
  auto workload = MakeWorkload(
      db.catalog(),
      {
          "SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN 180 AND 195 "
          "AND dec BETWEEN 0 AND 12",
          "SELECT count(*) FROM photoobj WHERE type = 3",
          "SELECT objid, g, r FROM photoobj WHERE g < 16.5 AND type = 3",
          "SELECT objid FROM photoobj WHERE r BETWEEN 14.5 AND 15.5",
          "SELECT count(*), avg(petrorad_r) FROM photoobj WHERE type = 3 "
          "AND petrorad_r > 25",
          "SELECT type, count(*) FROM photoobj GROUP BY type",
          "SELECT objid FROM photoobj WHERE g - r > 1.4 AND r < 16",
          "SELECT objid, ra, dec FROM photoobj WHERE dec > 80",
          "SELECT count(*) FROM photoobj WHERE mode = 2 AND status = 3",
          "SELECT avg(petror50_r), avg(petror90_r) FROM photoobj "
          "WHERE type = 3 AND r BETWEEN 16 AND 17",
          "SELECT objid FROM photoobj WHERE extinction_r > 0.55 AND type = 3",
          "SELECT objid, r FROM photoobj WHERE flags > 4000000 "
          "AND r BETWEEN 14 AND 18",
      });
  PARINDA_CHECK_OK(workload);
  return std::move(*workload);
}

void Run() {
  Database* db = bench_util::SharedSdss(20000);
  Workload workload = PartitionWorkload(*db);

  bench_util::PrintHeader(
      "E6: automatic partition suggestion (scenario 2 report)");
  AutoPartOptions options;
  options.max_iterations = 4;
  AutoPartAdvisor advisor(db->catalog(), workload, options);
  const int64_t plans_before = Planner::stats().plans_built;
  const int64_t rewrites_before = EngineRewrites();
  auto advice = advisor.Suggest();
  PARINDA_CHECK_OK(advice);
  const int64_t plans_built = Planner::stats().plans_built - plans_before;
  const int64_t rewrites = EngineRewrites() - rewrites_before;
  const EvaluatorStats estats = advisor.evaluator_stats();
  const double hit_rate =
      estats.cache_hits + estats.cache_misses > 0
          ? static_cast<double>(estats.cache_hits) /
                static_cast<double>(estats.cache_hits + estats.cache_misses)
          : 0.0;
  std::printf("suggested fragments: %zu; replicated bytes: %.2f MB; "
              "evaluations: %d\n",
              advice->fragments.size(),
              advice->replicated_bytes / 1024.0 / 1024.0,
              advice->evaluations);
  std::printf("planner calls: %lld (naive bound %lld); cache hit rate: "
              "%.1f%%\n",
              static_cast<long long>(plans_built),
              static_cast<long long>(workload.queries.size()) *
                  advice->evaluations,
              100.0 * hit_rate);
  std::printf("%-4s %12s %12s %9s\n", "Q", "base", "partitioned", "benefit");
  for (size_t q = 0; q < advice->per_query_base.size(); ++q) {
    std::printf("Q%-3zu %12.1f %12.1f %8.1f%%\n", q + 1,
                advice->per_query_base[q], advice->per_query_optimized[q],
                100.0 * (advice->per_query_base[q] -
                         advice->per_query_optimized[q]) /
                    advice->per_query_base[q]);
  }
  std::printf("workload: %.0f -> %.0f (%.2fx)\n", advice->base_cost,
              advice->optimized_cost, advice->Speedup());
  bench_util::RecordMetric("e6.fragments", advice->fragments.size());
  bench_util::RecordMetric("e6.replicated_mb",
                           advice->replicated_bytes / 1024.0 / 1024.0);
  bench_util::RecordMetric("e6.base_cost", advice->base_cost);
  bench_util::RecordMetric("e6.optimized_cost", advice->optimized_cost);
  bench_util::RecordMetric("e6.speedup", advice->Speedup());
  bench_util::RecordMetric("e6.plans_built", plans_built);
  bench_util::RecordMetric("e6.rewrites", rewrites);
  bench_util::RecordMetric("e6.cache_hit_rate", hit_rate);

  // --- Replication constraint sweep ---
  bench_util::PrintHeader("E6b: replication-constraint sweep");
  std::printf("%-12s %12s %12s %10s\n", "limit (MB)", "cost", "speedup",
              "replicated");
  for (const double limit_mb : {0.0, 0.5, 2.0, 8.0, 1e9}) {
    AutoPartOptions sweep;
    sweep.max_iterations = 3;
    sweep.replication_limit_bytes = limit_mb * 1024 * 1024;
    AutoPartAdvisor sweep_advisor(db->catalog(), workload, sweep);
    auto sweep_advice = sweep_advisor.Suggest();
    PARINDA_CHECK_OK(sweep_advice);
    std::printf("%-12.1f %12.0f %11.2fx %7.2f MB\n",
                limit_mb >= 1e9 ? -1.0 : limit_mb,
                sweep_advice->optimized_cost, sweep_advice->Speedup(),
                sweep_advice->replicated_bytes / 1024.0 / 1024.0);
  }

  // --- Ablation: atomic fragments only vs composite loop ---
  bench_util::PrintHeader(
      "E6c ablation: atomic-only vs composite-fragment iterations");
  std::printf("%-12s %12s %12s %12s\n", "iterations", "cost", "speedup",
              "evaluations");
  for (const int iters : {0, 1, 2, 4, 8}) {
    AutoPartOptions ablation;
    ablation.max_iterations = iters;
    AutoPartAdvisor ablation_advisor(db->catalog(), workload, ablation);
    auto ablation_advice = ablation_advisor.Suggest();
    PARINDA_CHECK_OK(ablation_advice);
    std::printf("%-12d %12.0f %11.2fx %12d\n", iters,
                ablation_advice->optimized_cost, ablation_advice->Speedup(),
                ablation_advice->evaluations);
  }
}

void RunHorizontal() {
  // E6d — horizontal range partitioning (extension): pruning wins on
  // coordinate-box queries as a function of partition count.
  Database* db = bench_util::SharedSdss(20000);
  const TableInfo* photoobj = db->catalog().FindTable("photoobj");
  const ColumnId ra = photoobj->schema.FindColumn("ra");
  const char* kBoxSql =
      "SELECT objid, ra, dec FROM photoobj WHERE ra BETWEEN 180 AND 195";
  bench_util::PrintHeader(
      "E6d extension: horizontal range partitioning on ra (what-if)");
  std::printf("%-12s %14s %14s %10s\n", "partitions", "base cost",
              "pruned cost", "speedup");
  auto base_stmt = ParseSelect(kBoxSql);
  PARINDA_CHECK_OK(base_stmt);
  PARINDA_CHECK_OK(BindStatement(db->catalog(), &*base_stmt));
  auto base_plan = PlanQuery(db->catalog(), *base_stmt);
  PARINDA_CHECK_OK(base_plan);
  for (const int parts : {2, 4, 8, 16, 32}) {
    auto bounds = SuggestEqualMassBounds(db->catalog(), photoobj->id, ra,
                                         parts);
    PARINDA_CHECK_OK(bounds);
    WhatIfTableCatalog overlay(db->catalog());
    RangePartitionDef def;
    def.parent = photoobj->id;
    def.column = ra;
    def.bounds = *bounds;
    PARINDA_CHECK_OK(overlay.AddRangePartitioning(def));
    auto stmt = ParseSelect(kBoxSql);
    PARINDA_CHECK_OK(stmt);
    PARINDA_CHECK_OK(BindStatement(overlay, &*stmt));
    auto plan = PlanQuery(overlay, *stmt);
    PARINDA_CHECK_OK(plan);
    std::printf("%-12d %14.0f %14.0f %9.2fx\n", parts,
                base_plan->total_cost(), plan->total_cost(),
                base_plan->total_cost() / plan->total_cost());
    if (parts == 8) {
      bench_util::RecordMetric("e6.range8_speedup",
                               base_plan->total_cost() / plan->total_cost());
    }
  }
}

void RunEngineCache() {
  // E6e — engine cost cache on TPC-H-mini (the second schema family: joins,
  // date ranges). The cache only changes how often the planner runs, never
  // the design (DESIGN.md §13); the planner-call count is compared with the
  // naive queries x evaluations bound. Serial, so every count is exact and
  // repeats from run to run.
  Database db;
  TpchMiniConfig config;
  auto dataset = BuildTpchMiniDatabase(&db, config);
  PARINDA_CHECK_OK(dataset);
  auto workload = MakeTpchMiniWorkload(db.catalog());
  PARINDA_CHECK_OK(workload);

  bench_util::PrintHeader("E6e: engine cost cache (TPC-H-mini, 12 queries)");
  AutoPartOptions options;
  options.max_iterations = 3;
  options.parallelism = 1;
  AutoPartAdvisor advisor(db.catalog(), *workload, options);
  const int64_t before = Planner::stats().plans_built;
  const int64_t rewrites_before = EngineRewrites();
  auto advice = advisor.Suggest();
  PARINDA_CHECK_OK(advice);
  const int64_t plans_built = Planner::stats().plans_built - before;
  const int64_t rewrites = EngineRewrites() - rewrites_before;
  const EvaluatorStats stats = advisor.evaluator_stats();
  const double hit_rate =
      stats.cache_hits + stats.cache_misses > 0
          ? static_cast<double>(stats.cache_hits) /
                static_cast<double>(stats.cache_hits + stats.cache_misses)
          : 0.0;
  const int64_t naive =
      static_cast<int64_t>(workload->queries.size()) * advice->evaluations;
  std::printf("%14s %14s %12s %12s\n", "planner calls", "naive bound",
              "hit rate", "cost");
  std::printf("%14lld %14lld %11.1f%% %12.0f\n",
              static_cast<long long>(plans_built),
              static_cast<long long>(naive), 100.0 * hit_rate,
              advice->optimized_cost);
  bench_util::RecordMetric("e6e.plans_built_cached", plans_built);
  bench_util::RecordMetric("e6e.rewrites", rewrites);
  bench_util::RecordMetric("e6e.cache_hit_rate", hit_rate);
  bench_util::RecordMetric("e6e.queries", workload->queries.size());
  bench_util::RecordMetric("e6e.evaluations", advice->evaluations);
}

void BM_AutoPartSuggest(benchmark::State& state) {
  Database* db = bench_util::SharedSdss(20000);
  Workload workload = PartitionWorkload(*db);
  for (auto _ : state) {
    AutoPartOptions options;
    options.max_iterations = static_cast<int>(state.range(0));
    AutoPartAdvisor advisor(db->catalog(), workload, options);
    auto advice = advisor.Suggest();
    PARINDA_CHECK_OK(advice);
    benchmark::DoNotOptimize(advice->optimized_cost);
  }
}
BENCHMARK(BM_AutoPartSuggest)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace parinda

int main(int argc, char** argv) {
  parinda::bench_util::InitFlags(&argc, argv);
  parinda::Run();
  parinda::RunHorizontal();
  parinda::RunEngineCache();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  parinda::bench_util::WriteJsonIfEnabled("bench_autopart");
  parinda::bench_util::WriteTraceIfEnabled("bench_autopart");
  return 0;
}
