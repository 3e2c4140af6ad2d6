// E10 — large-workload scaling (DESIGN.md §15). Expands the 30 SDSS
// templates into thousand-query workloads and times the scaling pipeline —
// workload compression, sparse benefit rows, the incremental
// branch-and-bound solver — across workload sizes (E10a), counting the
// planner calls of a fresh design session's first evaluation on each, then
// counts the solver's LP copies on a deep branch-and-bound tree (E10c).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "advisor/index_advisor.h"
#include "autopart/autopart.h"
#include "bench/bench_util.h"
#include "common/check.h"
#include "common/metrics.h"
#include "design/design_session.h"
#include "solver/bnb.h"
#include "workload/compress.h"
#include "workload/sdss_scale.h"

namespace parinda {
namespace {

double WallMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

Workload ScaledWorkload(const Database& db, int num_queries) {
  SdssScaleConfig config;
  config.num_queries = num_queries;
  auto workload = MakeScaledSdssWorkload(db.catalog(), config);
  PARINDA_CHECK_OK(workload);
  return std::move(*workload);
}

/// One pipeline run: index advice (static greedy over the benefit matrix)
/// plus partition advice.
struct PipelineResult {
  double wall_ms = 0.0;
  IndexAdvice indexes;
  PartitionAdvice partitions;
};

PipelineResult RunPipeline(const Database& db, const Workload& workload) {
  PipelineResult out;
  const auto start = std::chrono::steady_clock::now();
  IndexAdvisor advisor(db.catalog(), workload);
  auto index_advice = advisor.SuggestWithStaticGreedy();
  PARINDA_CHECK_OK(index_advice);
  out.indexes = std::move(*index_advice);

  AutoPartOptions autopart_options;
  autopart_options.max_iterations = 1;
  autopart_options.max_candidates_per_iteration = 16;
  AutoPartAdvisor autopart(db.catalog(), workload, autopart_options);
  auto partition_advice = autopart.Suggest();
  PARINDA_CHECK_OK(partition_advice);
  out.partitions = std::move(*partition_advice);
  out.wall_ms = WallMs(start);
  return out;
}

/// Planner calls of a fresh design session's first Evaluate() with no design
/// features: one base plan and one what-if plan per query it evaluates.
int64_t FirstEvaluatePlans(const Database& db, const Workload& workload) {
  DesignSession session(db.catalog(), &workload);
  auto report = session.Evaluate();
  PARINDA_CHECK_OK(report);
  return session.last_eval_planner_calls();
}

void RunSizeSweep() {
  Database* db = bench_util::SharedSdss(20000);
  bench_util::PrintHeader(
      "E10a: workload size sweep, full scaling pipeline");
  std::printf("%-8s %10s %10s %12s %12s %14s\n", "queries", "distinct",
              "ratio", "sparse nnz", "wall (ms)", "session plans");
  for (const int n : {500, 1000, 2000}) {
    const Workload workload = ScaledWorkload(*db, n);
    const CompressedWorkload compressed =
        CompressWorkload(db->catalog(), workload);
    const PipelineResult full = RunPipeline(*db, workload);
    const int64_t nnz =
        metrics::Registry::Global().gauge("advisor.sparse_nnz").value();
    const int64_t session_plans = FirstEvaluatePlans(*db, workload);
    std::printf("%-8d %10d %9.1fx %12lld %12.1f %14lld\n", n,
                compressed.workload.size(), compressed.ratio(),
                static_cast<long long>(nnz), full.wall_ms,
                static_cast<long long>(session_plans));
    const std::string prefix = "e10a." + std::to_string(n);
    bench_util::RecordMetric(prefix + ".distinct", compressed.workload.size());
    bench_util::RecordMetric(prefix + ".compression_ratio",
                             compressed.ratio());
    bench_util::RecordMetric(prefix + ".sparse_nnz",
                             static_cast<double>(nnz));
    bench_util::RecordMetric(prefix + ".wall_ms", full.wall_ms);
    bench_util::RecordMetric(prefix + ".session_plans",
                             static_cast<double>(session_plans));
  }
}

/// A deterministic multi-constraint knapsack whose LP relaxation is
/// fractional at many nodes — the advisor's real ILPs usually solve at the
/// root, so counting copies per solve needs an instance with an actual tree.
BinaryMip MakeHardKnapsack(int n) {
  BinaryMip mip;
  mip.lp.objective.resize(static_cast<size_t>(n));
  LinearProgram::Constraint budget;
  double total_weight = 0.0;
  for (int i = 0; i < n; ++i) {
    // Coprime-ish value/weight patterns keep benefit-per-byte ties rare and
    // the relaxation fractional.
    const double value = 7.0 + static_cast<double>((i * 37) % 23);
    const double weight = 5.0 + static_cast<double>((i * 53) % 29);
    mip.lp.objective[static_cast<size_t>(i)] = value;
    budget.terms.push_back({i, weight});
    total_weight += weight;
  }
  budget.rhs = total_weight / 3.0;
  mip.lp.AddConstraint(std::move(budget));
  // Overlapping cardinality windows: at most 3 of any 7 consecutive items.
  for (int i = 0; i + 7 <= n; i += 4) {
    LinearProgram::Constraint window;
    for (int j = i; j < i + 7; ++j) window.terms.push_back({j, 1.0});
    window.rhs = 3.0;
    mip.lp.AddConstraint(std::move(window));
  }
  return mip;
}

void RunSolverCopies() {
  // E10c — the incremental branch and bound (one shared LP, in-place bounds,
  // best-first, rounded warm start) copies the LP once per solve, however
  // deep the tree.
  bench_util::PrintHeader("E10c: branch-and-bound LP copies on a deep tree");
  const BinaryMip mip = MakeHardKnapsack(40);
  metrics::Counter& lp_copies =
      metrics::Registry::Global().counter("solver.lp_copies");
  const int64_t copies_before = lp_copies.value();
  const auto start = std::chrono::steady_clock::now();
  auto solution = SolveBinaryMip(mip);
  PARINDA_CHECK_OK(solution);
  PARINDA_CHECK(solution->proved_optimal);
  const double wall_ms = WallMs(start);
  const int64_t copies = lp_copies.value() - copies_before;
  std::printf("%12s %12s %10s %10s\n", "wall (ms)", "LP copies", "explored",
              "pruned");
  std::printf("%12.2f %12lld %10d %10d\n", wall_ms,
              static_cast<long long>(copies), solution->nodes_explored,
              solution->nodes_pruned);
  bench_util::RecordMetric("e10c.incremental_ms", wall_ms);
  bench_util::RecordMetric("e10c.incremental_lp_copies",
                           static_cast<double>(copies));
  bench_util::RecordMetric("e10c.incremental_nodes",
                           solution->nodes_explored);
}

void BM_ScaledPipeline(benchmark::State& state) {
  Database* db = bench_util::SharedSdss(20000);
  const Workload workload =
      ScaledWorkload(*db, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const PipelineResult result = RunPipeline(*db, workload);
    benchmark::DoNotOptimize(result.indexes.optimized_cost);
  }
}
BENCHMARK(BM_ScaledPipeline)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace parinda

int main(int argc, char** argv) {
  parinda::bench_util::InitFlags(&argc, argv);
  parinda::RunSizeSweep();
  parinda::RunSolverCopies();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  parinda::bench_util::WriteJsonIfEnabled("bench_scale");
  parinda::bench_util::WriteTraceIfEnabled("bench_scale");
  return 0;
}
