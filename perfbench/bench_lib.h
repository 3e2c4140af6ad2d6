// The end-to-end benchmark of the three PARINDA scenarios (index advice,
// partition advice, an interactive what-if session) over seeded SDSS
// workloads. One closed-loop client; every advisor runs at parallelism 1.
// See perfbench/NOTES.md for the workloads, metrics and their reasons.
#ifndef PARINDA_PERFBENCH_BENCH_LIB_H_
#define PARINDA_PERFBENCH_BENCH_LIB_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "common/trace.h"
#include "whatif/whatif_index.h"
#include "whatif/whatif_table.h"
#include "workload/workload.h"

namespace parinda {
namespace perfbench {

/// One benchmark workload: the SDSS database size, the scaled query log
/// (template popularity Zipf-skewed with theta 0.6), and the design questions
/// asked of it.
struct WorkloadSpec {
  int64_t photoobj_rows = 20000;
  /// The scaled log (MakeScaledSdssWorkload)...
  int num_queries = 2000;
  int literal_variants = 4;
  /// ...unless this is positive: then the stratified distinct log, each
  /// template this many times (MakeDistinctWorkload in bench_lib.cc).
  int queries_per_template = 0;
  /// Storage budget of every index-advice call (infinity = unbounded).
  double index_budget_bytes = 0.0;
  /// Engine cache budget of AutoPart and the what-if session (0 = none).
  int64_t memory_budget_bytes = 0;
  /// Scripted what-if steps per round; a fresh session replays the same
  /// script every round. 200 leaves ten steps beyond p95.
  int steps_per_round = 200;
  /// Database + workload set-ups per run (setup_s is their median).
  int setup_reps = 5;
};

/// The named workload ("sdss-zipf", "sdss-distinct", "sdss-zipf-tight").
/// `small` shrinks every size for the benchmark's own tests.
[[nodiscard]] Result<WorkloadSpec> SpecFor(const std::string& name, bool small);
std::vector<std::string> WorkloadNames();

// --- Statistics ---------------------------------------------------------------

double Median(std::vector<double> values);
/// Nearest-rank percentile (`p` in [0, 100]) of `values`.
double Percentile(std::vector<double> values, double p);
/// The highest percentile of `n` samples that still has at least
/// `min_beyond` samples above it: 100 * (n - min_beyond) / n, or 0 when
/// n <= min_beyond.
double HighestReportablePercentile(size_t n, size_t min_beyond = 10);

// --- The what-if session script ----------------------------------------------

/// One DBA step: add an index, add a vertical partition, or drop the
/// feature that step `drop_of` added.
struct ScriptStep {
  enum class Kind { kAddIndex, kAddPartition, kDrop };
  Kind kind = Kind::kAddIndex;
  WhatIfIndexDef index;
  WhatIfPartitionDef partition;
  int drop_of = -1;
};

/// Deterministic in (catalog, workload, seed): indexes come from the
/// workload's candidate pool, partitions group candidate columns of one
/// table, and drops remove the oldest live feature. At most one live
/// partition per table and at most `max_live` live features at a time. The
/// kinds of step and their tables follow a fixed pattern; the seed (and the
/// workload's candidates) pick the columns.
[[nodiscard]] Result<std::vector<ScriptStep>> MakeStepScript(
    const CatalogReader& catalog, const Workload& workload, uint64_t seed,
    int steps, int max_live = 6);
/// One line per step, for tests and logs.
std::string DescribeScript(const std::vector<ScriptStep>& script);

// --- Trace analysis -----------------------------------------------------------

struct SpanTotals {
  int64_t count = 0;
  double total_s = 0.0;
  /// Duration minus the time covered by the span's direct children.
  double self_s = 0.0;
};

/// Per-name totals of `events` (one thread's properly nested spans).
std::map<std::string, SpanTotals> SpanSelfTimes(
    const std::vector<trace::TraceEvent>& events);

// --- Metrics and the run ------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};
/// Every metric a `--trace 0` run prints, in print order.
const std::vector<MetricDef>& EndToEndMetrics();
/// Every metric a `--trace 1` run prints, in print order.
const std::vector<MetricDef>& PerLayerMetrics();

struct RunOptions {
  WorkloadSpec spec;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Names of the checks that failed, with a detail each.
  std::vector<std::string> failures;
  /// Metric name -> value, for the metrics of the run's mode.
  std::map<std::string, double> metrics;
  /// Digests of the advice and the final session report ("index",
  /// "partition", "session"), for comparisons across runs.
  std::map<std::string, std::string> digests;
};

/// Runs one workload: set-up, timed rounds of the three scenarios, then
/// materialization and execution of both advised designs. A returned error
/// is a harness failure (bad spec, set-up failed); failed operations and
/// checks are counted in the result instead.
[[nodiscard]] Result<RunResult> RunBenchmark(const RunOptions& options);

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(const RunResult& result,
                       const std::vector<MetricDef>& defs);

}  // namespace perfbench
}  // namespace parinda

#endif  // PARINDA_PERFBENCH_BENCH_LIB_H_
