#ifndef PARINDA_AUTOPART_AUTOPART_H_
#define PARINDA_AUTOPART_AUTOPART_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/deadline.h"
#include "common/status.h"
#include "engine/advice.h"
#include "engine/cache_governor.h"
#include "engine/eval_context.h"
#include "engine/workload_evaluator.h"
#include "optimizer/cost_params.h"
#include "workload/compress.h"
#include "workload/workload.h"

namespace parinda {

/// One suggested vertical fragment: `columns` of `table` (the parent's
/// primary key is always carried implicitly, as in the what-if table
/// component).
struct FragmentDef {
  TableId table = kInvalidTableId;
  std::vector<ColumnId> columns;
};

/// Configuration for the AutoPart search.
struct AutoPartOptions {
  /// The DBA's replication constraint (paper §3: "the maximum space taken by
  /// replicated columns in the partitions"). Replicated bytes are the extra
  /// copies beyond one copy of each column plus one primary key.
  double replication_limit_bytes = std::numeric_limits<double>::infinity();
  /// Maximum composite-generation iterations (the algorithm also stops when
  /// no move improves the workload).
  int max_iterations = 12;
  /// Candidate pair cap per iteration, to bound evaluation work.
  int max_candidates_per_iteration = 128;
  /// Minimum relative improvement for a move to be applied.
  double min_improvement = 1e-4;
  /// Worker threads for the per-iteration composite-fragment evaluation.
  /// 1 = serial on the calling thread; 0 = one worker per hardware thread.
  /// The selected design is bit-identical at any setting: all candidate
  /// states of an iteration are enumerated first, evaluated into pre-sized
  /// slots, and the winner picked by a serial scan in enumeration order.
  int parallelism = 0;
  CostParams params;
  /// Time budget for the whole search. Checked per iteration (and per query
  /// inside each evaluation): on expiry the advisor stops and returns the
  /// best selection found so far with `degradation.degraded = true`. The
  /// default infinite deadline reproduces the un-budgeted advice
  /// bit-identically. See DESIGN.md §10.
  Deadline deadline;
  /// Byte budget for the engine's cost cache during the search (DESIGN.md
  /// §14). 0 (default) = unbounded. Under a budget, cold entries are
  /// LRU-evicted and re-planned on the next touch; the advice stays
  /// bit-identical, only planner-call counts change. Eviction is recorded as
  /// `engine:cache-evicted` in the advice's DegradationReport.
  int64_t memory_budget_bytes = 0;
};

/// Output of the automatic partition suggestion scenario (Figure 2): the
/// fragments, the workload benefit (AdviceSummary), per-query benefits, and
/// the rewritten queries.
struct PartitionAdvice : AdviceSummary {
  std::vector<FragmentDef> fragments;
  /// Rewritten workload for the suggested partitions (ready to save).
  std::vector<std::string> rewritten_sql;
  /// Replicated bytes of the final design.
  double replicated_bytes = 0.0;
  /// Workload cost evaluations performed (each evaluates every query,
  /// whether the per-query costs come from the planner or the cache).
  int evaluations = 0;
  int iterations_run = 0;
};

/// The AutoPart algorithm of Papadomanolakis & Ailamaki (SSDBM 2004), as
/// integrated in PARINDA §3.3:
///  1. *Atomic fragments*: the finest column groups such that every workload
///     query reads each group entirely or not at all.
///  2. *Composite fragment generation*: unions of selected fragments with
///     atomic fragments (and atomic with atomic in the first iteration).
///  3. *Fragment selection*: candidates are evaluated through the shared
///     evaluation engine (what-if table component + query rewriter +
///     planner, with per-query cost caching); the best improving move is
///     applied (a merge, or a replicated addition if the replication
///     constraint allows) and the loop repeats until no improvement is
///     found.
class AutoPartAdvisor {
 public:
  /// The workload must be bound against `catalog`; both must outlive this.
  AutoPartAdvisor(const CatalogReader& catalog, const Workload& workload,
                  AutoPartOptions options = {});

  AutoPartAdvisor(const AutoPartAdvisor&) = delete;
  AutoPartAdvisor& operator=(const AutoPartAdvisor&) = delete;

  /// Runs the search and returns the suggested partitions.
  [[nodiscard]] Result<PartitionAdvice> Suggest();

  /// Atomic fragments of `table` under this workload (exposed for tests and
  /// the ablation bench).
  [[nodiscard]] Result<std::vector<FragmentDef>> AtomicFragments(TableId table) const;

  /// The engine evaluator's cache/evaluation counters (exposed for tests
  /// and benches).
  EvaluatorStats evaluator_stats() const { return evaluator_.stats(); }

  /// The cache governor, when `memory_budget_bytes` armed one; nullptr on
  /// unbudgeted advisors.
  const CacheGovernor* governor() const { return governor_.get(); }

 private:
  /// One table's in-progress partitioning state (the engine's design
  /// currency).
  using TableState = PartitionedTable;

  /// Evaluates the workload cost of a candidate state through the shared
  /// engine. Returns the weighted total; per-query costs go to `per_query`
  /// when non-null. Safe to call concurrently from pool workers: the
  /// engine's cache is mutex-guarded and each evaluation builds a private
  /// what-if overlay.
  [[nodiscard]] Result<double> EvaluateState(const std::vector<TableState>& state,
                               std::vector<double>* per_query,
                               std::vector<std::string>* rewritten_sql);

  /// Replicated bytes of a state.
  double ReplicatedBytes(const std::vector<TableState>& state) const;

  /// Fold class of original query `orig`.
  int RepOf(int orig) const {
    return fold_.expansion.representative[static_cast<size_t>(orig)];
  }

  const CatalogReader& catalog_;
  const Workload& workload_;
  AutoPartOptions options_;
  /// The fold of `workload_`. The evaluator runs over its classes; all
  /// advice outputs stay in original-query terms.
  CompressedWorkload fold_;
  /// Derived from options_; threaded through every engine call.
  EvalContext ctx_;
  /// Governs only the evaluator's cost cache (safe under pool parallelism:
  /// the cache is mutex-guarded and hands out values, not pointers). Must be
  /// declared before evaluator_ so it outlives the cache it governs.
  std::unique_ptr<CacheGovernor> governor_;
  int evaluator_shard_ = 0;
  WorkloadEvaluator evaluator_;
};

}  // namespace parinda

#endif  // PARINDA_AUTOPART_AUTOPART_H_
