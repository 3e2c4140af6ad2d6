#ifndef PARINDA_DESIGN_DESIGN_SESSION_H_
#define PARINDA_DESIGN_DESIGN_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/status.h"
#include "design/overlay.h"
#include "engine/advice.h"
#include "engine/cache_governor.h"
#include "engine/cache_spill.h"
#include "engine/inum_bank.h"
#include "engine/workload_evaluator.h"
#include "workload/compress.h"
#include "workload/workload.h"

namespace parinda {

/// Scenario 1 output: "the average workload benefit and the individual
/// queries benefits are displayed"; rewritten queries can be saved.
///
/// Shares AdviceSummary with the advisor reports: `optimized_cost` /
/// `per_query_optimized` are the what-if design's costs. When
/// `degradation.degraded`, some queries kept their last-known (possibly
/// zero) costs; the next Evaluate() with a fresh budget completes them.
struct InteractiveReport : AdviceSummary {
  /// Per-query benefit in percent ((base - optimized) / base * 100).
  std::vector<double> per_query_benefit_pct;
  double average_benefit_pct = 0.0;
  /// Queries rewritten for the what-if partitions.
  std::vector<std::string> rewritten_sql;
};

/// Handle to one design feature inside a session (returned by Add*, consumed
/// by Drop). Handles are never reused within a session.
using OverlayId = int64_t;

struct DesignSessionOptions {
  CostParams params;
  /// When true, a query invalidated *only* by index deltas (and whose tables
  /// carry no table/range-partition components) is re-costed through INUM
  /// plan recomposition (§3.4) instead of full re-optimization. INUM's
  /// recomposed cost is a close approximation, not bit-identical to the
  /// planner's, so this is opt-in; with the default (false) the session is
  /// exact — invalidation alone already skips every untouched query, which
  /// is where the interactive-latency win comes from.
  bool inum_index_deltas = false;
  /// Time budget consulted by Evaluate() before each per-query planner or
  /// INUM call. On expiry the evaluation stops re-costing: already-finished
  /// queries report fresh costs, the rest keep their previous values and
  /// stay pending, and the report is marked degraded. Re-arm per call with
  /// DesignSession::set_deadline. Infinite by default.
  Deadline deadline;
  /// Byte budget for the session's evaluation caches (cost-cache entries and
  /// INUM model slots together). 0 (default) = unbounded, the pre-governor
  /// behavior. Under a budget, cold entries are LRU-evicted and their
  /// queries re-plan on the next touch — advice stays bit-identical to an
  /// unbudgeted session; only planner-call counts change. An Evaluate() in
  /// which eviction fired records `engine:cache-evicted` in its
  /// DegradationReport.
  int64_t memory_budget_bytes = 0;
};

/// An interactive what-if design session — the stateful core of the paper's
/// scenario 1 loop ("she creates several what-if table partitions and several
/// what-if indexes", re-checks the benefit, adjusts, repeats).
///
/// The session holds a set of OverlayComponents and a workload, and costs
/// queries through the shared evaluation engine (WorkloadEvaluator,
/// DESIGN.md §13). It folds the workload once (workload/compress.h,
/// DESIGN.md §15) and keeps its state per fold class: duplicate queries are
/// planned once, and every report is expanded back over the original
/// queries in their original order. Each class's cached cost is keyed on the
/// signatures of the overlay units touching its tables, so an Add* or Drop
/// delta leaves the keys — and the cached costs — of untouched classes
/// intact (join flags are global). Evaluate() after a single-table delta
/// re-plans the classes referencing that table, not the whole workload;
/// dropping back to a previously evaluated design re-plans nothing at all,
/// because the old keys hit the engine cache.
///
/// Determinism guarantee: Evaluate() returns a report bit-identical to a
/// fresh stateless evaluation of the same component set, for *any*
/// interleaving of Add/Drop deltas that reaches that set (see DESIGN.md §9;
/// requires inum_index_deltas == false). Parinda::EvaluateDesign is exactly
/// that fresh one-shot session.
///
/// Not thread-safe: the component list and the per-query cost cache are
/// single-owner state, confined to the thread driving the session (the REPL
/// or one advisor call) — which is why they carry no PARINDA_GUARDED_BY
/// annotations (common/annotations.h); pool parallelism lives *below* the
/// session, inside InumCostModel and the advisors. `catalog` and the
/// workload must outlive the session, and the base catalog must not change
/// behind it (materializing a feature or re-ANALYZEing invalidates the
/// cached costs silently — start a new session after mutating the database).
class DesignSession {
 public:
  /// `workload` may be null (empty reports until SetWorkload).
  DesignSession(const CatalogReader& catalog, const Workload* workload,
                DesignSessionOptions options = {});
  ~DesignSession();

  DesignSession(const DesignSession&) = delete;
  DesignSession& operator=(const DesignSession&) = delete;

  // --- Deltas. Each Add* validates eagerly by recomposing the overlay: on
  // error nothing is added and the session is unchanged. ---

  [[nodiscard]] Result<OverlayId> AddIndex(WhatIfIndexDef def);
  [[nodiscard]] Result<OverlayId> AddPartition(WhatIfPartitionDef def);
  [[nodiscard]] Result<OverlayId> AddRangePartitioning(RangePartitionDef def);
  [[nodiscard]] Result<OverlayId> AddJoinFlags(WhatIfJoinDef def);

  /// Removes one feature. Fails (and leaves the session unchanged) when `id`
  /// is unknown or the remainder no longer composes (e.g. dropping a
  /// partition while an index on its fragment remains).
  [[nodiscard]] Status Drop(OverlayId id);

  /// Drops every feature.
  void ClearDesign();

  /// Replaces (and re-folds) the workload; all cached per-query state is
  /// discarded.
  void SetWorkload(const Workload* workload);

  /// Re-arms the evaluation budget (deadlines are absolute instants, so a
  /// long-lived session sets a fresh one before each budgeted Evaluate()).
  void set_deadline(const Deadline& deadline) { options_.deadline = deadline; }

  /// Evaluates the current design over the workload, re-planning only
  /// invalidated fold classes. The first call on a fresh session plans every
  /// class once (it *is* the stateless evaluation).
  [[nodiscard]] Result<InteractiveReport> Evaluate();

  // --- Durable cache spill (DESIGN.md §14) ---

  /// Writes the engine's cost cache to `path` (atomic temp+rename; see
  /// cache_spill.h for the format and failure matrix). Requires a workload.
  [[nodiscard]] Status SaveCache(const std::string& path) const;

  /// Warms the engine's cost cache from a spill file written by SaveCache
  /// under the same catalog, workload, and cost parameters. Corrupt records
  /// are skipped (counted in the report); a mismatched or unreadable file
  /// returns an error the caller should treat as "cache stays cold", never
  /// as session failure. Requires a workload.
  [[nodiscard]] Result<SpillLoadReport> LoadCache(const std::string& path);

  // --- Introspection ---

  struct ComponentEntry {
    OverlayId id = 0;
    OverlayKind kind = OverlayKind::kIndex;
    std::string description;
  };
  /// Current components in insertion order.
  std::vector<ComponentEntry> Components() const;

  /// The composed overlay backing the next Evaluate() (for EXPLAIN-style
  /// inspection; never null).
  const ComposedOverlay& overlay() const { return *overlay_; }

  /// Queries whose what-if cost the next Evaluate() must recompute (every
  /// member of a pending fold class counts).
  int pending_queries() const;
  /// PlanQuery invocations during the last Evaluate() (includes INUM's
  /// internal cache-fill calls).
  int64_t last_eval_planner_calls() const { return last_eval_planner_calls_; }
  /// Queries served by INUM recomposition during the last Evaluate().
  int last_eval_inum_recosts() const { return last_eval_inum_recosts_; }
  /// The cache governor, when `memory_budget_bytes` armed one; nullptr on
  /// unbudgeted sessions.
  const CacheGovernor* governor() const { return governor_.get(); }

 private:
  struct Entry {
    OverlayId id = 0;
    std::unique_ptr<OverlayComponent> component;
  };

  struct QueryState {
    /// Base tables the query references (deduplicated, from the binder).
    std::vector<TableId> tables;
    /// Base-design cost, held in session state (not read back from the
    /// engine cache at report time: under a memory budget the governor may
    /// evict the cache entry between the base phase and aggregation, and the
    /// report must not care). O(1) per query — bounded by the workload, so
    /// deliberately outside the governor's remit.
    bool has_base = false;
    double base_cost = 0.0;
    /// True once some evaluation (exact or INUM) stored a what-if cost.
    bool has_value = false;
    double whatif_cost = 0.0;
    std::string rewritten_sql;
    /// Engine cache key the stored cost was computed under; the query is
    /// pending while this differs from the current design's key.
    std::string stored_key;
    /// Same key restricted to non-index units — when it still matches, every
    /// delta since the stored cost was an index delta (the precondition for
    /// INUM plan recomposition).
    std::string stored_nonindex_key;
  };

  [[nodiscard]] Result<OverlayId> AddComponent(
      std::unique_ptr<OverlayComponent> component);
  /// Rebuilds overlay_ (and the engine's unit view of it) from entries_.
  /// The overlay is a pure function of the component list, which is what
  /// makes cached costs reusable across rebuilds.
  [[nodiscard]] Status Recompose();
  void RebuildQueryStates();
  /// Engine cache key of fold class `q` under the current design (and the
  /// non-index restriction of it). Requires a workload.
  std::string CurrentKey(int q) const;
  std::string CurrentNonIndexKey(int q) const;
  /// Whether the next Evaluate() must re-cost fold class `q`; compared
  /// across a delta to count valid->pending transitions
  /// (`design.invalidations`, one per class).
  bool Pending(int q) const;
  std::vector<char> PendingSnapshot() const;
  void CountInvalidations(const std::vector<char>& was_pending);
  /// True when fold class `q` may be re-costed via INUM (index-only delta, no
  /// table/range component on any of its tables).
  bool InumEligible(int q, const QueryState& qs) const;
  [[nodiscard]] Result<double> InumRecost(int q, const QueryState& qs);
  /// What a spill file must match: the exact params signature plus a CRC
  /// over the catalog statistics and the workload text/weights.
  SpillScope ComputeSpillScope() const;

  const CatalogReader& catalog_;
  const Workload* workload_;
  DesignSessionOptions options_;
  std::vector<Entry> entries_;
  OverlayId next_id_ = 1;
  std::unique_ptr<ComposedOverlay> overlay_;
  /// The current design as the engine cache sees it: one (touched tables,
  /// signature) unit per component, in insertion order; nonindex_units_
  /// excludes index components.
  std::vector<OverlayUnit> units_;
  std::vector<OverlayUnit> nonindex_units_;
  /// The fold of *workload_ (empty without one), rebuilt by SetWorkload.
  CompressedWorkload fold_;
  /// Shared evaluation engine over (catalog_, fold_); null without a
  /// workload, rebuilt by SetWorkload.
  std::unique_ptr<WorkloadEvaluator> evaluator_;
  /// Per-class INUM models for the incremental index-delta path; the bank
  /// rebuilds a model when the composed params change (join-flag deltas).
  std::unique_ptr<InumBank> inum_bank_;
  /// LRU governor over both caches when the options set a byte budget. The
  /// session drives both caches from one thread, so governing the bank's
  /// model slots is safe here (unlike AutoPart's parallel workers).
  std::unique_ptr<CacheGovernor> governor_;
  int evaluator_shard_ = 0;
  int bank_shard_ = 0;
  /// One state per fold class.
  std::vector<QueryState> queries_;
  int64_t last_eval_planner_calls_ = 0;
  int last_eval_inum_recosts_ = 0;
};

}  // namespace parinda

#endif  // PARINDA_DESIGN_DESIGN_SESSION_H_
