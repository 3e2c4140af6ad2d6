#ifndef PARINDA_ENGINE_WORKLOAD_EVALUATOR_H_
#define PARINDA_ENGINE_WORKLOAD_EVALUATOR_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "common/annotations.h"
#include "common/status.h"
#include "engine/cache_governor.h"
#include "engine/cache_spill.h"
#include "engine/eval_context.h"
#include "optimizer/cost_params.h"
#include "optimizer/hooks.h"
#include "workload/compress.h"

namespace parinda {

struct FragmentChoice;

/// Exact textual signature of a CostParams: doubles hex-encoded bit-for-bit,
/// flags as single characters. Two signatures compare equal iff the params
/// are bit-identical, so signatures are safe as cost-cache key prefixes and
/// as the "did the parameters change?" test for cached INUM models.
std::string ParamsSignature(const CostParams& params);

/// One overlay ingredient as the cost cache sees it: which *base* tables it
/// can influence (empty = global, e.g. join flags) and an exact signature of
/// its definition. A query's cache key is built from the units touching the
/// tables it reads, which is precisely the table-dependency invalidation
/// rule: a delta on tables a query never reads leaves its key — and its
/// cached cost — intact.
struct OverlayUnit {
  std::vector<TableId> tables;
  std::string signature;
};

/// A vertical partitioning of one table: the design currency of AutoPart's
/// search (formerly AutoPartAdvisor's private TableState).
struct PartitionedTable {
  TableId table = kInvalidTableId;
  std::vector<std::vector<ColumnId>> fragments;
};

struct PartitionEvalOptions {
  /// Name fragments `<table>_part<k>` (the names MaterializePartitions will
  /// create) instead of search-private names. The stable-names pass is the
  /// final reporting pass: it also wants rewritten SQL, so it bypasses the
  /// cost cache entirely.
  bool stable_names = false;
};

/// Cache and evaluation counters for one evaluator instance. Instance-local
/// (deterministic per advisor run) — the process-wide mirror lives in the
/// metrics registry as `engine.evaluations` / `engine.cache_hits` /
/// `engine.cache_misses`.
struct EvaluatorStats {
  /// Whole-workload EvaluatePartitioning calls.
  int64_t evaluations = 0;
  /// Per-query costs served without a planner call.
  int64_t cache_hits = 0;
  /// Per-query costs that went to the planner.
  int64_t cache_misses = 0;
};

/// The shared incremental evaluation engine (DESIGN.md §13): owns the
/// overlay→rewriter→planner wiring and a per-(query, overlay-signature)
/// cost cache with table-dependency invalidation, so every advisor reuses
/// what-if costs instead of re-planning the full workload per candidate —
/// CoPhy's decoupling of cost derivation from design selection.
///
/// Two key shapes share one cache. The session path (EvaluateQuery) keys on
/// KeyFor: the overlay units touching the query's tables. AutoPart's path
/// (EvaluatePartitioning) keys on PlanKey: the rewriter's fragment choice,
/// by content, so a lookup never rewrites; a statement is rewritten only to
/// be planned (the `engine.rewrites` counter).
///
/// Caching never changes results, only planner-call counts: a cache entry is
/// keyed on an exact signature of everything the cost depends on, so a hit
/// returns the bit-identical double the planner produced on the miss.
///
/// The evaluator works over a fold (workload/compress.h, DESIGN.md §15):
/// every query index `q` below names a fold class, costed once through its
/// representative. Cache and spill keys name a class by its first original
/// query (`q<first>`, `base:<first>`, `plan:<first>`), so an identity fold
/// keys exactly as the original workload would.
///
/// Thread-safety: the cache and counters are mutex-guarded; concurrent
/// EvaluatePartitioning calls (AutoPart's parallel candidate evaluation) are
/// safe. Which racing worker inserts first is timing-dependent, but both
/// compute identical values, so results stay deterministic.
class WorkloadEvaluator {
 public:
  /// `catalog` and `fold` must outlive the evaluator.
  WorkloadEvaluator(const CatalogReader& catalog,
                    const CompressedWorkload& fold);

  WorkloadEvaluator(const WorkloadEvaluator&) = delete;
  WorkloadEvaluator& operator=(const WorkloadEvaluator&) = delete;

  /// Base tables fold class `q` reads (sorted, deduplicated) — the
  /// dependency set that decides which overlay units participate in its
  /// cache key.
  const std::vector<TableId>& QueryTables(int q) const;

  /// True when a unit touching `touched` can affect a query reading
  /// `query_tables`. An empty `touched` is global and affects everything.
  static bool Touches(const std::vector<TableId>& query_tables,
                      const std::vector<TableId>& touched);

  /// Cache key for query `q` under `units`: the params signature plus the
  /// signatures of the units touching the query's tables, in unit order.
  std::string KeyFor(int q, const std::vector<OverlayUnit>& units,
                     const CostParams& params) const;

  // -- base (no-overlay) costs -----------------------------------------
  // Split into a lookup and a compute step so anytime callers can keep the
  // pre-engine ordering "serve cached costs even after the deadline fires,
  // only a cache miss checks the budget".

  /// The cached base cost of `q` under `params`, if one exists.
  std::optional<double> CachedBaseCost(int q, const CostParams& params) const;

  /// Plans query `q` against the base catalog (or serves the cached cost).
  /// Does not consult the deadline: budget policing stays with the caller.
  [[nodiscard]] Result<double> BaseCost(int q, const EvalContext& ctx);

  // -- single-query overlay evaluation (DesignSession's path) ----------

  /// A composed overlay, decomposed: the catalog to bind/plan against, the
  /// partition fragments for the rewriter, the hook registry (what-if
  /// indexes), and the effective cost params (join flags applied).
  struct OverlayView {
    const CatalogReader* catalog = nullptr;
    const std::vector<const TableInfo*>* fragments = nullptr;
    const HookRegistry* hooks = nullptr;
    CostParams params;
  };

  struct QueryEval {
    double cost = 0.0;
    /// Rewritten SQL when partition fragments changed the statement, the
    /// original text otherwise.
    std::string rewritten_sql;
  };

  /// Rewrites and plans query `q` under `view`, caching the result under
  /// `key` (from KeyFor; pass "" to bypass the cache for this call).
  [[nodiscard]] Result<QueryEval> EvaluateQuery(int q, const OverlayView& view,
                                                const std::string& key);

  // -- whole-workload partitioning evaluation (AutoPart's path) --------

  /// EvaluatePartitioning's cache key for class `q` under the rewriter's
  /// `choice` (ChooseFragments over the design's fragments):
  /// `plan:<first>|<params_sig>`, then one entry per FROM entry of the
  /// statement the choice builds — `b:<id>` for a kept base table,
  /// `f:<parent>:<column names>` for each chosen fragment. Fragments are
  /// named by content, never by overlay id or name, so two designs that
  /// move a query onto content-identical fragments share one entry, and a
  /// design change on tables the query does not read leaves the key as is.
  std::string PlanKey(int q, const std::string& params_sig,
                      const FragmentChoice& choice) const;

  /// Weighted workload cost under `design`. Each fold class's fragment
  /// choice is made first and keys the cache (PlanKey); the statement is
  /// rewritten and planned only on a miss. A candidate move touches one
  /// table, so fold classes not reading it are served from the cache. The
  /// total and the output arrays are expanded over the ORIGINAL queries in
  /// ascending order — each contributes its class's cost times its own
  /// weight, reproducing the unfolded add sequence exactly (DESIGN.md §15).
  /// Checks `ctx.deadline` before each class (budget expiry surfaces as
  /// kDeadlineExceeded, the anytime contract). `per_query` /
  /// `rewritten_sql`, when given, must be pre-sized to the original
  /// workload.
  [[nodiscard]] Result<double> EvaluatePartitioning(
      const std::vector<PartitionedTable>& design, const EvalContext& ctx,
      const PartitionEvalOptions& opts, std::vector<double>* per_query,
      std::vector<std::string>* rewritten_sql);

  EvaluatorStats stats() const;

  // -- resource governance & durable spill (DESIGN.md §14) -------------

  /// Registers this evaluator's cache as governor shard `shard`: every
  /// insert and hit is reported as a Touch, and the governor calls back
  /// `EraseCacheEntry` to evict. Call during setup (the shard's EvictFn must
  /// point here); pass nullptr to detach. Not synchronized with concurrent
  /// evaluation.
  void set_governor(CacheGovernor* governor, int shard);

  /// Every cached cost as a spillable record, sorted by key (deterministic
  /// spill files): the overlay-keyed entries verbatim, plus base-design
  /// costs under synthetic `base:<first>|<params sig>` keys.
  std::vector<CostCacheRecord> ExportCacheRecords() const;

  /// Installs one spilled record (the inverse of ExportCacheRecords).
  /// Records that no longer apply — a base key outside the workload or not
  /// naming the first query of its class — are ignored. Imports count as
  /// neither hits nor misses; the governor (if any) is notified, so an
  /// import can itself trigger eviction.
  [[nodiscard]] Status ImportCacheRecord(const CostCacheRecord& record);

  /// Drops one entry by its export key (the governor's eviction callback).
  /// Unknown keys are a no-op.
  void EraseCacheEntry(const std::string& key);

 private:
  struct CacheEntry {
    double cost = 0.0;
    /// EvaluateQuery entries carry rewritten SQL; EvaluatePartitioning's
    /// search entries don't (the reporting pass bypasses the cache).
    bool has_sql = false;
    std::string rewritten_sql;
  };

  /// The first original query of fold class `q`: the class's name in keys.
  int FirstOf(int q) const {
    return fold_.expansion.members[static_cast<size_t>(q)].front();
  }
  /// `base:<first>|<sig>`, the export key of class `q`'s base cost.
  std::string BaseKey(int q, const std::string& sig) const;
  /// The fold class whose first original query is `first`, or -1 when
  /// `first` is outside the workload or not the first query of its class.
  int ClassOfFirst(int first) const;

  const CatalogReader& catalog_;
  const CompressedWorkload& fold_;
  /// Per-class sorted base-table dependency sets, fixed at construction.
  std::vector<std::vector<TableId>> query_tables_;

  mutable Mutex mu_;
  std::unordered_map<std::string, CacheEntry> cache_ PARINDA_GUARDED_BY(mu_);
  /// Per-class (params signature, cost) of the base design.
  std::vector<std::pair<std::string, double>> base_ PARINDA_GUARDED_BY(mu_);
  EvaluatorStats stats_ PARINDA_GUARDED_BY(mu_);
  /// Optional byte-budget governor; Touch calls happen *outside* mu_ (lock
  /// order: governor before evaluator — the eviction callback re-enters
  /// EraseCacheEntry, which takes mu_ under the governor's lock).
  CacheGovernor* governor_ = nullptr;
  int governor_shard_ = 0;
};

}  // namespace parinda

#endif  // PARINDA_ENGINE_WORKLOAD_EVALUATOR_H_
