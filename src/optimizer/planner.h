#ifndef PARINDA_OPTIMIZER_PLANNER_H_
#define PARINDA_OPTIMIZER_PLANNER_H_

#include <cstdint>

#include "catalog/catalog.h"
#include "common/status.h"
#include "optimizer/cost_params.h"
#include "optimizer/hooks.h"
#include "optimizer/plan.h"
#include "parser/ast.h"

namespace parinda {

/// Planner configuration.
struct PlannerOptions {
  CostParams params;
  /// Optional hook registry; what-if layers install their hooks here.
  const HookRegistry* hooks = nullptr;
  /// Relations up to which exhaustive System-R dynamic programming is used;
  /// larger FROM lists fall back to a greedy left-deep search.
  int max_dp_rels = 10;
};

/// Process-wide planner instrumentation. Every PlanQuery call increments
/// `plans_built` — including the calls INUM issues internally while filling
/// its cache — so incremental-vs-full evaluation strategies are assertable
/// in tests and reportable in benches. The counter is atomic (the parallel
/// advisor evaluation layer plans from worker threads).
class Planner {
 public:
  struct Stats {
    int64_t plans_built = 0;
  };

  /// Snapshot of the counters; tests and benches isolate measurement
  /// windows by differencing two snapshots.
  static Stats stats();
};

/// Plans a *bound* SELECT statement (see BindStatement) into a physical plan
/// with PostgreSQL-style costs. The statement must outlive the returned
/// plan (plan nodes alias its expressions).
[[nodiscard]] Result<Plan> PlanQuery(const CatalogReader& catalog,
                       const SelectStatement& stmt,
                       const PlannerOptions& options = {});

/// True when the statement computes aggregates (GROUP BY or aggregate
/// functions in the SELECT list).
bool StatementHasAggregates(const SelectStatement& stmt);

}  // namespace parinda

#endif  // PARINDA_OPTIMIZER_PLANNER_H_
