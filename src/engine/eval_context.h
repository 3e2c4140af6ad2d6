#ifndef PARINDA_ENGINE_EVAL_CONTEXT_H_
#define PARINDA_ENGINE_EVAL_CONTEXT_H_

#include "common/deadline.h"
#include "common/status.h"
#include "optimizer/cost_params.h"

namespace parinda {

/// The evaluation context every advisor threads through the engine: cost
/// model parameters, the degree of candidate-evaluation parallelism, and the
/// anytime budget (deadline + optional cooperative cancellation).
///
/// Advisors build one from their own options struct and pass it to
/// `WorkloadEvaluator` / `InumBank` calls, so deadline discipline and cost
/// parameters are enforced in exactly one layer instead of being re-wired in
/// each advisor's private planner loop. The options structs keep their own
/// `Deadline` members — an EvalContext is derived state, not a replacement
/// for the public API.
///
/// Memory budgets are deliberately *not* part of this context: a
/// CacheGovernor (DESIGN.md §14) attaches to the caches it governs via
/// `set_governor`, because budget state is owned by whoever owns the caches
/// (the session or advisor), not by each evaluation call.
struct EvalContext {
  CostParams params;
  /// Worker threads for candidate evaluation; 0 = one per core, 1 = serial.
  int parallelism = 0;
  Deadline deadline;
  const CancellationToken* cancellation = nullptr;
};

/// Budget expiry and cancellation degrade gracefully (anytime contract);
/// every other error propagates. Shared by all advisors' fallback ladders.
inline bool IsBudgetError(const Status& status) {
  return status.code() == StatusCode::kDeadlineExceeded ||
         status.code() == StatusCode::kCancelled;
}

}  // namespace parinda

#endif  // PARINDA_ENGINE_EVAL_CONTEXT_H_
