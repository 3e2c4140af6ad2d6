#ifndef PARINDA_ADVISOR_INDEX_ADVISOR_H_
#define PARINDA_ADVISOR_INDEX_ADVISOR_H_

#include <limits>
#include <map>
#include <memory>
#include <vector>

#include "advisor/benefit_matrix.h"
#include "advisor/candidates.h"
#include "catalog/catalog.h"
#include "common/deadline.h"
#include "common/status.h"
#include "engine/advice.h"
#include "engine/eval_context.h"
#include "engine/inum_bank.h"
#include "inum/inum.h"
#include "optimizer/cost_params.h"
#include "solver/bnb.h"
#include "whatif/whatif_index.h"
#include "workload/compress.h"
#include "workload/workload.h"

namespace parinda {

struct IndexAdvisorOptions {
  /// "Total extra space that the generated indexes can occupy on the disk"
  /// (paper §4, automatic index suggestion scenario).
  double storage_budget_bytes = std::numeric_limits<double>::infinity();
  CandidateOptions candidates;
  CostParams params;
  MipOptions mip;
  /// Expected rows updated/inserted per table over one workload execution.
  /// Every index on an updated table pays a maintenance cost (paper §3.4:
  /// the ILP carries "other user-supplied constraints, such as constraints
  /// on the total size of the design features, and their update costs").
  std::map<TableId, double> update_rows;
  /// Ablation switch: pretend every what-if index occupies zero pages — the
  /// Monteiro et al. flaw the paper calls out ("they do not compute the size
  /// of the indexes accurately, and assume it to be zero. This severely
  /// affects the accuracy"). Benchmark E2 uses this to show budget blowups.
  bool simulate_zero_size_indexes = false;
  /// Worker threads for the benefit-matrix computation (per-query INUM
  /// model construction plus the query x candidate fill). 1 = serial on the
  /// calling thread; 0 = one worker per hardware thread. The advice is
  /// bit-identical at any setting: each worker owns one query's cost model
  /// and writes only that query's pre-sized matrix row.
  int parallelism = 0;
  /// Time budget for the whole suggestion pipeline (enumeration, benefit
  /// matrix, solve, report). On expiry the advisor degrades instead of
  /// failing: full ILP -> ILP incumbent -> greedy selection over whatever
  /// part of the benefit matrix was filled, with per-phase checks made at
  /// serial decision points so the ladder fires identically at any
  /// `parallelism`. The default infinite deadline reproduces the un-budgeted
  /// advice bit-identically. See DESIGN.md §10.
  Deadline deadline;
};

/// One suggested index with its report fields (Figure 3's per-index view).
struct SuggestedIndex {
  WhatIfIndexDef def;
  double size_bytes = 0.0;
  /// Decomposed workload benefit this index contributed in the model.
  double benefit = 0.0;
  /// Ongoing maintenance cost charged for this index (update_rows model).
  double maintenance_cost = 0.0;
  /// Query indices whose final configuration uses this index ("for each
  /// query the list of the used suggested indexes is mentioned").
  std::vector<int> used_by;
};

/// Output of the automatic index suggestion scenario. The cost summary
/// (base/optimized totals, per-query breakdown, degradation ladder) is the
/// shared AdviceSummary.
struct IndexAdvice : AdviceSummary {
  std::vector<SuggestedIndex> indexes;
  double total_size_bytes = 0.0;
  /// Sum of maintenance costs of the selected indexes.
  double total_maintenance_cost = 0.0;
  /// True when the ILP solver proved optimality of its model.
  bool proved_optimal = false;
  int optimizer_calls = 0;
  int inum_estimates = 0;
};

/// The automatic index suggestion component (paper §3.4): candidate
/// generation, INUM-based benefit computation, and either the ILP technique
/// of Papadomanolakis & Ailamaki (SMDB'07) solved by the branch-and-bound
/// solver, or a greedy benefit-per-byte baseline (the strategy of the
/// commercial tools the paper contrasts with).
class IndexAdvisor {
 public:
  /// The workload must be bound against `catalog`; both must outlive this.
  IndexAdvisor(const CatalogReader& catalog, const Workload& workload,
               IndexAdvisorOptions options = {});
  ~IndexAdvisor();

  IndexAdvisor(const IndexAdvisor&) = delete;
  IndexAdvisor& operator=(const IndexAdvisor&) = delete;

  /// ILP selection: one access path per table per query, storage budget,
  /// exact branch-and-bound solve.
  [[nodiscard]] Result<IndexAdvice> SuggestWithIlp();

  /// Greedy baseline: repeatedly add the candidate with the best
  /// benefit-per-byte under the current configuration (interaction-aware,
  /// DTA-style — the strongest greedy).
  [[nodiscard]] Result<IndexAdvice> SuggestWithGreedy();

  /// Classic static greedy: ranks candidates once by their precomputed
  /// stand-alone benefit per byte and packs the budget, never re-evaluating
  /// interactions. This is the heuristic family the ILP technique is shown
  /// to beat ("ILP outperforms the greedy algorithms", paper §3.4): it
  /// double-counts overlapping indexes on the same table.
  [[nodiscard]] Result<IndexAdvice> SuggestWithStaticGreedy();

  /// The candidate pool (after Prepare; exposed for tests/benches).
  [[nodiscard]] Result<std::vector<const IndexInfo*>> Candidates();

 private:
  [[nodiscard]] Status Prepare();
  /// Prepare() that converts budget expiry into degradation instead of an
  /// error: on kDeadlineExceeded/kCancelled the advisor keeps whatever part
  /// of the benefit matrix was filled (`row_complete_` per query) and marks
  /// `report` degraded. Real errors still propagate.
  [[nodiscard]] Status PrepareBestEffort(DegradationReport* report);
  /// Maintenance cost of building candidate j under options_.update_rows.
  double MaintenanceCost(int j) const;
  /// INUM estimate of query q's cost under `config`.
  [[nodiscard]] Result<double> QueryCost(int q, const std::vector<const IndexInfo*>& config);
  /// Fills report fields given the selected set. When the budget has
  /// expired (or expires while finishing), per-query optimized costs are
  /// estimated from the benefit matrix instead of fresh INUM calls
  /// ("finish:matrix-estimate" fallback recorded in `report`).
  [[nodiscard]] Result<IndexAdvice> FinishAdvice(
      const std::vector<const IndexInfo*>& selected,
      const std::vector<double>& model_benefit, bool proved_optimal,
      DegradationReport report);
  /// The matrix-only finish used when no further model calls fit the budget.
  IndexAdvice FinishAdviceFromMatrix(
      const std::vector<const IndexInfo*>& selected,
      const std::vector<double>& model_benefit, bool proved_optimal,
      DegradationReport report);
  /// Static-greedy selection over the (possibly partial) benefit matrix;
  /// shared by SuggestWithStaticGreedy and the degradation ladder.
  void SelectStaticGreedy(std::vector<const IndexInfo*>* selected,
                          std::vector<double>* selected_benefit) const;

  /// Fold class of original query `orig`.
  int RepOf(int orig) const {
    return fold_.expansion.representative[static_cast<size_t>(orig)];
  }
  /// Weight of original query `orig`.
  double WeightOf(int orig) const {
    return fold_.expansion.weights[static_cast<size_t>(orig)];
  }
  int OriginalSize() const { return fold_.expansion.original_size(); }

  const CatalogReader& catalog_;
  const Workload& workload_;
  IndexAdvisorOptions options_;
  /// Derived from options_; threaded through the engine's INUM bank.
  EvalContext ctx_;

  bool prepared_ = false;
  /// False when the budget truncated candidate enumeration or the matrix
  /// fill; `row_complete_` says which query rows are trustworthy.
  bool prep_complete_ = true;
  /// The fold of `workload_`, taken in Prepare(): the models and the matrix
  /// are built per fold class, and reports expand back over `workload_`.
  CompressedWorkload fold_;
  std::unique_ptr<WhatIfIndexSet> candidate_set_;
  std::vector<const IndexInfo*> candidates_;
  /// Engine-owned per-class INUM models (slot-disjoint for ParallelFor);
  /// built in Prepare() over `fold_`.
  std::unique_ptr<InumBank> bank_;
  std::vector<double> base_cost_;  // per fold class
  /// benefit_.Get(q, j): unweighted stand-alone gain of candidate j for
  /// fold class q (consumers multiply by query weight at use).
  BenefitMatrix benefit_;
  /// row_complete_[q]: query q's model, base cost and benefit row were
  /// fully computed before the budget ran out (char, not bool: each worker
  /// writes only its own slot).
  std::vector<char> row_complete_;
  /// Failpoint hit counts at pipeline start; Finish* reports the delta.
  std::vector<std::pair<std::string, int64_t>> fp_snapshot_;
};

}  // namespace parinda

#endif  // PARINDA_ADVISOR_INDEX_ADVISOR_H_
