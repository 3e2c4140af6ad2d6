#include "advisor/index_advisor.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "solver/lp.h"

namespace parinda {

PARINDA_REGISTER_FAILPOINT("advisor.matrix");
PARINDA_REGISTER_FAILPOINT("advisor.solve");

namespace {

constexpr double kBenefitEps = 1e-6;

}  // namespace

IndexAdvisor::IndexAdvisor(const CatalogReader& catalog,
                           const Workload& workload,
                           IndexAdvisorOptions options)
    : catalog_(catalog),
      workload_(workload),
      options_(options),
      ctx_{options_.params, options_.parallelism, options_.deadline,
           nullptr} {}

IndexAdvisor::~IndexAdvisor() = default;

Status IndexAdvisor::Prepare() {
  if (prepared_) return Status::OK();
  // Fold duplicate (text, stats-scope) queries before building any model:
  // engine costs are pure functions of the fold key, so one representative
  // with the summed weight covers every member exactly (DESIGN.md §15) — the
  // advice, every reported double included, is bit-identical to one model
  // per original query.
  {
    PARINDA_TRACE_SPAN("advisor.compress");
    fold_ = CompressWorkload(catalog_, workload_);
  }
  CandidateOptions cand_options = options_.candidates;
  cand_options.deadline = options_.deadline;
  PARINDA_ASSIGN_OR_RETURN(
      std::vector<WhatIfIndexDef> defs,
      GenerateCandidateIndexes(catalog_, fold_.workload, cand_options));
  // Enumeration truncates (returns a smaller pool) rather than erroring.
  if (options_.deadline.Expired()) prep_complete_ = false;
  candidate_set_ = std::make_unique<WhatIfIndexSet>(catalog_);
  for (const WhatIfIndexDef& def : defs) {
    PARINDA_ASSIGN_OR_RETURN(IndexId id, candidate_set_->AddIndex(def));
    if (options_.simulate_zero_size_indexes) {
      IndexInfo* info = candidate_set_->GetMutable(id);
      info->leaf_pages = 0.0;
      info->tree_height = 0;
    }
    candidates_.push_back(candidate_set_->Get(id));
  }

  const int nq = fold_.workload.size();
  const int nc = static_cast<int>(candidates_.size());
  bank_ = std::make_unique<InumBank>(catalog_, fold_);
  // Pre-sized per-query slots: each worker builds and owns query q's cost
  // model (the bank's slot-disjoint contract) and writes only base_cost_[q]
  // / benefit_ row q, so the matrix is bit-identical under any parallelism
  // (the catalog and the candidate IndexInfo records are shared read-only).
  // No mutex and no PARINDA_GUARDED_BY: the slots are disjoint by
  // construction, and WaitAll()'s pool mutex is the one happens-before edge
  // the readers need before the serial selection scan.
  base_cost_.assign(static_cast<size_t>(nq), 0.0);
  benefit_.Reset(nq, nc);
  row_complete_.assign(static_cast<size_t>(nq), 0);
  Status fill = ParallelFor(
      ResolveParallelism(ctx_.parallelism), nq, [&](int q) -> Status {
        PARINDA_FAILPOINT("advisor.matrix");
        // Workers observe the shared budget; an expired deadline fails the
        // row, and ParallelFor's cancel-on-error drains the rest promptly.
        PARINDA_ASSIGN_OR_RETURN(
            InumCostModel * model,
            bank_->Model(q, ctx_.params, &options_.deadline));
        PARINDA_ASSIGN_OR_RETURN(base_cost_[q], model->EstimateCost({}));
        // Tables of this query, to skip irrelevant candidates fast.
        std::set<TableId> tables;
        for (const TableRef& ref : fold_.workload.queries[q].stmt.from) {
          tables.insert(ref.bound_table);
        }
        for (int j = 0; j < nc; ++j) {
          if (tables.count(candidates_[j]->table_id) == 0) continue;
          PARINDA_ASSIGN_OR_RETURN(double cost,
                                   model->EstimateCost({candidates_[j]}));
          const double gain = base_cost_[q] - cost;
          if (gain > kBenefitEps) benefit_.Set(q, j, gain);
        }
        row_complete_[q] = 1;
        return Status::OK();
      });
  metrics::Registry::Global()
      .gauge("advisor.sparse_nnz")
      .Set(static_cast<double>(benefit_.NonZeros()));
  if (!fill.ok()) {
    if (!IsBudgetError(fill)) return fill;
    // Out of budget mid-matrix: keep the complete rows, degrade the rest.
    prep_complete_ = false;
  }
  prepared_ = true;
  return fill;
}

Status IndexAdvisor::PrepareBestEffort(DegradationReport* report) {
  fp_snapshot_ = failpoint::AllHits();
  PhaseTimer timer(report, "prepare", "advisor.prepare");
  Status status = Prepare();
  if (status.ok()) {
    if (!prep_complete_) report->AddFallback("enumerate:truncated");
    return Status::OK();
  }
  if (IsBudgetError(status)) {
    report->AddFallback("matrix:truncated");
    return Status::OK();
  }
  return status;
}

double IndexAdvisor::MaintenanceCost(int j) const {
  auto it = options_.update_rows.find(candidates_[j]->table_id);
  if (it == options_.update_rows.end() || it->second <= 0.0) return 0.0;
  const double rows = it->second;
  // Each updated row inserts/moves one index entry (CPU) and dirties leaf
  // pages — at most one page write per update, capped by the index size.
  return rows * options_.params.cpu_index_tuple_cost +
         std::min(rows, candidates_[j]->leaf_pages) *
             options_.params.random_page_cost;
}

Result<std::vector<const IndexInfo*>> IndexAdvisor::Candidates() {
  PARINDA_RETURN_IF_ERROR(Prepare());
  return candidates_;
}

Result<double> IndexAdvisor::QueryCost(
    int q, const std::vector<const IndexInfo*>& config) {
  return bank_->Get(q)->EstimateCost(config);
}

IndexAdvice IndexAdvisor::FinishAdviceFromMatrix(
    const std::vector<const IndexInfo*>& selected,
    const std::vector<double>& model_benefit, bool proved_optimal,
    DegradationReport report) {
  IndexAdvice advice;
  advice.proved_optimal = proved_optimal;
  const int nq = OriginalSize();
  advice.per_query_base.assign(static_cast<size_t>(nq), 0.0);
  advice.per_query_optimized.assign(static_cast<size_t>(nq), 0.0);
  std::map<const IndexInfo*, int> candidate_index;
  for (size_t j = 0; j < candidates_.size(); ++j) {
    candidate_index[candidates_[j]] = static_cast<int>(j);
  }
  std::map<const IndexInfo*, std::vector<int>> used_by;
  // Per ORIGINAL query, using its representative's matrix row: the weighted
  // benefit is recomputed from the same operands (gain, weight) the
  // uncompressed run stores, so the estimate — division included — carries
  // the exact same bits.
  for (int q = 0; q < nq; ++q) {
    const int rep = RepOf(q);
    const double w_q = WeightOf(q);
    const double weight = std::max(kBenefitEps, w_q);
    // Estimate from the stand-alone benefit matrix: per table, the best
    // selected candidate serves the query (one access path per table); no
    // fresh model calls. Incomplete rows carry zero benefit, so their
    // estimate stays at the (possibly unfilled) base cost.
    std::map<TableId, std::pair<double, const IndexInfo*>> best_per_table;
    for (const IndexInfo* index : selected) {
      const double weighted = benefit_.Get(rep, candidate_index[index]) * w_q;
      const double gain = weighted / weight;
      if (gain <= kBenefitEps) continue;
      auto [it, inserted] =
          best_per_table.try_emplace(index->table_id, gain, index);
      if (!inserted && gain > it->second.first) it->second = {gain, index};
    }
    double optimized = base_cost_[rep];
    for (const auto& [table, best] : best_per_table) {
      optimized -= best.first;
      used_by[best.second].push_back(q);
    }
    optimized = std::max(0.0, optimized);
    advice.per_query_base[q] = base_cost_[rep];
    advice.per_query_optimized[q] = optimized;
    advice.base_cost += base_cost_[rep] * w_q;
    advice.optimized_cost += optimized * w_q;
  }
  for (size_t s = 0; s < selected.size(); ++s) {
    SuggestedIndex suggestion;
    suggestion.def.name = selected[s]->name;
    suggestion.def.table = selected[s]->table_id;
    suggestion.def.columns = selected[s]->columns;
    suggestion.def.unique = selected[s]->unique;
    suggestion.size_bytes = selected[s]->SizeBytes();
    suggestion.benefit = s < model_benefit.size() ? model_benefit[s] : 0.0;
    suggestion.used_by = used_by[selected[s]];
    suggestion.maintenance_cost = MaintenanceCost(candidate_index[selected[s]]);
    advice.total_size_bytes += suggestion.size_bytes;
    advice.total_maintenance_cost += suggestion.maintenance_cost;
    advice.indexes.push_back(std::move(suggestion));
  }
  // Bank totals skip rows whose model never started within the budget.
  advice.optimizer_calls = bank_->TotalOptimizerCalls();
  advice.inum_estimates = bank_->TotalEstimatesServed();
  report.degraded = true;
  report.failpoint_hits = failpoint::HitsSince(fp_snapshot_);
  advice.degradation = std::move(report);
  return advice;
}

Result<IndexAdvice> IndexAdvisor::FinishAdvice(
    const std::vector<const IndexInfo*>& selected,
    const std::vector<double>& model_benefit, bool proved_optimal,
    DegradationReport report) {
  // The exact finish re-costs every query against the selected set (plus a
  // leave-one-out pass for used_by) — too expensive once the budget is
  // spent, and impossible when the matrix fill was truncated (missing
  // per-query models). Fall back to the matrix-only estimate then.
  if (!prep_complete_ || options_.deadline.Expired()) {
    report.AddFallback("finish:matrix-estimate");
    return FinishAdviceFromMatrix(selected, model_benefit, proved_optimal,
                                  std::move(report));
  }
  PhaseTimer timer(&report, "finish", "advisor.finish");
  IndexAdvice advice;
  advice.proved_optimal = proved_optimal;
  const int n_eval = fold_.workload.size();
  const int nq = OriginalSize();
  // Pass 1 over the eval workload: one model call per fold class (plus the
  // leave-one-out pass for used_by) — this is where compression pays.
  std::vector<double> eval_cost(static_cast<size_t>(n_eval), 0.0);
  std::vector<std::vector<char>> eval_uses(
      selected.size(), std::vector<char>(static_cast<size_t>(n_eval), 0));
  Status status = [&]() -> Status {
    for (int q = 0; q < n_eval; ++q) {
      PARINDA_ASSIGN_OR_RETURN(double cost, QueryCost(q, selected));
      eval_cost[q] = cost;
      // An index is "used by q" when dropping it makes q more expensive.
      for (size_t s = 0; s < selected.size(); ++s) {
        std::vector<const IndexInfo*> without;
        for (const IndexInfo* other : selected) {
          if (other != selected[s]) without.push_back(other);
        }
        PARINDA_ASSIGN_OR_RETURN(double cost_without, QueryCost(q, without));
        if (cost_without > cost + kBenefitEps) {
          eval_uses[s][static_cast<size_t>(q)] = 1;
        }
      }
    }
    return Status::OK();
  }();
  if (!status.ok()) {
    if (!IsBudgetError(status)) return status;
    timer.Stop();
    report.AddFallback("finish:matrix-estimate");
    return FinishAdviceFromMatrix(selected, model_benefit, proved_optimal,
                                  std::move(report));
  }
  // Pass 2 over the ORIGINAL queries in ascending order: totals accumulate
  // the representative costs with the original weights — the exact addition
  // sequence of the uncompressed run.
  advice.per_query_base.assign(static_cast<size_t>(nq), 0.0);
  advice.per_query_optimized.assign(static_cast<size_t>(nq), 0.0);
  std::map<const IndexInfo*, std::vector<int>> used_by;
  for (int q = 0; q < nq; ++q) {
    const int rep = RepOf(q);
    const double w_q = WeightOf(q);
    advice.per_query_base[q] = base_cost_[rep];
    advice.per_query_optimized[q] = eval_cost[rep];
    advice.base_cost += base_cost_[rep] * w_q;
    advice.optimized_cost += eval_cost[rep] * w_q;
    for (size_t s = 0; s < selected.size(); ++s) {
      if (eval_uses[s][static_cast<size_t>(rep)] != 0) {
        used_by[selected[s]].push_back(q);
      }
    }
  }
  for (size_t s = 0; s < selected.size(); ++s) {
    SuggestedIndex suggestion;
    suggestion.def.name = selected[s]->name;
    suggestion.def.table = selected[s]->table_id;
    suggestion.def.columns = selected[s]->columns;
    suggestion.def.unique = selected[s]->unique;
    suggestion.size_bytes = selected[s]->SizeBytes();
    suggestion.benefit = s < model_benefit.size() ? model_benefit[s] : 0.0;
    suggestion.used_by = used_by[selected[s]];
    for (size_t j = 0; j < candidates_.size(); ++j) {
      if (candidates_[j] == selected[s]) {
        suggestion.maintenance_cost = MaintenanceCost(static_cast<int>(j));
        break;
      }
    }
    advice.total_size_bytes += suggestion.size_bytes;
    advice.total_maintenance_cost += suggestion.maintenance_cost;
    advice.indexes.push_back(std::move(suggestion));
  }
  advice.optimizer_calls = bank_->TotalOptimizerCalls();
  advice.inum_estimates = bank_->TotalEstimatesServed();
  timer.Stop();
  report.failpoint_hits = failpoint::HitsSince(fp_snapshot_);
  advice.degradation = std::move(report);
  return advice;
}

void IndexAdvisor::SelectStaticGreedy(
    std::vector<const IndexInfo*>* selected,
    std::vector<double>* selected_benefit) const {
  const int nq = OriginalSize();
  const int nc = static_cast<int>(candidates_.size());
  // Stand-alone benefit of each candidate, accumulated over the ORIGINAL
  // queries in ascending order (each adding its representative's gain times
  // its own weight) — the same addition sequence as the uncompressed dense
  // scan, minus the bitwise-neutral zero terms.
  std::vector<double> score(static_cast<size_t>(nc), 0.0);
  for (int q = 0; q < nq; ++q) {
    const int rep = RepOf(q);
    const double w_q = WeightOf(q);
    benefit_.ForEachInRow(
        rep, [&](int j, double gain) { score[j] += gain * w_q; });
  }
  for (int j = 0; j < nc; ++j) score[j] -= MaintenanceCost(j);
  std::vector<int> order;
  for (int j = 0; j < nc; ++j) {
    if (score[j] > kBenefitEps) order.push_back(j);
  }
  const bool budgeted = std::isfinite(options_.storage_budget_bytes);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const double da =
        budgeted ? score[a] / std::max(1.0, candidates_[a]->SizeBytes())
                 : score[a];
    const double db =
        budgeted ? score[b] / std::max(1.0, candidates_[b]->SizeBytes())
                 : score[b];
    return da > db;
  });
  double used_bytes = 0.0;
  for (int j : order) {
    const double size = candidates_[j]->SizeBytes();
    if (budgeted && used_bytes + size > options_.storage_budget_bytes) {
      continue;
    }
    selected->push_back(candidates_[j]);
    selected_benefit->push_back(score[j]);
    used_bytes += size;
  }
}

Result<IndexAdvice> IndexAdvisor::SuggestWithIlp() {
  DegradationReport report;
  PARINDA_RETURN_IF_ERROR(PrepareBestEffort(&report));
  PARINDA_FAILPOINT("advisor.solve");
  // Degradation ladder, rung 3 (no budget left for the ILP at all): greedy
  // selection over whatever part of the benefit matrix was filled.
  if (!prep_complete_ || options_.deadline.Expired()) {
    report.AddFallback("ilp:greedy-fallback");
    std::vector<const IndexInfo*> selected;
    std::vector<double> selected_benefit;
    SelectStaticGreedy(&selected, &selected_benefit);
    return FinishAdviceFromMatrix(selected, selected_benefit,
                                  /*proved_optimal=*/false, std::move(report));
  }
  const int nq = fold_.workload.size();
  const int nc = static_cast<int>(candidates_.size());

  // Variables: x_j (build index j) for j in [0, nc); then y_{q,j} for every
  // positive-benefit pair of the EVAL workload — under compression one
  // variable covers a whole fold class (its coefficient carries the summed
  // weight), which is what shrinks the ILP.
  LinearProgram lp;
  lp.objective.assign(static_cast<size_t>(nc), 0.0);
  // Building an index costs maintenance whether or not a query uses it.
  for (int j = 0; j < nc; ++j) lp.objective[j] = -MaintenanceCost(j);
  struct PairVar {
    int q;
    int j;
    int var;
  };
  std::vector<PairVar> pairs;
  std::map<std::pair<int, int>, int> pair_var;  // (eval q, j) -> var
  for (int q = 0; q < nq; ++q) {
    const double w_q = fold_.workload.queries[static_cast<size_t>(q)].weight;
    benefit_.ForEachInRow(q, [&](int j, double gain) {
      const double weighted = gain * w_q;
      if (weighted <= kBenefitEps) return;
      const int var = static_cast<int>(lp.objective.size());
      lp.objective.push_back(weighted);
      pairs.push_back({q, j, var});
      pair_var[{q, j}] = var;
    });
  }
  // y_{q,j} <= x_j.
  for (const PairVar& pair : pairs) {
    lp.AddConstraint({{{pair.var, 1.0}, {pair.j, -1.0}}, 0.0});
  }
  // Accuracy constraints: one access path per table per query (paper §3.4).
  std::map<std::pair<int, TableId>, std::vector<int>> per_table;
  for (const PairVar& pair : pairs) {
    per_table[{pair.q, candidates_[pair.j]->table_id}].push_back(pair.var);
  }
  for (const auto& [key, vars] : per_table) {
    if (vars.size() < 2) continue;
    LinearProgram::Constraint row;
    for (int var : vars) row.terms.push_back({var, 1.0});
    row.rhs = 1.0;
    lp.AddConstraint(std::move(row));
  }
  // Storage budget over the x_j.
  if (std::isfinite(options_.storage_budget_bytes)) {
    LinearProgram::Constraint row;
    for (int j = 0; j < nc; ++j) {
      row.terms.push_back({j, candidates_[j]->SizeBytes()});
    }
    row.rhs = options_.storage_budget_bytes;
    lp.AddConstraint(std::move(row));
  }

  BinaryMip mip;
  mip.lp = std::move(lp);
  MipOptions mip_options = options_.mip;
  mip_options.deadline = options_.deadline;
  MipSolution solution;
  {
    PhaseTimer timer(&report, "solve", "advisor.solve");
    PARINDA_ASSIGN_OR_RETURN(solution, SolveBinaryMip(mip, mip_options));
  }
  if (solution.degraded) {
    if (!solution.feasible) {
      // Rung 3 again: the budget expired before any incumbent was found.
      report.AddFallback("ilp:greedy-fallback");
      std::vector<const IndexInfo*> selected;
      std::vector<double> selected_benefit;
      SelectStaticGreedy(&selected, &selected_benefit);
      return FinishAdviceFromMatrix(selected, selected_benefit,
                                    /*proved_optimal=*/false,
                                    std::move(report));
    }
    // Rung 2: the truncated search still holds a feasible incumbent.
    report.AddFallback("ilp:incumbent");
  } else if (!solution.feasible) {
    return Status::SolverError("index-selection ILP is infeasible");
  }
  std::vector<const IndexInfo*> selected;
  std::vector<double> model_benefit;
  const int n_orig = OriginalSize();
  for (int j = 0; j < nc; ++j) {
    if (solution.values[j] == 1) {
      selected.push_back(candidates_[j]);
      // Decomposed benefit, expanded back over the ORIGINAL queries in
      // ascending order so the reported per-index benefit matches the
      // uncompressed pair-order accumulation bit for bit.
      double b = 0.0;
      for (int q = 0; q < n_orig; ++q) {
        auto it = pair_var.find({RepOf(q), j});
        if (it != pair_var.end() && solution.values[it->second] == 1) {
          b += benefit_.Get(RepOf(q), j) * WeightOf(q);
        }
      }
      model_benefit.push_back(b);
    }
  }
  // Drop zero-contribution indexes the solver may have set freely.
  std::vector<const IndexInfo*> pruned;
  std::vector<double> pruned_benefit;
  for (size_t s = 0; s < selected.size(); ++s) {
    if (model_benefit[s] > kBenefitEps) {
      pruned.push_back(selected[s]);
      pruned_benefit.push_back(model_benefit[s]);
    }
  }
  return FinishAdvice(pruned, pruned_benefit, solution.proved_optimal,
                      std::move(report));
}

Result<IndexAdvice> IndexAdvisor::SuggestWithStaticGreedy() {
  DegradationReport report;
  PARINDA_RETURN_IF_ERROR(PrepareBestEffort(&report));
  std::vector<const IndexInfo*> selected;
  std::vector<double> selected_benefit;
  SelectStaticGreedy(&selected, &selected_benefit);
  return FinishAdvice(selected, selected_benefit, /*proved_optimal=*/false,
                      std::move(report));
}

Result<IndexAdvice> IndexAdvisor::SuggestWithGreedy() {
  DegradationReport report;
  PARINDA_RETURN_IF_ERROR(PrepareBestEffort(&report));
  // Without a complete matrix the interaction-aware search has no per-query
  // models to consult; degrade to the static ranking.
  if (!prep_complete_ || options_.deadline.Expired()) {
    report.AddFallback("greedy:static-fallback");
    std::vector<const IndexInfo*> selected;
    std::vector<double> selected_benefit;
    SelectStaticGreedy(&selected, &selected_benefit);
    return FinishAdviceFromMatrix(selected, selected_benefit,
                                  /*proved_optimal=*/false, std::move(report));
  }
  const int n_eval = fold_.workload.size();
  const int nq = OriginalSize();
  const int nc = static_cast<int>(candidates_.size());
  std::vector<const IndexInfo*> selected;
  std::vector<double> selected_benefit;
  std::vector<bool> in_set(static_cast<size_t>(nc), false);
  std::vector<double> current_cost = base_cost_;  // per eval query
  double used_bytes = 0.0;
  const bool budgeted = std::isfinite(options_.storage_budget_bytes);

  bool truncated = false;
  while (!truncated) {
    // Anytime cut: keep the selection built so far.
    if (options_.deadline.Expired()) {
      report.AddFallback("greedy:truncated");
      break;
    }
    int best = -1;
    double best_score = 0.0;
    double best_gain = 0.0;
    std::vector<double> best_costs;
    for (int j = 0; j < nc && !truncated; ++j) {
      if (in_set[j]) continue;
      const double size = candidates_[j]->SizeBytes();
      if (budgeted && used_bytes + size > options_.storage_budget_bytes) {
        continue;
      }
      std::vector<const IndexInfo*> trial = selected;
      trial.push_back(candidates_[j]);
      // Model calls once per fold class; the gain then accumulates over the
      // ORIGINAL queries in ascending order (the uncompressed run's exact
      // addition sequence), so the greedy's tie-free decisions match it.
      std::vector<double> costs(static_cast<size_t>(n_eval), 0.0);
      for (int q = 0; q < n_eval; ++q) {
        auto cost = QueryCost(q, trial);
        if (!cost.ok()) {
          if (!IsBudgetError(cost.status())) return cost.status();
          report.AddFallback("greedy:truncated");
          truncated = true;
          break;
        }
        costs[q] = *cost;
      }
      if (truncated) break;
      double gain = -MaintenanceCost(j);
      for (int q = 0; q < nq; ++q) {
        const int rep = RepOf(q);
        gain += (current_cost[rep] - costs[rep]) * WeightOf(q);
      }
      if (gain <= kBenefitEps) continue;
      const double score = budgeted ? gain / std::max(1.0, size) : gain;
      if (score > best_score) {
        best = j;
        best_score = score;
        best_gain = gain;
        best_costs = std::move(costs);
      }
    }
    if (truncated || best < 0) break;
    in_set[best] = true;
    selected.push_back(candidates_[best]);
    selected_benefit.push_back(best_gain);
    used_bytes += candidates_[best]->SizeBytes();
    current_cost = std::move(best_costs);
  }
  return FinishAdvice(selected, selected_benefit, /*proved_optimal=*/false,
                      std::move(report));
}

}  // namespace parinda
