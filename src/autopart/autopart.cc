#include "autopart/autopart.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "common/failpoint.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "optimizer/query_analysis.h"

namespace parinda {

PARINDA_REGISTER_FAILPOINT("autopart.evaluate");

namespace {

/// Sorted, deduplicated column set union.
std::vector<ColumnId> UnionColumns(const std::vector<ColumnId>& a,
                                   const std::vector<ColumnId>& b) {
  std::set<ColumnId> merged(a.begin(), a.end());
  merged.insert(b.begin(), b.end());
  return {merged.begin(), merged.end()};
}

double ColumnBytes(const TableInfo& table, ColumnId col) {
  const ColumnStats* stats = table.StatsFor(col);
  const double width =
      stats != nullptr
          ? stats->avg_width
          : (TypeFixedSize(table.schema.column(col).type) > 0
                 ? TypeFixedSize(table.schema.column(col).type)
                 : table.schema.column(col).declared_avg_width);
  return width * std::max(0.0, table.row_count);
}

}  // namespace

AutoPartAdvisor::AutoPartAdvisor(const CatalogReader& catalog,
                                 const Workload& workload,
                                 AutoPartOptions options)
    : catalog_(catalog),
      workload_(workload),
      options_(options),
      // Folds duplicate queries (same normalized text, same stats scope)
      // into one class each (DESIGN.md §15). Never changes the advice: the
      // engine expands totals and per-query outputs back over the original
      // queries in their original order.
      fold_([&] {
        PARINDA_TRACE_SPAN("autopart.compress");
        return CompressWorkload(catalog, workload);
      }()),
      ctx_{options_.params, options_.parallelism, options_.deadline, nullptr},
      evaluator_(catalog_, fold_) {
  if (options_.memory_budget_bytes > 0) {
    governor_ = std::make_unique<CacheGovernor>(
        MemoryBudget{options_.memory_budget_bytes});
    evaluator_shard_ =
        governor_->RegisterShard("evaluator", [this](const std::string& id) {
          evaluator_.EraseCacheEntry(id);
        });
    evaluator_.set_governor(governor_.get(), evaluator_shard_);
  }
}

Result<std::vector<FragmentDef>> AutoPartAdvisor::AtomicFragments(
    TableId table) const {
  const TableInfo* info = catalog_.GetTable(table);
  if (info == nullptr) {
    return Status::NotFound("no table with id " + std::to_string(table));
  }
  // Column usage signature: the set of queries reading the column.
  std::map<ColumnId, std::vector<int>> signature;
  for (ColumnId c = 0; c < info->schema.num_columns(); ++c) {
    signature[c] = {};
  }
  // One analysis per fold class; each class records its ORIGINAL member
  // ids, so the signatures — and with them the fragment grouping and
  // ordering — are exactly those of the unfolded workload.
  for (int q = 0; q < fold_.workload.size(); ++q) {
    PARINDA_ASSIGN_OR_RETURN(
        AnalyzedQuery analyzed,
        AnalyzeQuery(catalog_, fold_.workload.queries[q].stmt));
    const std::vector<int>& members =
        fold_.expansion.members[static_cast<size_t>(q)];
    for (size_t r = 0; r < analyzed.tables.size(); ++r) {
      if (analyzed.tables[r]->id != table) continue;
      for (ColumnId c : analyzed.referenced_columns[r]) {
        signature[c].insert(signature[c].end(), members.begin(),
                            members.end());
      }
    }
  }
  // Primary-key columns ride along with every fragment; exclude them from
  // the partitioning domain.
  const std::set<ColumnId> pk(info->primary_key.begin(),
                              info->primary_key.end());
  std::map<std::vector<int>, std::vector<ColumnId>> groups;
  for (auto& [col, sig] : signature) {
    if (pk.count(col) > 0) continue;
    std::sort(sig.begin(), sig.end());
    sig.erase(std::unique(sig.begin(), sig.end()), sig.end());
    groups[sig].push_back(col);
  }
  std::vector<FragmentDef> out;
  for (auto& [sig, cols] : groups) {
    FragmentDef def;
    def.table = table;
    def.columns = cols;
    out.push_back(std::move(def));
  }
  return out;
}

Result<double> AutoPartAdvisor::EvaluateState(
    const std::vector<TableState>& state, std::vector<double>* per_query,
    std::vector<std::string>* rewritten_sql) {
  PARINDA_FAILPOINT("autopart.evaluate");
  PartitionEvalOptions opts;
  // The final (reporting) pass wants rewritten SQL under the stable
  // `<table>_part<k>` names MaterializePartitions will create, so the saved
  // rewritten workload runs against the materialized design as-is; the
  // engine does the full work for that pass instead of serving its cache.
  opts.stable_names = rewritten_sql != nullptr;
  return evaluator_.EvaluatePartitioning(state, ctx_, opts, per_query,
                                         rewritten_sql);
}

double AutoPartAdvisor::ReplicatedBytes(
    const std::vector<TableState>& state) const {
  double replicated = 0.0;
  for (const TableState& ts : state) {
    const TableInfo* table = catalog_.GetTable(ts.table);
    if (table == nullptr) continue;
    double pk_bytes = 0.0;
    for (ColumnId pk : table->primary_key) {
      pk_bytes += ColumnBytes(*table, pk);
    }
    // One PK copy is the table's own; each extra fragment replicates it.
    if (!ts.fragments.empty()) {
      replicated += pk_bytes * static_cast<double>(ts.fragments.size() - 1);
    }
    std::map<ColumnId, int> copies;
    for (const auto& frag : ts.fragments) {
      for (ColumnId col : frag) copies[col] += 1;
    }
    for (const auto& [col, count] : copies) {
      if (count > 1) {
        replicated += ColumnBytes(*table, col) * static_cast<double>(count - 1);
      }
    }
  }
  return replicated;
}

Result<PartitionAdvice> AutoPartAdvisor::Suggest() {
  const auto fp_before = failpoint::AllHits();
  const int64_t evictions_before =
      governor_ != nullptr ? governor_->stats().evictions : 0;
  // Budget-forced eviction degraded the run to extra planner calls (the
  // advice itself is unaffected); note it in whichever report we return.
  auto note_evictions = [&](DegradationReport* rep) {
    if (governor_ != nullptr &&
        governor_->stats().evictions > evictions_before) {
      rep->AddFallback("engine:cache-evicted");
    }
  };
  DegradationReport report;
  PartitionAdvice advice;
  advice.per_query_base.assign(static_cast<size_t>(workload_.size()), 0.0);
  advice.per_query_optimized.assign(static_cast<size_t>(workload_.size()), 0.0);
  advice.rewritten_sql.assign(static_cast<size_t>(workload_.size()), "");

  // Best-effort return when the budget runs out before the search can even
  // start (or never catches up): the un-partitioned base design — always
  // feasible — with whatever cost information exists so far.
  auto base_design = [&](DegradationReport rep) {
    advice.optimized_cost = advice.base_cost;
    advice.per_query_optimized = advice.per_query_base;
    for (int q = 0; q < workload_.size(); ++q) {
      advice.rewritten_sql[q] = workload_.queries[q].sql;
    }
    advice.fragments.clear();
    advice.replicated_bytes = 0.0;
    advice.evaluations = static_cast<int>(evaluator_.stats().evaluations);
    note_evictions(&rep);
    rep.failpoint_hits = failpoint::HitsSince(fp_before);
    advice.degradation = std::move(rep);
    return advice;
  };

  // Base cost: the un-partitioned design, through the engine's base-cost
  // cache (a repeated Suggest() on the same advisor re-plans nothing).
  {
    PhaseTimer timer(&report, "base", "autopart.base");
    double total = 0.0;
    for (int q = 0; q < workload_.size(); ++q) {
      if (options_.deadline.Expired()) {
        report.AddFallback("base:truncated");
        advice.base_cost = total;
        timer.Stop();
        return base_design(std::move(report));
      }
      PARINDA_ASSIGN_OR_RETURN(const double cost,
                               evaluator_.BaseCost(RepOf(q), ctx_));
      advice.per_query_base[q] = cost;
      total += cost * workload_.queries[q].weight;
    }
    advice.base_cost = total;
  }

  // Tables referenced by the workload.
  std::set<TableId> tables;
  for (const WorkloadQuery& query : workload_.queries) {
    for (const TableRef& ref : query.stmt.from) {
      tables.insert(ref.bound_table);
    }
  }

  // Initial state: atomic fragments per table.
  std::vector<TableState> state;
  for (TableId table : tables) {
    PARINDA_ASSIGN_OR_RETURN(std::vector<FragmentDef> atomics,
                             AtomicFragments(table));
    TableState ts;
    ts.table = table;
    for (FragmentDef& def : atomics) {
      ts.fragments.push_back(std::move(def.columns));
    }
    if (!ts.fragments.empty()) state.push_back(std::move(ts));
  }

  double current_cost = 0.0;
  {
    auto initial = EvaluateState(state, nullptr, nullptr);
    if (!initial.ok()) {
      if (!IsBudgetError(initial.status())) return initial.status();
      report.AddFallback("initial-eval:truncated");
      return base_design(std::move(report));
    }
    current_cost = *initial;
  }
  // Keep the un-partitioned design when atomic partitioning already loses.
  // (The search below can only improve on `state`, not return to base.)
  const bool base_wins_initially = advice.base_cost < current_cost;

  // Composite-candidate pool per table: atomic fragments plus the per-query
  // usage sets (the column group each query reads as a whole) — AutoPart's
  // composite fragments correspond to query access patterns, not just
  // pairwise atomic unions.
  std::map<TableId, std::vector<std::vector<ColumnId>>> composites_of;
  for (const TableState& ts : state) {
    composites_of[ts.table] = ts.fragments;  // atomics
  }
  // Fold classes come in first-occurrence order, so the (deduplicated) pool
  // sequence matches the unfolded scan.
  for (const WorkloadQuery& query : fold_.workload.queries) {
    PARINDA_ASSIGN_OR_RETURN(AnalyzedQuery analyzed,
                             AnalyzeQuery(catalog_, query.stmt));
    for (size_t r = 0; r < analyzed.tables.size(); ++r) {
      auto it = composites_of.find(analyzed.tables[r]->id);
      if (it == composites_of.end()) continue;
      const TableInfo* table = analyzed.tables[r];
      const std::set<ColumnId> pk(table->primary_key.begin(),
                                  table->primary_key.end());
      std::vector<ColumnId> usage;
      for (ColumnId col : analyzed.referenced_columns[r]) {
        if (pk.count(col) == 0) usage.push_back(col);
      }
      std::sort(usage.begin(), usage.end());
      if (!usage.empty() &&
          std::find(it->second.begin(), it->second.end(), usage) ==
              it->second.end()) {
        it->second.push_back(usage);
      }
    }
  }

  // Applies a composite candidate to one table's state, either replicating
  // (add, keep existing) or merging (drop fragments the union covers).
  auto apply_candidate = [](std::vector<TableState>* target, size_t si,
                            const std::vector<ColumnId>& merged,
                            bool replicate) {
    TableState& ts = (*target)[si];
    if (replicate) {
      ts.fragments.push_back(merged);
      return;
    }
    std::vector<std::vector<ColumnId>> kept;
    for (const auto& frag : ts.fragments) {
      const bool covered = std::includes(merged.begin(), merged.end(),
                                         frag.begin(), frag.end());
      if (!covered) kept.push_back(frag);
    }
    kept.push_back(merged);
    ts.fragments = std::move(kept);
  };

  const int parallelism = ResolveParallelism(options_.parallelism);
  bool search_truncated = false;
  PhaseTimer search_timer(&report, "search", "autopart.search");
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    // Per-iteration budget check (serial decision point): stop and keep the
    // best selection found so far.
    if (options_.deadline.Expired()) {
      report.AddFallback("autopart:search-truncated");
      search_truncated = true;
      break;
    }
    advice.iterations_run = iter + 1;
    struct Move {
      size_t state_index = 0;
      std::vector<ColumnId> merged;
      bool replicate = false;
      std::vector<TableState> trial;
    };
    // Phase 1 (serial): enumerate this iteration's trial states, in the
    // same order and under the same candidate cap as the original serial
    // search. Trials over the replication limit are rejected here, before
    // any evaluation is spent on them.
    std::vector<Move> moves;
    int candidates = 0;
    for (size_t si = 0; si < state.size() &&
                        candidates < options_.max_candidates_per_iteration;
         ++si) {
      TableState& ts = state[si];
      const auto& pool = composites_of[ts.table];
      // Candidate unions: each selected fragment extended by each pool
      // entry, plus each pool entry on its own.
      std::vector<std::vector<ColumnId>> unions = pool;
      for (const auto& frag : ts.fragments) {
        for (const auto& composite : pool) {
          unions.push_back(UnionColumns(frag, composite));
        }
      }
      std::sort(unions.begin(), unions.end());
      unions.erase(std::unique(unions.begin(), unions.end()), unions.end());
      for (const auto& merged : unions) {
        if (candidates >= options_.max_candidates_per_iteration) break;
        // Skip no-ops: the union already exists as a fragment.
        if (std::find(ts.fragments.begin(), ts.fragments.end(), merged) !=
            ts.fragments.end()) {
          continue;
        }
        ++candidates;
        for (const bool replicate : {false, true}) {
          std::vector<TableState> trial = state;
          apply_candidate(&trial, si, merged, replicate);
          if (ReplicatedBytes(trial) > options_.replication_limit_bytes) {
            continue;
          }
          moves.push_back(Move{si, merged, replicate, std::move(trial)});
        }
      }
    }
    // Phase 2 (parallel): cost every trial into its own pre-sized slot.
    // Each evaluation builds a private what-if overlay over the shared
    // read-only catalog, so workers never touch common mutable state.
    std::vector<double> trial_cost(moves.size(), 0.0);
    Status eval = ParallelFor(
        parallelism, static_cast<int>(moves.size()), [&](int m) -> Status {
          PARINDA_ASSIGN_OR_RETURN(
              trial_cost[m], EvaluateState(moves[m].trial, nullptr, nullptr));
          return Status::OK();
        });
    if (!eval.ok()) {
      if (!IsBudgetError(eval)) return eval;
      // Mid-iteration expiry: the trial costs are incomplete, so no move
      // from this round can be applied safely; keep the previous state.
      report.AddFallback("autopart:search-truncated");
      search_truncated = true;
      break;
    }
    // Phase 3 (serial): pick the winner by scanning in enumeration order —
    // the exact selection rule (and tie-breaking) of the serial search, so
    // the chosen design is identical at any parallelism.
    const Move* best_move = nullptr;
    double best_cost = current_cost;
    for (size_t m = 0; m < moves.size(); ++m) {
      if (trial_cost[m] < best_cost * (1.0 - options_.min_improvement)) {
        best_cost = trial_cost[m];
        best_move = &moves[m];
      }
    }
    if (best_move == nullptr) break;
    apply_candidate(&state, best_move->state_index, best_move->merged,
                    best_move->replicate);
    current_cost = best_cost;
  }

  search_timer.Stop();
  (void)search_truncated;

  // Final evaluation with per-query outputs.
  double final_cost = 0.0;
  {
    PhaseTimer timer(&report, "final", "autopart.final");
    auto final_eval =
        EvaluateState(state, &advice.per_query_optimized,
                      &advice.rewritten_sql);
    if (!final_eval.ok()) {
      if (!IsBudgetError(final_eval.status())) return final_eval.status();
      // No budget left to re-cost the winning state; report the search's
      // own cost estimate and leave the per-query/rewrite fields at their
      // base values (the fragments themselves are still the best found).
      report.AddFallback("final-eval:truncated");
      timer.Stop();
      advice.optimized_cost = current_cost;
      advice.per_query_optimized = advice.per_query_base;
      for (int q = 0; q < workload_.size(); ++q) {
        advice.rewritten_sql[q] = workload_.queries[q].sql;
      }
      advice.replicated_bytes = ReplicatedBytes(state);
      for (const TableState& ts : state) {
        for (const auto& frag : ts.fragments) {
          FragmentDef def;
          def.table = ts.table;
          def.columns = frag;
          advice.fragments.push_back(std::move(def));
        }
      }
      advice.evaluations = static_cast<int>(evaluator_.stats().evaluations);
      note_evictions(&report);
      report.failpoint_hits = failpoint::HitsSince(fp_before);
      advice.degradation = std::move(report);
      return advice;
    }
    final_cost = *final_eval;
  }
  if (base_wins_initially && advice.base_cost < final_cost) {
    // Partitioning never caught up with the original design: suggest nothing.
    return base_design(std::move(report));
  }
  advice.optimized_cost = final_cost;
  advice.replicated_bytes = ReplicatedBytes(state);
  for (const TableState& ts : state) {
    for (const auto& frag : ts.fragments) {
      FragmentDef def;
      def.table = ts.table;
      def.columns = frag;
      advice.fragments.push_back(std::move(def));
    }
  }
  advice.evaluations = static_cast<int>(evaluator_.stats().evaluations);
  note_evictions(&report);
  report.failpoint_hits = failpoint::HitsSince(fp_before);
  advice.degradation = std::move(report);
  return advice;
}

}  // namespace parinda
