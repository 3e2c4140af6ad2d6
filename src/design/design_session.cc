#include "design/design_session.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "catalog/stats_io.h"
#include "common/check.h"
#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "optimizer/planner.h"

namespace parinda {

PARINDA_REGISTER_FAILPOINT("design.evaluate");

namespace {

bool Intersects(const std::vector<TableId>& tables,
                const std::vector<TableId>& touched) {
  for (TableId t : touched) {
    if (std::find(tables.begin(), tables.end(), t) != tables.end()) {
      return true;
    }
  }
  return false;
}

}  // namespace

DesignSession::DesignSession(const CatalogReader& catalog,
                             const Workload* workload,
                             DesignSessionOptions options)
    : catalog_(catalog), workload_(workload), options_(options) {
  if (options_.memory_budget_bytes > 0) {
    governor_ = std::make_unique<CacheGovernor>(
        MemoryBudget{options_.memory_budget_bytes});
    // Callbacks capture `this`: RebuildQueryStates swaps the caches out, so
    // they must re-check liveness rather than capture the caches directly.
    evaluator_shard_ =
        governor_->RegisterShard("evaluator", [this](const std::string& id) {
          if (evaluator_ != nullptr) evaluator_->EraseCacheEntry(id);
        });
    bank_shard_ =
        governor_->RegisterShard("inum_bank", [this](const std::string& id) {
          if (inum_bank_ != nullptr) {
            inum_bank_->EvictSlot(
                static_cast<int>(std::strtol(id.c_str(), nullptr, 10)));
          }
        });
  }
  overlay_ = std::make_unique<ComposedOverlay>(catalog_, options_.params);
  PARINDA_CHECK_OK(overlay_->Compose({}));
  RebuildQueryStates();
}

DesignSession::~DesignSession() = default;

Result<OverlayId> DesignSession::AddIndex(WhatIfIndexDef def) {
  return AddComponent(MakeIndexOverlay(std::move(def)));
}

Result<OverlayId> DesignSession::AddPartition(WhatIfPartitionDef def) {
  return AddComponent(MakeTableOverlay(std::move(def)));
}

Result<OverlayId> DesignSession::AddRangePartitioning(RangePartitionDef def) {
  return AddComponent(MakeRangePartitionOverlay(std::move(def)));
}

Result<OverlayId> DesignSession::AddJoinFlags(WhatIfJoinDef def) {
  return AddComponent(MakeJoinFlagsOverlay(def));
}

Result<OverlayId> DesignSession::AddComponent(
    std::unique_ptr<OverlayComponent> component) {
  const std::vector<char> was_pending = PendingSnapshot();
  entries_.push_back(Entry{next_id_, std::move(component)});
  Status composed = Recompose();
  if (!composed.ok()) {
    // Eager validation: nothing was added, overlay_ still matches entries_.
    entries_.pop_back();
    return composed;
  }
  CountInvalidations(was_pending);
  return next_id_++;
}

Status DesignSession::Drop(OverlayId id) {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [id](const Entry& e) { return e.id == id; });
  if (it == entries_.end()) {
    return Status::NotFound("no design feature with id " + std::to_string(id));
  }
  const std::vector<char> was_pending = PendingSnapshot();
  const size_t pos = static_cast<size_t>(it - entries_.begin());
  Entry removed = std::move(*it);
  entries_.erase(it);
  Status composed = Recompose();
  if (!composed.ok()) {
    // E.g. dropping a partition while an index on its fragment remains.
    entries_.insert(entries_.begin() + static_cast<ptrdiff_t>(pos),
                    std::move(removed));
    PARINDA_CHECK_OK(Recompose());
    return composed;
  }
  CountInvalidations(was_pending);
  return Status::OK();
}

void DesignSession::ClearDesign() {
  if (entries_.empty()) return;
  const std::vector<char> was_pending = PendingSnapshot();
  entries_.clear();
  PARINDA_CHECK_OK(Recompose());
  CountInvalidations(was_pending);
}

void DesignSession::SetWorkload(const Workload* workload) {
  workload_ = workload;
  RebuildQueryStates();
}

Status DesignSession::Recompose() {
  auto candidate = std::make_unique<ComposedOverlay>(catalog_, options_.params);
  std::vector<const OverlayComponent*> components;
  components.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    components.push_back(entry.component.get());
  }
  PARINDA_RETURN_IF_ERROR(candidate->Compose(components));
  overlay_ = std::move(candidate);
  // The engine's view of the design: one unit per component, in insertion
  // order. Touched tables resolve through the *composed* catalog (an index
  // on a what-if fragment depends on the fragment's base parent).
  units_.clear();
  nonindex_units_.clear();
  for (const Entry& entry : entries_) {
    OverlayUnit unit;
    unit.tables = entry.component->TouchedTables(overlay_->catalog());
    std::sort(unit.tables.begin(), unit.tables.end());
    unit.signature = std::string(OverlayKindName(entry.component->kind())) +
                     ":" + entry.component->Signature();
    if (entry.component->kind() != OverlayKind::kIndex) {
      nonindex_units_.push_back(unit);
    }
    units_.push_back(std::move(unit));
  }
  return Status::OK();
}

void DesignSession::RebuildQueryStates() {
  queries_.clear();
  evaluator_.reset();
  inum_bank_.reset();
  if (governor_ != nullptr) {
    // The caches just vanished wholesale; drop their tracked entries without
    // firing the eviction callbacks.
    governor_->ForgetShard(evaluator_shard_);
    governor_->ForgetShard(bank_shard_);
  }
  fold_ = workload_ == nullptr ? CompressedWorkload{}
                               : CompressWorkload(catalog_, *workload_);
  if (workload_ != nullptr) {
    evaluator_ = std::make_unique<WorkloadEvaluator>(catalog_, fold_);
    inum_bank_ = std::make_unique<InumBank>(catalog_, fold_);
    if (governor_ != nullptr) {
      evaluator_->set_governor(governor_.get(), evaluator_shard_);
      inum_bank_->set_governor(governor_.get(), bank_shard_);
    }
  }
  queries_.resize(fold_.workload.queries.size());
  for (size_t q = 0; q < queries_.size(); ++q) {
    QueryState& qs = queries_[q];
    // First-reference order (not the evaluator's sorted sets): the INUM
    // configuration below is assembled in this order, as it always was.
    for (const TableRef& ref : fold_.workload.queries[q].stmt.from) {
      if (ref.bound_table == kInvalidTableId) continue;
      if (std::find(qs.tables.begin(), qs.tables.end(), ref.bound_table) ==
          qs.tables.end()) {
        qs.tables.push_back(ref.bound_table);
      }
    }
  }
}

std::string DesignSession::CurrentKey(int q) const {
  return evaluator_->KeyFor(q, units_, options_.params);
}

std::string DesignSession::CurrentNonIndexKey(int q) const {
  return evaluator_->KeyFor(q, nonindex_units_, options_.params);
}

bool DesignSession::Pending(int q) const {
  const QueryState& qs = queries_[static_cast<size_t>(q)];
  return !qs.has_value || qs.stored_key != CurrentKey(q);
}

std::vector<char> DesignSession::PendingSnapshot() const {
  std::vector<char> pending(queries_.size(), 0);
  for (size_t q = 0; q < queries_.size(); ++q) {
    pending[q] = Pending(static_cast<int>(q)) ? 1 : 0;
  }
  return pending;
}

void DesignSession::CountInvalidations(const std::vector<char>& was_pending) {
  static metrics::Counter& invalidations =
      metrics::Registry::Global().counter("design.invalidations");
  for (size_t q = 0; q < queries_.size(); ++q) {
    if (!was_pending[q] && Pending(static_cast<int>(q))) {
      invalidations.Increment();
    }
  }
}

bool DesignSession::InumEligible(int q, const QueryState& qs) const {
  // Every delta since the stored cost must have been an index delta...
  if (!qs.has_value || qs.stored_nonindex_key != CurrentNonIndexKey(q)) {
    return false;
  }
  // ...and no table/range component may sit on any of this query's tables:
  // those change the catalog content (or the rewrite) of the queries they
  // touch, and INUM models the base catalog.
  for (const Entry& entry : entries_) {
    const OverlayKind kind = entry.component->kind();
    if (kind != OverlayKind::kTable && kind != OverlayKind::kRangePartition) {
      continue;
    }
    const std::vector<TableId> touched =
        entry.component->TouchedTables(overlay_->catalog());
    if (touched.empty() || Intersects(qs.tables, touched)) return false;
  }
  return true;
}

Result<double> DesignSession::InumRecost(int q, const QueryState& qs) {
  // The bank rebuilds the model when the composed params changed (join-flag
  // deltas); the session never arms a deadline here — INUM recosting is the
  // cheap path, and budget policing happens per query in Evaluate().
  PARINDA_ASSIGN_OR_RETURN(InumCostModel * model,
                           inum_bank_->Model(q, overlay_->params(), nullptr));
  // The configuration the full path would see: the real indexes plus this
  // design's what-if indexes, per referenced table.
  std::vector<const IndexInfo*> config;
  for (TableId t : qs.tables) {
    for (const IndexInfo* index : catalog_.TableIndexes(t)) {
      config.push_back(index);
    }
    for (const IndexInfo* index : overlay_->index_set().IndexesFor(t)) {
      config.push_back(index);
    }
  }
  return model->EstimateCost(config);
}

Result<InteractiveReport> DesignSession::Evaluate() {
  PARINDA_FAILPOINT("design.evaluate");
  const auto fp_before = failpoint::AllHits();
  DegradationReport degradation;
  const int64_t plans_before = Planner::stats().plans_built;
  const int64_t evictions_before =
      governor_ != nullptr ? governor_->stats().evictions : 0;
  last_eval_inum_recosts_ = 0;

  // The base and what-if loops run once per fold class; the report expands
  // over the original queries below.
  const int nq = static_cast<int>(queries_.size());

  // Budget expiry stops re-costing mid-way: finished queries report fresh
  // costs, the rest keep their previous (possibly zero) values and remain
  // pending, so a later Evaluate() with a fresh budget completes them.
  bool truncated = false;

  const EvalContext base_ctx{options_.params, /*parallelism=*/0,
                             options_.deadline, nullptr};
  {
    PhaseTimer timer(&degradation, "base", "design.base");
    for (int q = 0; q < nq; ++q) {
      QueryState& qs = queries_[static_cast<size_t>(q)];
      if (qs.has_base) continue;
      // Cached costs are served even after the deadline fires; only a cache
      // miss (a planner call) checks the budget.
      if (const auto cached = evaluator_->CachedBaseCost(q, options_.params);
          cached.has_value()) {
        qs.base_cost = *cached;
        qs.has_base = true;
        continue;
      }
      if (options_.deadline.Expired()) {
        truncated = true;
        break;
      }
      Result<double> base = evaluator_->BaseCost(q, base_ctx);
      if (!base.ok()) return base.status();
      qs.base_cost = *base;
      qs.has_base = true;
    }
  }

  PhaseTimer whatif_timer(&degradation, "whatif", "design.whatif");
  for (int q = 0; q < nq; ++q) {
    QueryState& qs = queries_[static_cast<size_t>(q)];
    const std::string key = CurrentKey(q);
    if (qs.has_value && qs.stored_key == key) continue;
    if (truncated || options_.deadline.Expired()) {
      truncated = true;
      break;
    }
    static metrics::Counter& eval_incremental =
        metrics::Registry::Global().counter("design.eval_incremental");
    static metrics::Counter& eval_full =
        metrics::Registry::Global().counter("design.eval_full");
    bool served = false;
    if (options_.inum_index_deltas && InumEligible(q, qs)) {
      // Index deltas never change the rewrite, so the cached rewritten_sql
      // (set by the prior full evaluation) stays correct. INUM's recomposed
      // cost is approximate and therefore never enters the engine's exact
      // cost cache — it lives only in this session's per-query state.
      Result<double> cost = InumRecost(q, qs);
      if (cost.ok()) {
        qs.whatif_cost = *cost;
        ++last_eval_inum_recosts_;
        eval_incremental.Increment();
        served = true;
      }
      // On INUM failure (e.g. a query shape it cannot model) fall through to
      // the exact path rather than failing the evaluation.
    }
    if (!served) {
      eval_full.Increment();
      WorkloadEvaluator::OverlayView view;
      view.catalog = &overlay_->catalog();
      view.fragments = &overlay_->fragments();
      view.hooks = &overlay_->hooks();
      view.params = overlay_->params();
      PARINDA_ASSIGN_OR_RETURN(WorkloadEvaluator::QueryEval eval,
                               evaluator_->EvaluateQuery(q, view, key));
      qs.whatif_cost = eval.cost;
      qs.rewritten_sql = std::move(eval.rewritten_sql);
    }
    qs.has_value = true;
    qs.stored_key = key;
    qs.stored_nonindex_key = CurrentNonIndexKey(q);
  }
  whatif_timer.Stop();
  if (truncated) degradation.AddFallback("evaluate:truncated");

  // Aggregation expands the classes over the ORIGINAL queries in ascending
  // order, each weighted by its own weight, and replicates the stateless
  // evaluation's summation order exactly (benefit folded in as computed):
  // the report is bit-identical to an unfolded one, and a warmed session's
  // report is bit-identical to a fresh one's (DESIGN.md §15).
  const WorkloadExpansion& ex = fold_.expansion;
  const int n = ex.original_size();
  InteractiveReport report;
  report.per_query_base.assign(static_cast<size_t>(n), 0.0);
  report.per_query_optimized.assign(static_cast<size_t>(n), 0.0);
  report.per_query_benefit_pct.assign(static_cast<size_t>(n), 0.0);
  report.rewritten_sql.assign(static_cast<size_t>(n), "");
  for (int q = 0; q < n; ++q) {
    const size_t c = static_cast<size_t>(ex.representative[q]);
    const double base = queries_[c].has_base ? queries_[c].base_cost : 0.0;
    report.per_query_base[static_cast<size_t>(q)] = base;
    report.base_cost += base * ex.weights[static_cast<size_t>(q)];
  }
  for (int q = 0; q < n; ++q) {
    const size_t c = static_cast<size_t>(ex.representative[q]);
    const QueryState& qs = queries_[c];
    const double weight = ex.weights[static_cast<size_t>(q)];
    report.per_query_optimized[static_cast<size_t>(q)] = qs.whatif_cost;
    report.optimized_cost += qs.whatif_cost * weight;
    // An unchanged rewrite is the representative's own text; every member
    // reports its own text instead (members share normalized SQL, not
    // necessarily spelling).
    report.rewritten_sql[static_cast<size_t>(q)] =
        qs.rewritten_sql == fold_.workload.queries[c].sql
            ? workload_->queries[static_cast<size_t>(q)].sql
            : qs.rewritten_sql;
    if (report.per_query_base[static_cast<size_t>(q)] > 0.0) {
      report.per_query_benefit_pct[static_cast<size_t>(q)] =
          100.0 *
          (report.per_query_base[static_cast<size_t>(q)] -
           report.per_query_optimized[static_cast<size_t>(q)]) /
          report.per_query_base[static_cast<size_t>(q)];
    }
    report.average_benefit_pct +=
        report.per_query_benefit_pct[static_cast<size_t>(q)];
  }
  if (n > 0) report.average_benefit_pct /= n;

  // Eviction during this evaluation means the budget forced re-planning
  // somewhere: costs are still exact, but the run degraded to more planner
  // calls — worth surfacing alongside budget truncation.
  if (governor_ != nullptr &&
      governor_->stats().evictions > evictions_before) {
    degradation.AddFallback("engine:cache-evicted");
  }

  last_eval_planner_calls_ = Planner::stats().plans_built - plans_before;
  degradation.failpoint_hits = failpoint::HitsSince(fp_before);
  report.degradation = std::move(degradation);
  return report;
}

SpillScope DesignSession::ComputeSpillScope() const {
  // Everything a cached cost depends on besides the key itself: the exact
  // cost parameters, the catalog statistics the planner read, and the
  // workload text and weights the query indexes refer to.
  SpillScope scope;
  scope.params_sig = ParamsSignature(options_.params);
  uint32_t crc = Crc32Update(0, DumpCatalogStats(catalog_));
  if (workload_ != nullptr) {
    for (const WorkloadQuery& query : workload_->queries) {
      crc = Crc32Update(crc, query.sql);
      crc = Crc32Update(crc, "\n");
      uint64_t weight_bits = 0;
      std::memcpy(&weight_bits, &query.weight, sizeof(weight_bits));
      char buf[20];
      std::snprintf(buf, sizeof(buf), "%016llx",
                    static_cast<unsigned long long>(weight_bits));
      crc = Crc32Update(crc, buf);
      crc = Crc32Update(crc, "\n");
    }
  }
  scope.scope_crc = crc;
  return scope;
}

Status DesignSession::SaveCache(const std::string& path) const {
  if (workload_ == nullptr || evaluator_ == nullptr) {
    return Status::FailedPrecondition(
        "SaveCache requires a workload (the cache is keyed by query index)");
  }
  return SaveCacheSpill(path, ComputeSpillScope(),
                        evaluator_->ExportCacheRecords(), options_.deadline);
}

Result<SpillLoadReport> DesignSession::LoadCache(const std::string& path) {
  if (workload_ == nullptr || evaluator_ == nullptr) {
    return Status::FailedPrecondition(
        "LoadCache requires a workload (the cache is keyed by query index)");
  }
  std::vector<CostCacheRecord> records;
  PARINDA_ASSIGN_OR_RETURN(
      SpillLoadReport report,
      LoadCacheSpill(path, ComputeSpillScope(), &records, options_.deadline));
  for (const CostCacheRecord& record : records) {
    PARINDA_RETURN_IF_ERROR(evaluator_->ImportCacheRecord(record));
  }
  return report;
}

std::vector<DesignSession::ComponentEntry> DesignSession::Components() const {
  std::vector<ComponentEntry> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    ComponentEntry e;
    e.id = entry.id;
    e.kind = entry.component->kind();
    e.description = entry.component->Describe(overlay_->catalog());
    out.push_back(std::move(e));
  }
  return out;
}

int DesignSession::pending_queries() const {
  int pending = 0;
  for (size_t q = 0; q < queries_.size(); ++q) {
    if (Pending(static_cast<int>(q))) {
      pending += static_cast<int>(fold_.expansion.members[q].size());
    }
  }
  return pending;
}

}  // namespace parinda
