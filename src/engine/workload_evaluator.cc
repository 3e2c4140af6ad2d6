#include "engine/workload_evaluator.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <utility>

#include "common/memsize.h"
#include "common/metrics.h"
#include "optimizer/planner.h"
#include "rewriter/rewriter.h"
#include "whatif/whatif_table.h"

namespace parinda {

namespace {

// Process-wide mirrors of the per-instance EvaluatorStats, so cache
// effectiveness shows up in `stats` and the bench JSON exports without an
// evaluator in hand. Instruments only — decisions never read them back.
metrics::Counter& EvaluationsCounter() {
  static metrics::Counter& counter =
      metrics::Registry::Global().counter("engine.evaluations");
  return counter;
}
metrics::Counter& CacheHitsCounter() {
  static metrics::Counter& counter =
      metrics::Registry::Global().counter("engine.cache_hits");
  return counter;
}
metrics::Counter& CacheMissesCounter() {
  static metrics::Counter& counter =
      metrics::Registry::Global().counter("engine.cache_misses");
  return counter;
}
/// Statements the engine rewrote onto fragments (each is planned next).
metrics::Counter& RewritesCounter() {
  static metrics::Counter& counter =
      metrics::Registry::Global().counter("engine.rewrites");
  return counter;
}

void AppendHexDouble(std::string* out, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(bits));
  *out += buf;
}

/// Approximate heap bytes one cache entry costs, as the governor accounts
/// them: the map node, the key, and the entry's owned strings.
int64_t EntryBytes(const std::string& key, const std::string& rewritten_sql) {
  return kMapNodeOverheadBytes + ApproxStringBytes(key) +
         ApproxStringBytes(rewritten_sql) + static_cast<int64_t>(sizeof(double));
}

/// Splits a synthetic `base:<q>|<sig>` export key. Returns false for
/// overlay-cache keys (and anything malformed).
bool ParseBaseKey(std::string_view key, int* q, std::string_view* sig) {
  constexpr std::string_view kPrefix = "base:";
  if (key.substr(0, kPrefix.size()) != kPrefix) return false;
  key.remove_prefix(kPrefix.size());
  const size_t bar = key.find('|');
  if (bar == std::string_view::npos || bar == 0) return false;
  int value = 0;
  for (char c : key.substr(0, bar)) {
    if (c < '0' || c > '9' || value > (1 << 24)) return false;
    value = value * 10 + (c - '0');
  }
  *q = value;
  *sig = key.substr(bar + 1);
  return true;
}

}  // namespace

std::string ParamsSignature(const CostParams& params) {
  const double doubles[] = {
      params.seq_page_cost,      params.random_page_cost,
      params.cpu_tuple_cost,     params.cpu_index_tuple_cost,
      params.cpu_operator_cost,  params.effective_cache_size,
      params.work_mem_bytes,
  };
  std::string sig;
  sig.reserve(sizeof(doubles) / sizeof(doubles[0]) * 16 + 8);
  for (double d : doubles) {
    AppendHexDouble(&sig, d);
  }
  const bool flags[] = {params.enable_seqscan,   params.enable_indexscan,
                        params.enable_nestloop,  params.enable_mergejoin,
                        params.enable_hashjoin,  params.enable_sort};
  for (bool f : flags) {
    sig += f ? '1' : '0';
  }
  return sig;
}

WorkloadEvaluator::WorkloadEvaluator(const CatalogReader& catalog,
                                     const CompressedWorkload& fold)
    : catalog_(catalog), fold_(fold) {
  const size_t classes = fold_.workload.queries.size();
  query_tables_.resize(classes);
  base_.assign(classes, {std::string(), 0.0});
  for (size_t q = 0; q < classes; ++q) {
    std::vector<TableId>& tables = query_tables_[q];
    for (const TableRef& ref : fold_.workload.queries[q].stmt.from) {
      tables.push_back(ref.bound_table);
    }
    std::sort(tables.begin(), tables.end());
    tables.erase(std::unique(tables.begin(), tables.end()), tables.end());
  }
}

const std::vector<TableId>& WorkloadEvaluator::QueryTables(int q) const {
  return query_tables_[static_cast<size_t>(q)];
}

bool WorkloadEvaluator::Touches(const std::vector<TableId>& query_tables,
                                const std::vector<TableId>& touched) {
  if (touched.empty()) return true;  // global feature (e.g. join flags)
  for (TableId t : touched) {
    if (std::binary_search(query_tables.begin(), query_tables.end(), t)) {
      return true;
    }
  }
  return false;
}

std::string WorkloadEvaluator::KeyFor(int q,
                                      const std::vector<OverlayUnit>& units,
                                      const CostParams& params) const {
  std::string key = "q";
  key += std::to_string(FirstOf(q));
  key += '|';
  key += ParamsSignature(params);
  const std::vector<TableId>& tables = QueryTables(q);
  for (const OverlayUnit& unit : units) {
    if (!Touches(tables, unit.tables)) continue;
    key += '|';
    key += unit.signature;
  }
  return key;
}

std::optional<double> WorkloadEvaluator::CachedBaseCost(
    int q, const CostParams& params) const {
  const std::string sig = ParamsSignature(params);
  MutexLock lock(mu_);
  const auto& slot = base_[static_cast<size_t>(q)];
  if (!slot.first.empty() && slot.first == sig) return slot.second;
  return std::nullopt;
}

Result<double> WorkloadEvaluator::BaseCost(int q, const EvalContext& ctx) {
  const std::string sig = ParamsSignature(ctx.params);
  bool hit = false;
  double cost = 0.0;
  {
    MutexLock lock(mu_);
    const auto& slot = base_[static_cast<size_t>(q)];
    if (!slot.first.empty() && slot.first == sig) {
      ++stats_.cache_hits;
      cost = slot.second;
      hit = true;
    }
  }
  if (hit) {
    // Counter bump (and governor Touch) intentionally outside the lock.
    CacheHitsCounter().Increment();
    if (governor_ != nullptr) {
      const std::string base_key = BaseKey(q, sig);
      PARINDA_RETURN_IF_ERROR(
          governor_->Touch(governor_shard_, base_key, EntryBytes(base_key, "")));
    }
    return cost;
  }
  PlannerOptions planner_options;
  planner_options.params = ctx.params;
  PARINDA_ASSIGN_OR_RETURN(
      Plan plan,
      PlanQuery(catalog_, fold_.workload.queries[static_cast<size_t>(q)].stmt,
                planner_options));
  cost = plan.total_cost();
  {
    MutexLock lock(mu_);
    base_[static_cast<size_t>(q)] = {sig, cost};
    ++stats_.cache_misses;
  }
  CacheMissesCounter().Increment();
  if (governor_ != nullptr) {
    const std::string base_key = BaseKey(q, sig);
    PARINDA_RETURN_IF_ERROR(
        governor_->Touch(governor_shard_, base_key, EntryBytes(base_key, "")));
  }
  return cost;
}

Result<WorkloadEvaluator::QueryEval> WorkloadEvaluator::EvaluateQuery(
    int q, const OverlayView& view, const std::string& key) {
  const WorkloadQuery& query = fold_.workload.queries[static_cast<size_t>(q)];
  if (!key.empty()) {
    bool hit = false;
    int64_t bytes = 0;
    QueryEval out;
    {
      MutexLock lock(mu_);
      auto it = cache_.find(key);
      if (it != cache_.end() && it->second.has_sql) {
        ++stats_.cache_hits;
        out.cost = it->second.cost;
        out.rewritten_sql = it->second.rewritten_sql;
        bytes = EntryBytes(key, it->second.rewritten_sql);
        hit = true;
      }
    }
    if (hit) {
      CacheHitsCounter().Increment();
      if (governor_ != nullptr) {
        PARINDA_RETURN_IF_ERROR(governor_->Touch(governor_shard_, key, bytes));
      }
      return out;
    }
  }
  PARINDA_ASSIGN_OR_RETURN(
      RewriteResult rewritten,
      RewriteForPartitions(*view.catalog, query.stmt, *view.fragments));
  RewritesCounter().Increment();
  PlannerOptions planner_options;
  planner_options.params = view.params;
  planner_options.hooks = view.hooks;
  PARINDA_ASSIGN_OR_RETURN(
      Plan plan, PlanQuery(*view.catalog, rewritten.stmt, planner_options));
  QueryEval out;
  out.cost = plan.total_cost();
  out.rewritten_sql = rewritten.changed ? rewritten.stmt.ToSql() : query.sql;
  if (!key.empty()) {
    {
      MutexLock lock(mu_);
      ++stats_.cache_misses;
      CacheEntry& entry = cache_[key];
      entry.cost = out.cost;
      entry.has_sql = true;
      entry.rewritten_sql = out.rewritten_sql;
    }
    CacheMissesCounter().Increment();
    if (governor_ != nullptr) {
      PARINDA_RETURN_IF_ERROR(governor_->Touch(
          governor_shard_, key, EntryBytes(key, out.rewritten_sql)));
    }
  }
  return out;
}

std::string WorkloadEvaluator::PlanKey(int q, const std::string& params_sig,
                                       const FragmentChoice& choice) const {
  std::string key = "plan:";
  key += std::to_string(FirstOf(q));
  key += '|';
  key += params_sig;
  auto append = [&key](const TableInfo& info) {
    if (info.parent_table == kInvalidTableId) {
      // A base table: identified by its stable catalog id.
      key += "|b:";
      key += std::to_string(info.id);
      return;
    }
    // A what-if fragment: identified by content (parent + column names),
    // not by its per-overlay id or name — statistics derive
    // deterministically from the parent and the column set, so
    // content-identical fragments cost the same in any overlay.
    key += "|f:";
    key += std::to_string(info.parent_table);
    key += ':';
    for (ColumnId c = 0; c < info.schema.num_columns(); ++c) {
      if (c > 0) key += ',';
      key += info.schema.column(c).name;
    }
  };
  for (const FragmentChoice::Range& range : choice.ranges) {
    if (range.fragments.empty()) append(*range.table);
    for (const TableInfo* fragment : range.fragments) append(*fragment);
  }
  return key;
}

Result<double> WorkloadEvaluator::EvaluatePartitioning(
    const std::vector<PartitionedTable>& design, const EvalContext& ctx,
    const PartitionEvalOptions& opts, std::vector<double>* per_query,
    std::vector<std::string>* rewritten_sql) {
  {
    MutexLock lock(mu_);
    ++stats_.evaluations;
  }
  EvaluationsCounter().Increment();
  // Per-query costs are served from the cache, except in the reporting pass
  // (stable names + rewritten SQL), which always does the full
  // rewrite-and-plan work: its fragment names cross table boundaries and its
  // SQL output is not cached.
  const bool cacheable = !opts.stable_names && rewritten_sql == nullptr;
  const std::string params_sig =
      cacheable ? ParamsSignature(ctx.params) : std::string();
  // The rewriter's fragment choice, and with it the cache key, reads the
  // fragments, so the what-if overlay is built before any lookup.
  WhatIfTableCatalog overlay(catalog_);
  std::vector<const TableInfo*> fragments;
  int global_index = 0;
  for (const PartitionedTable& entry : design) {
    const TableInfo* parent = catalog_.GetTable(entry.table);
    for (size_t k = 0; k < entry.fragments.size(); ++k) {
      WhatIfPartitionDef def;
      def.parent = entry.table;
      def.columns = entry.fragments[k];
      // Search-pass names only need to be unique within this call's private
      // overlay (table + fragment ordinal suffices); cache keys name
      // fragments by content, never by name. The reporting pass uses the
      // stable `<table>_part<k>` names MaterializePartitions will create.
      def.name = opts.stable_names
                     ? parent->name + "_part" + std::to_string(global_index)
                     : "wif_" + std::to_string(entry.table) + "_f" +
                           std::to_string(k);
      ++global_index;
      PARINDA_ASSIGN_OR_RETURN(TableId id, overlay.AddPartition(def));
      fragments.push_back(overlay.GetTable(id));
    }
  }
  PlannerOptions planner_options;
  planner_options.params = ctx.params;
  // Per-class costs are collected first and accumulated afterwards, so the
  // expansion can replay them in original-query order.
  const std::vector<WorkloadQuery>& classes = fold_.workload.queries;
  std::vector<double> eval_cost(classes.size(), 0.0);
  std::vector<std::string> eval_sql;
  if (rewritten_sql != nullptr) eval_sql.assign(classes.size(), "");
  for (int q = 0; q < static_cast<int>(classes.size()); ++q) {
    PARINDA_RETURN_IF_ERROR(ctx.deadline.CheckOk("engine.evaluate"));
    if (ctx.cancellation != nullptr) {
      PARINDA_RETURN_IF_ERROR(ctx.cancellation->CheckOk("engine.evaluate"));
    }
    const WorkloadQuery& query = classes[static_cast<size_t>(q)];
    PARINDA_ASSIGN_OR_RETURN(FragmentChoice choice,
                             ChooseFragments(overlay, query.stmt, fragments));
    // Keyed on the content of the fragments the rewriter chooses. A choice
    // reads only the fragments of the tables the class reads, so a move on
    // other tables leaves the key unchanged (the table-dependency rule), and
    // designs that differ only in fragments the rewrite ignores plan
    // identically.
    std::string key;
    if (cacheable) {
      key = PlanKey(q, params_sig, choice);
      std::optional<double> hit;
      {
        MutexLock lock(mu_);
        auto it = cache_.find(key);
        if (it != cache_.end()) {
          ++stats_.cache_hits;
          hit = it->second.cost;
        }
      }
      if (hit.has_value()) {
        CacheHitsCounter().Increment();
        if (governor_ != nullptr) {
          PARINDA_RETURN_IF_ERROR(
              governor_->Touch(governor_shard_, key, EntryBytes(key, "")));
        }
        eval_cost[static_cast<size_t>(q)] = *hit;
        continue;
      }
    }
    PARINDA_ASSIGN_OR_RETURN(RewriteResult rewritten,
                             BuildRewrite(overlay, query.stmt, choice));
    RewritesCounter().Increment();
    PARINDA_ASSIGN_OR_RETURN(
        Plan plan, PlanQuery(overlay, rewritten.stmt, planner_options));
    const double cost = plan.total_cost();
    if (cacheable) {
      {
        MutexLock lock(mu_);
        ++stats_.cache_misses;
        cache_[key].cost = cost;
      }
      CacheMissesCounter().Increment();
      if (governor_ != nullptr) {
        PARINDA_RETURN_IF_ERROR(
            governor_->Touch(governor_shard_, key, EntryBytes(key, "")));
      }
    }
    eval_cost[static_cast<size_t>(q)] = cost;
    if (rewritten_sql != nullptr) {
      eval_sql[static_cast<size_t>(q)] = rewritten.stmt.ToSql();
    }
  }
  // Totals and per-query outputs are accumulated in ORIGINAL query order:
  // each original query contributes its class's cost times its own weight,
  // which is the exact floating-point add sequence of an unfolded
  // evaluation — folded advice is bit-identical by construction (DESIGN.md
  // §15).
  const WorkloadExpansion& ex = fold_.expansion;
  double total = 0.0;
  for (int o = 0; o < ex.original_size(); ++o) {
    const size_t c =
        static_cast<size_t>(ex.representative[static_cast<size_t>(o)]);
    total += eval_cost[c] * ex.weights[static_cast<size_t>(o)];
    if (per_query != nullptr) (*per_query)[o] = eval_cost[c];
    if (rewritten_sql != nullptr) (*rewritten_sql)[o] = eval_sql[c];
  }
  return total;
}

EvaluatorStats WorkloadEvaluator::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void WorkloadEvaluator::set_governor(CacheGovernor* governor, int shard) {
  governor_ = governor;
  governor_shard_ = shard;
}

std::vector<CostCacheRecord> WorkloadEvaluator::ExportCacheRecords() const {
  std::vector<CostCacheRecord> records;
  {
    MutexLock lock(mu_);
    records.reserve(cache_.size() + base_.size());
    for (const auto& [key, entry] : cache_) {
      CostCacheRecord record;
      record.key = key;
      record.cost = entry.cost;
      record.has_sql = entry.has_sql;
      record.rewritten_sql = entry.rewritten_sql;
      records.push_back(std::move(record));
    }
    for (size_t q = 0; q < base_.size(); ++q) {
      if (base_[q].first.empty()) continue;
      CostCacheRecord record;
      record.key = BaseKey(static_cast<int>(q), base_[q].first);
      record.cost = base_[q].second;
      records.push_back(std::move(record));
    }
  }
  std::sort(records.begin(), records.end(),
            [](const CostCacheRecord& a, const CostCacheRecord& b) {
              return a.key < b.key;
            });
  return records;
}

std::string WorkloadEvaluator::BaseKey(int q, const std::string& sig) const {
  return "base:" + std::to_string(FirstOf(q)) + '|' + sig;
}

int WorkloadEvaluator::ClassOfFirst(int first) const {
  // A query outside this workload means the spill scope check was loose (it
  // matches on text, not count); a later member of a class is never a key.
  if (first >= fold_.expansion.original_size()) return -1;
  const int q = fold_.expansion.representative[static_cast<size_t>(first)];
  return FirstOf(q) == first ? q : -1;
}

Status WorkloadEvaluator::ImportCacheRecord(const CostCacheRecord& record) {
  int first = 0;
  std::string_view sig;
  int64_t bytes = 0;
  if (ParseBaseKey(record.key, &first, &sig)) {
    const int q = ClassOfFirst(first);
    if (q < 0) return Status::OK();
    {
      MutexLock lock(mu_);
      base_[static_cast<size_t>(q)] = {std::string(sig), record.cost};
    }
    bytes = EntryBytes(record.key, "");
  } else {
    {
      MutexLock lock(mu_);
      CacheEntry& entry = cache_[record.key];
      entry.cost = record.cost;
      entry.has_sql = record.has_sql;
      entry.rewritten_sql = record.rewritten_sql;
    }
    bytes = EntryBytes(record.key, record.rewritten_sql);
  }
  if (governor_ != nullptr) {
    PARINDA_RETURN_IF_ERROR(governor_->Touch(governor_shard_, record.key, bytes));
  }
  return Status::OK();
}

void WorkloadEvaluator::EraseCacheEntry(const std::string& key) {
  int first = 0;
  std::string_view sig;
  if (ParseBaseKey(key, &first, &sig)) {
    const int q = ClassOfFirst(first);
    MutexLock lock(mu_);
    if (q >= 0 && base_[static_cast<size_t>(q)].first == sig) {
      base_[static_cast<size_t>(q)] = {std::string(), 0.0};
    }
    return;
  }
  MutexLock lock(mu_);
  cache_.erase(key);
}

}  // namespace parinda
