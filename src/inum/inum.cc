#include "inum/inum.h"

#include <algorithm>
#include <cmath>

#include "common/failpoint.h"
#include "common/memsize.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "optimizer/cost_model.h"
#include "optimizer/index_match.h"
#include "optimizer/planner.h"
#include "whatif/whatif_index.h"

namespace parinda {

PARINDA_REGISTER_FAILPOINT("inum.build_entry");
PARINDA_REGISTER_FAILPOINT("inum.estimate");

namespace {

double ClampRows(double rows) { return std::max(1.0, std::ceil(rows)); }

}  // namespace

InumCostModel::InumCostModel(const CatalogReader& catalog,
                             const SelectStatement& stmt, CostParams params)
    : catalog_(catalog), stmt_(stmt), params_(params) {}

Status InumCostModel::Init() {
  PARINDA_ASSIGN_OR_RETURN(analyzed_, AnalyzeQuery(catalog_, stmt_));
  initialized_ = true;
  return Status::OK();
}

Status InumCostModel::CheckBudget(const char* what) const {
  if (deadline_ != nullptr) {
    PARINDA_RETURN_IF_ERROR(deadline_->CheckOk(what));
  }
  if (cancellation_ != nullptr) {
    PARINDA_RETURN_IF_ERROR(cancellation_->CheckOk(what));
  }
  return Status::OK();
}

Result<InumCostModel::CacheEntry> InumCostModel::BuildEntry(
    const CacheKey& key) {
  PARINDA_TRACE_SPAN("inum.build_entry");
  static metrics::Histogram& build_latency =
      metrics::Registry::Global().histogram("inum.build_entry_seconds");
  const metrics::ScopedLatency timer(&build_latency);
  // The optimizer call below is this model's expensive unit of work; gate it
  // on the budget so an expired deadline stops cold-start plan building.
  PARINDA_FAILPOINT("inum.build_entry");
  PARINDA_RETURN_IF_ERROR(CheckBudget("inum.build_entry"));
  // Inject one hypothetical order-providing index per ordered range and hide
  // everything else, so the optimizer's plan shape reflects exactly this
  // order assignment.
  WhatIfIndexSet whatif(catalog_);
  for (size_t r = 0; r < key.orders.size(); ++r) {
    if (key.orders[r] == kInvalidColumnId) continue;
    WhatIfIndexDef def;
    def.table = analyzed_.tables[r]->id;
    def.columns = {key.orders[r]};
    def.name = "inum_order_r" + std::to_string(r);
    PARINDA_ASSIGN_OR_RETURN(IndexId unused, whatif.AddIndex(def));
    (void)unused;
  }
  HookRegistry hooks;
  hooks.set_relation_info_hook(whatif.MakeExclusiveHook());
  PlannerOptions options;
  options.params = params_;
  options.params.enable_nestloop = key.nestloop;
  options.hooks = &hooks;
  PARINDA_ASSIGN_OR_RETURN(Plan plan, PlanQuery(catalog_, stmt_, options));
  ++optimizer_calls_;

  CacheEntry entry;
  entry.total_cost = plan.total_cost();
  entry.slots.assign(stmt_.from.size(), AccessSlot{});

  // Walk the plan, recording each scan's contribution. Parameterized inner
  // index scans contribute loops * per-loop cost.
  struct Frame {
    const PlanNode* node;
    const PlanNode* parent;
  };
  std::vector<Frame> stack = {{plan.root.get(), nullptr}};
  double scans_total = 0.0;
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    const PlanNode* node = frame.node;
    if (node->type == PlanNodeType::kAppend) {
      // Horizontal-partition access: treat the whole Append as one unordered
      // access slot and do not descend (its children all carry the same
      // range index).
      AccessSlot& slot = entry.slots[node->range_index];
      slot.kind = AccessSlot::Kind::kSeq;
      slot.cached_contribution = node->total_cost;
      scans_total += slot.cached_contribution;
      continue;
    }
    if (node->type == PlanNodeType::kSeqScan ||
        node->type == PlanNodeType::kIndexScan ||
        node->type == PlanNodeType::kBitmapHeapScan) {
      AccessSlot& slot = entry.slots[node->range_index];
      if (node->type == PlanNodeType::kSeqScan ||
          node->type == PlanNodeType::kBitmapHeapScan) {
        // Bitmap scans impose no order on the plan above them, so any
        // unordered access can substitute — same slot kind as a seq scan.
        slot.kind = AccessSlot::Kind::kSeq;
        slot.cached_contribution = node->total_cost;
      } else {
        const IndexInfo* used = whatif.Get(node->index_id);
        const ColumnId lead =
            used != nullptr && !used->columns.empty() ? used->columns[0]
                                                      : kInvalidColumnId;
        const bool parameterized =
            frame.parent != nullptr &&
            frame.parent->type == PlanNodeType::kNestLoopJoin &&
            !frame.parent->param_outer_exprs.empty() &&
            frame.parent->children[1].get() == node;
        if (parameterized) {
          slot.kind = AccessSlot::Kind::kIndexParam;
          slot.order_column = lead;
          slot.loops = ClampRows(frame.parent->children[0]->rows);
          // Per-loop equality selectivity the planner used: 1 / ndistinct.
          const TableInfo* table = analyzed_.tables[node->range_index];
          const ColumnStats* stats = table->StatsFor(lead);
          const double nd = stats != nullptr
                                ? stats->DistinctCount(table->row_count)
                                : table->row_count;
          slot.eq_sel = 1.0 / std::max(1.0, nd);
          slot.cached_contribution = slot.loops * node->total_cost;
        } else {
          slot.kind = AccessSlot::Kind::kIndexPlain;
          slot.order_column = lead;
          slot.cached_contribution = node->total_cost;
        }
      }
      scans_total += slot.cached_contribution;
    }
    for (const PlanNodePtr& child : node->children) {
      stack.push_back({child.get(), node});
    }
  }
  entry.internal_cost = std::max(0.0, entry.total_cost - scans_total);
  return entry;
}

Result<const InumCostModel::CacheEntry*> InumCostModel::GetEntry(
    const CacheKey& key) {
  static metrics::Counter& hits =
      metrics::Registry::Global().counter("inum.cache_hits");
  static metrics::Counter& misses =
      metrics::Registry::Global().counter("inum.cache_misses");
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    hits.Increment();
    return &it->second;
  }
  misses.Increment();
  PARINDA_ASSIGN_OR_RETURN(CacheEntry entry, BuildEntry(key));
  auto [inserted, unused] = cache_.emplace(key, std::move(entry));
  (void)unused;
  return &inserted->second;
}

std::optional<double> InumCostModel::SlotAccessCost(
    int range, const AccessSlot& slot,
    const std::vector<const IndexInfo*>& table_indexes) const {
  const TableInfo& table = *analyzed_.tables[range];
  const auto& restrictions = analyzed_.restrictions[range];
  const double restriction_sel = analyzed_.restriction_sel[range];
  switch (slot.kind) {
    case AccessSlot::Kind::kSeq: {
      // Any access path works where no order was exploited; pick the best.
      double best = CostSeqScan(params_, RelSize::Of(table), restriction_sel,
                                static_cast<int>(restrictions.size()))
                        .total;
      for (const IndexInfo* index : table_indexes) {
        const IndexMatch match = MatchIndexConditions(
            analyzed_.tables, restrictions, range, *index);
        if (!match.HasConds()) continue;  // unordered full index scan: skip
        const int num_filters =
            static_cast<int>(restrictions.size() - match.matched_conds.size());
        const double plain =
            IndexAccessCost(params_, analyzed_.tables, restrictions,
                            restriction_sel, range, table, *index)
                .total;
        const double bitmap =
            CostBitmapHeapScan(params_, RelSize::Of(table), *index,
                               match.index_sel, restriction_sel,
                               static_cast<int>(match.matched_conds.size()),
                               num_filters)
                .total;
        best = std::min({best, plain, bitmap});
      }
      return best;
    }
    case AccessSlot::Kind::kIndexPlain: {
      std::optional<double> best;
      for (const IndexInfo* index : table_indexes) {
        if (index->columns.empty() ||
            index->columns[0] != slot.order_column) {
          continue;
        }
        const double cost =
            IndexAccessCost(params_, analyzed_.tables, restrictions,
                            restriction_sel, range, table, *index)
                .total;
        if (!best || cost < *best) best = cost;
      }
      return best;
    }
    case AccessSlot::Kind::kIndexParam: {
      std::optional<double> best;
      for (const IndexInfo* index : table_indexes) {
        if (index->columns.empty() ||
            index->columns[0] != slot.order_column) {
          continue;
        }
        const ScanCost per_loop = CostIndexScan(
            params_, table, RelSize::Of(table), *index, slot.eq_sel,
            restriction_sel * slot.eq_sel, 1,
            static_cast<int>(restrictions.size()), slot.loops);
        const double cost = slot.loops * per_loop.total;
        if (!best || cost < *best) best = cost;
      }
      return best;
    }
  }
  return std::nullopt;
}

Result<double> InumCostModel::EstimateCost(
    const std::vector<const IndexInfo*>& config) {
  PARINDA_FAILPOINT("inum.estimate");
  if (!initialized_) PARINDA_RETURN_IF_ERROR(Init());
  ++estimates_served_;
  const int num_rels = static_cast<int>(stmt_.from.size());

  // Group config indexes by range (a table may appear in several ranges).
  std::vector<std::vector<const IndexInfo*>> per_range(
      static_cast<size_t>(num_rels));
  for (int r = 0; r < num_rels; ++r) {
    for (const IndexInfo* index : config) {
      if (index->table_id == analyzed_.tables[r]->id) {
        per_range[r].push_back(index);
      }
    }
  }

  // Enumerate interesting-order keys: per range, "unordered" plus each
  // interesting order *that the configuration can actually supply* (keys the
  // config cannot serve would be skipped anyway — not calling the optimizer
  // for them is what keeps cold-start cheap).
  std::vector<std::vector<ColumnId>> options(static_cast<size_t>(num_rels));
  for (int r = 0; r < num_rels; ++r) {
    options[r].push_back(kInvalidColumnId);
    for (ColumnId col : analyzed_.interesting_orders[r]) {
      for (const IndexInfo* index : per_range[r]) {
        if (!index->columns.empty() && index->columns[0] == col) {
          options[r].push_back(col);
          break;
        }
      }
    }
  }

  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<size_t> pick(static_cast<size_t>(num_rels), 0);
  while (true) {
    PARINDA_RETURN_IF_ERROR(CheckBudget("inum.estimate"));
    CacheKey key;
    key.orders.resize(static_cast<size_t>(num_rels));
    for (int r = 0; r < num_rels; ++r) key.orders[r] = options[r][pick[r]];
    for (const bool nl : {true, false}) {
      if (!nl && !cache_nestloop_pair_) continue;
      key.nestloop = nl;
      PARINDA_ASSIGN_OR_RETURN(const CacheEntry* entry, GetEntry(key));
      double cost = entry->internal_cost;
      bool usable = true;
      for (int r = 0; r < num_rels; ++r) {
        auto access = SlotAccessCost(r, entry->slots[r], per_range[r]);
        if (!access) {
          usable = false;
          break;
        }
        cost += *access;
      }
      if (usable) best_cost = std::min(best_cost, cost);
    }
    // Advance the mixed-radix counter.
    int r = 0;
    while (r < num_rels && ++pick[r] >= options[r].size()) {
      pick[r] = 0;
      ++r;
    }
    if (r == num_rels) break;
  }
  if (!std::isfinite(best_cost)) {
    return Status::Internal("INUM produced no usable plan");
  }
  return best_cost;
}

Result<double> InumCostModel::DirectOptimizerCost(
    const std::vector<const IndexInfo*>& config) {
  WhatIfIndexSet whatif(catalog_);  // only to own nothing; hook built inline
  (void)whatif;
  HookRegistry hooks;
  hooks.set_relation_info_hook(
      [&config](const CatalogReader&, RelOptInfo* rel) {
        rel->indexes.clear();
        for (const IndexInfo* index : config) {
          if (index->table_id == rel->table->id) {
            rel->indexes.push_back(index);
          }
        }
      });
  PlannerOptions options;
  options.params = params_;
  options.hooks = &hooks;
  PARINDA_ASSIGN_OR_RETURN(Plan plan, PlanQuery(catalog_, stmt_, options));
  ++optimizer_calls_;
  return plan.total_cost();
}

int64_t InumCostModel::ApproxCacheBytes() const {
  int64_t bytes = static_cast<int64_t>(sizeof(InumCostModel));
  for (const auto& [key, entry] : cache_) {
    bytes += kMapNodeOverheadBytes;
    bytes += static_cast<int64_t>(sizeof(CacheKey)) +
             static_cast<int64_t>(key.orders.capacity() * sizeof(ColumnId));
    bytes += static_cast<int64_t>(sizeof(CacheEntry)) +
             static_cast<int64_t>(entry.slots.capacity() * sizeof(AccessSlot));
  }
  return bytes;
}

}  // namespace parinda
