#include "optimizer/planner.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/check.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "optimizer/cost_model.h"
#include "optimizer/index_match.h"
#include "optimizer/query_analysis.h"
#include "optimizer/selectivity.h"

namespace parinda {

namespace {

using RelMask = uint64_t;

double ClampRows(double rows) { return std::max(1.0, std::ceil(rows)); }

/// True when `prefix` is a prefix of `keys`.
bool PathKeysContain(const std::vector<PathKey>& keys,
                     const std::vector<PathKey>& prefix) {
  if (prefix.size() > keys.size()) return false;
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (!(keys[i] == prefix[i])) return false;
  }
  return true;
}

using EquiJoinClause = AnalyzedQuery::EquiJoin;

bool HasAggCall(const Expr& expr) {
  if (expr.kind == ExprKind::kFuncCall) {
    const std::string& f = expr.func_name;
    if (f == "count" || f == "sum" || f == "avg" || f == "min" || f == "max") {
      return true;
    }
  }
  for (const auto& child : expr.children) {
    if (HasAggCall(*child)) return true;
  }
  return false;
}

class PlannerImpl {
 public:
  PlannerImpl(const CatalogReader& catalog, const SelectStatement& stmt,
              const PlannerOptions& options)
      : catalog_(catalog), stmt_(stmt), options_(options) {}

  Result<Plan> Run();

 private:
  Status Setup();
  /// Candidate access paths for one base relation.
  std::vector<PlanNodePtr> BaseRelPaths(int range);
  /// Adds `path` to `paths`, keeping only non-dominated candidates.
  static void AddPath(std::vector<PlanNodePtr>* paths, PlanNodePtr path);
  /// Cheapest path in a list (by total cost).
  static const PlanNodePtr& CheapestPath(const std::vector<PlanNodePtr>& paths);

  /// Estimated joint cardinality of the relations in `mask` after all
  /// applicable restriction and join clauses. Memoized for consistency
  /// across DP partitions.
  double MaskRows(RelMask mask);
  double MaskWidth(RelMask mask) const;

  /// All join paths for outer × inner.
  void GenerateJoinPaths(RelMask outer_mask, RelMask inner_mask,
                         const std::vector<PlanNodePtr>& outer_paths,
                         const std::vector<PlanNodePtr>& inner_paths,
                         std::vector<PlanNodePtr>* out);

  /// Adds aggregation / sort / limit on top of a join-tree path; returns the
  /// finished candidate.
  PlanNodePtr FinalizePath(PlanNodePtr path);

  /// Sort node on top of `input` ordered by `keys`.
  PlanNodePtr MakeSort(PlanNodePtr input, std::vector<PathKey> keys) const;

  /// Maps ORDER BY items to pathkeys; nullopt when any key is not a simple
  /// column reference.
  std::optional<std::vector<PathKey>> OrderByPathKeys() const;

  const CatalogReader& catalog_;
  const SelectStatement& stmt_;
  const PlannerOptions& options_;

  int num_rels_ = 0;
  AnalyzedQuery analyzed_;
  std::vector<const TableInfo*> tables_;
  std::vector<RelOptInfo> rels_;
  std::vector<std::vector<const Expr*>> restrictions_;
  std::vector<double> restriction_sel_;
  std::vector<EquiJoinClause> equi_joins_;
  std::vector<const Expr*> aggregates_;
  std::map<RelMask, double> mask_rows_;
  std::map<RelMask, std::vector<PlanNodePtr>> best_;
};

Status PlannerImpl::Setup() {
  num_rels_ = static_cast<int>(stmt_.from.size());
  PARINDA_ASSIGN_OR_RETURN(analyzed_, AnalyzeQuery(catalog_, stmt_));
  tables_ = analyzed_.tables;
  restrictions_ = analyzed_.restrictions;
  restriction_sel_ = analyzed_.restriction_sel;
  equi_joins_ = analyzed_.equi_joins;

  rels_.resize(static_cast<size_t>(num_rels_));
  for (int r = 0; r < num_rels_; ++r) {
    RelOptInfo& rel = rels_[r];
    rel.table = tables_[r];
    rel.row_count = std::max(1.0, rel.table->row_count);
    rel.pages = std::max(1.0, rel.table->pages);
    rel.indexes = catalog_.TableIndexes(rel.table->id);
    // PostgreSQL's get_relation_info_hook moment: let registered hooks add
    // what-if indexes or override sizes.
    if (options_.hooks != nullptr && options_.hooks->relation_info_hook()) {
      options_.hooks->relation_info_hook()(catalog_, &rel);
    }
  }
  for (const SelectItem& item : stmt_.select_list) {
    if (!item.star && item.expr != nullptr) aggregates_.push_back(item.expr.get());
  }
  return Status::OK();
}

double PlannerImpl::MaskWidth(RelMask mask) const {
  double width = 0.0;
  for (int r = 0; r < num_rels_; ++r) {
    if ((mask >> r) & 1) {
      const TableInfo* table = tables_[r];
      for (ColumnId c = 0; c < table->schema.num_columns(); ++c) {
        const ColumnStats* stats = table->StatsFor(c);
        width += stats != nullptr ? stats->avg_width : 8.0;
      }
    }
  }
  return width;
}

double PlannerImpl::MaskRows(RelMask mask) {
  auto it = mask_rows_.find(mask);
  if (it != mask_rows_.end()) return it->second;
  double rows = 1.0;
  for (int r = 0; r < num_rels_; ++r) {
    if ((mask >> r) & 1) {
      rows *= std::max(1.0, rels_[r].row_count) * restriction_sel_[r];
    }
  }
  for (const EquiJoinClause& clause : equi_joins_) {
    if (((mask >> clause.left_range) & 1) && ((mask >> clause.right_range) & 1)) {
      rows *= EquiJoinSelectivity(*tables_[clause.left_range],
                                  clause.left_column,
                                  *tables_[clause.right_range],
                                  clause.right_column);
    }
  }
  for (const auto& [cmask, cexpr] : analyzed_.complex_clauses) {
    if ((cmask & mask) == cmask) {
      rows *= ClauseSelectivity(tables_, *cexpr);
    }
  }
  rows = ClampRows(rows);
  mask_rows_[mask] = rows;
  return rows;
}

std::vector<PlanNodePtr> PlannerImpl::BaseRelPaths(int range) {
  std::vector<PlanNodePtr> paths;
  const RelOptInfo& rel = rels_[range];
  const TableInfo& table = *rel.table;
  const double out_rows = MaskRows(RelMask{1} << range);
  const double width = MaskWidth(RelMask{1} << range);

  // Cost at the hook-adjusted sizes.
  const RelSize size{rel.row_count, rel.pages};

  // Horizontally partitioned table: scan as an Append over the children
  // that survive pruning against this query's predicates on the partition
  // column (PostgreSQL's constraint exclusion).
  if (table.IsHorizontallyPartitioned()) {
    std::vector<PlanNodePtr> child_scans;
    double append_cost = 0.0;
    double append_startup = 0.0;
    double append_rows = 0.0;
    bool usable = true;
    for (size_t k = 0; k < table.horizontal_children.size(); ++k) {
      const Value lo = k == 0 ? Value() : table.partition_bounds[k - 1];
      const Value hi = k == table.partition_bounds.size()
                           ? Value()
                           : table.partition_bounds[k];
      if (!RangeMayMatch(lo, hi, restrictions_[range], range,
                         table.partition_column)) {
        continue;  // pruned
      }
      const TableInfo* child = catalog_.GetTable(table.horizontal_children[k]);
      if (child == nullptr) {
        usable = false;
        break;
      }
      // Child selectivity: reuse the query's restriction selectivity against
      // the child's (sliced) statistics.
      std::vector<const TableInfo*> child_tables = tables_;
      child_tables[range] = child;
      const double child_sel =
          ConjunctionSelectivity(child_tables, restrictions_[range]);
      // Best access path for this child: seq scan vs its indexes.
      const ScanCost seq =
          CostSeqScan(options_.params, RelSize::Of(*child), child_sel,
                      static_cast<int>(restrictions_[range].size()));
      auto scan = std::make_shared<PlanNode>();
      scan->type = PlanNodeType::kSeqScan;
      scan->range_index = range;
      scan->table_id = child->id;
      scan->filters = restrictions_[range];
      scan->startup_cost = seq.startup;
      scan->total_cost = seq.total;
      scan->rows = seq.rows;
      scan->width = width;
      PlanNodePtr best_child = scan;
      for (const IndexInfo* child_index : catalog_.TableIndexes(child->id)) {
        const IndexMatch child_match = MatchIndexConditions(
            child_tables, restrictions_[range], range, *child_index);
        if (!child_match.HasConds()) continue;
        const ScanCost idx = CostIndexScan(
            options_.params, *child, RelSize::Of(*child), *child_index,
            child_match.index_sel, child_sel,
            static_cast<int>(child_match.matched_conds.size()),
            static_cast<int>(restrictions_[range].size() -
                             child_match.matched_conds.size()));
        if (idx.total < best_child->total_cost) {
          auto idx_scan = std::make_shared<PlanNode>();
          idx_scan->type = PlanNodeType::kIndexScan;
          idx_scan->range_index = range;
          idx_scan->table_id = child->id;
          idx_scan->index_id = child_index->id;
          idx_scan->index_conds = child_match.matched_conds;
          for (const Expr* restriction : restrictions_[range]) {
            if (std::find(child_match.matched_conds.begin(),
                          child_match.matched_conds.end(),
                          restriction) == child_match.matched_conds.end()) {
              idx_scan->filters.push_back(restriction);
            }
          }
          idx_scan->startup_cost = idx.startup;
          idx_scan->total_cost = idx.total;
          idx_scan->rows = idx.rows;
          idx_scan->width = width;
          best_child = std::move(idx_scan);
        }
      }
      append_cost += best_child->total_cost;
      append_startup = std::max(append_startup, best_child->startup_cost);
      append_rows += best_child->rows;
      child_scans.push_back(std::move(best_child));
    }
    if (usable) {
      auto append = std::make_shared<PlanNode>();
      append->type = PlanNodeType::kAppend;
      append->range_index = range;
      append->table_id = table.id;
      append->children = std::move(child_scans);
      append->startup_cost = append_startup;
      append->total_cost =
          append_cost +
          options_.params.cpu_tuple_cost * std::max(1.0, append_rows) * 0.5;
      append->rows = std::max(1.0, std::min(out_rows, append_rows));
      append->width = width;
      AddPath(&paths, std::move(append));
    }
  }

  // Sequential scan.
  {
    const ScanCost cost =
        CostSeqScan(options_.params, size, restriction_sel_[range],
                    static_cast<int>(restrictions_[range].size()));
    auto node = std::make_shared<PlanNode>();
    node->type = PlanNodeType::kSeqScan;
    node->range_index = range;
    node->table_id = table.id;
    node->filters = restrictions_[range];
    node->startup_cost = cost.startup;
    node->total_cost = cost.total;
    node->rows = out_rows;
    node->width = width;
    AddPath(&paths, std::move(node));
  }

  // Index scans.
  for (const IndexInfo* index : rel.indexes) {
    const IndexMatch match =
        MatchIndexConditions(tables_, restrictions_[range], range, *index);
    const IndexMatch bitmap_match = MatchIndexConditions(
        tables_, restrictions_[range], range, *index, /*allow_in_list=*/true);
    std::vector<const Expr*> index_conds = match.matched_conds;
    // Pathkeys the index provides (ascending key order).
    std::vector<PathKey> pathkeys;
    for (ColumnId col : index->columns) {
      pathkeys.push_back(PathKey{range, col, false});
    }
    const bool provides_useful_order = [&] {
      // Leading column appears in ORDER BY / GROUP BY or an equi join.
      const ColumnId lead = index->columns[0];
      for (const OrderItem& item : stmt_.order_by) {
        const Expr* e = item.expr.get();
        if (e->kind == ExprKind::kColumnRef && e->bound_range == range &&
            e->bound_column == lead) {
          return true;
        }
      }
      for (const auto& g : stmt_.group_by) {
        if (g->kind == ExprKind::kColumnRef && g->bound_range == range &&
            g->bound_column == lead) {
          return true;
        }
      }
      for (const EquiJoinClause& clause : equi_joins_) {
        if ((clause.left_range == range && clause.left_column == lead) ||
            (clause.right_range == range && clause.right_column == lead)) {
          return true;
        }
      }
      return false;
    }();
    if (index_conds.empty() && !provides_useful_order &&
        !bitmap_match.HasConds()) {
      continue;
    }

    const double index_sel = match.index_sel;
    // Residual filters: everything not consumed as an index condition.
    std::vector<const Expr*> filters;
    for (const Expr* restriction : restrictions_[range]) {
      if (std::find(index_conds.begin(), index_conds.end(), restriction) ==
          index_conds.end()) {
        filters.push_back(restriction);
      }
    }
    if (!index_conds.empty() || provides_useful_order) {
      const ScanCost cost = CostIndexScan(
          options_.params, table, size, *index, index_sel,
          restriction_sel_[range], static_cast<int>(index_conds.size()),
          static_cast<int>(filters.size()));
      auto node = std::make_shared<PlanNode>();
      node->type = PlanNodeType::kIndexScan;
      node->range_index = range;
      node->table_id = table.id;
      node->index_id = index->id;
      node->index_conds = index_conds;
      node->filters = filters;
      node->pathkeys = std::move(pathkeys);
      node->startup_cost = cost.startup;
      node->total_cost = cost.total;
      node->rows = out_rows;
      node->width = width;
      AddPath(&paths, std::move(node));
    }

    // Bitmap heap scan: unordered, reads heap pages in physical order (the
    // winner at medium selectivities), and additionally serves IN-list
    // predicates on the leading key column via multi-probe union.
    if (bitmap_match.HasConds()) {
      std::vector<const Expr*> index_conds = bitmap_match.matched_conds;
      const double index_sel = bitmap_match.index_sel;
      std::vector<const Expr*> filters;
      for (const Expr* restriction : restrictions_[range]) {
        if (std::find(index_conds.begin(), index_conds.end(), restriction) ==
            index_conds.end()) {
          filters.push_back(restriction);
        }
      }
      const ScanCost bitmap_cost = CostBitmapHeapScan(
          options_.params, size, *index, index_sel,
          restriction_sel_[range], static_cast<int>(index_conds.size()),
          static_cast<int>(filters.size()));
      auto bitmap = std::make_shared<PlanNode>();
      bitmap->type = PlanNodeType::kBitmapHeapScan;
      bitmap->range_index = range;
      bitmap->table_id = table.id;
      bitmap->index_id = index->id;
      bitmap->index_conds = std::move(index_conds);
      bitmap->filters = std::move(filters);
      bitmap->startup_cost = bitmap_cost.startup;
      bitmap->total_cost = bitmap_cost.total;
      bitmap->rows = out_rows;
      bitmap->width = width;
      AddPath(&paths, std::move(bitmap));
    }
  }
  return paths;
}

void PlannerImpl::AddPath(std::vector<PlanNodePtr>* paths, PlanNodePtr path) {
  // Dominance pruning: drop `path` if an existing one is no more expensive
  // and at least as well ordered; drop existing ones `path` dominates.
  for (const PlanNodePtr& existing : *paths) {
    if (existing->total_cost <= path->total_cost &&
        existing->startup_cost <= path->startup_cost &&
        PathKeysContain(existing->pathkeys, path->pathkeys)) {
      return;
    }
  }
  paths->erase(
      std::remove_if(paths->begin(), paths->end(),
                     [&](const PlanNodePtr& existing) {
                       return path->total_cost <= existing->total_cost &&
                              path->startup_cost <= existing->startup_cost &&
                              PathKeysContain(path->pathkeys,
                                              existing->pathkeys);
                     }),
      paths->end());
  paths->push_back(std::move(path));
}

const PlanNodePtr& PlannerImpl::CheapestPath(
    const std::vector<PlanNodePtr>& paths) {
  PARINDA_CHECK(!paths.empty());
  size_t best = 0;
  for (size_t i = 1; i < paths.size(); ++i) {
    if (paths[i]->total_cost < paths[best]->total_cost) best = i;
  }
  return paths[best];
}

void PlannerImpl::GenerateJoinPaths(RelMask outer_mask, RelMask inner_mask,
                                    const std::vector<PlanNodePtr>& outer_paths,
                                    const std::vector<PlanNodePtr>& inner_paths,
                                    std::vector<PlanNodePtr>* out) {
  const CostParams& params = options_.params;
  const RelMask mask = outer_mask | inner_mask;
  const double join_rows = MaskRows(mask);
  const double width = MaskWidth(mask);

  // Clauses evaluated at this join.
  std::vector<const EquiJoinClause*> clauses;
  for (const EquiJoinClause& clause : equi_joins_) {
    const RelMask l = RelMask{1} << clause.left_range;
    const RelMask r = RelMask{1} << clause.right_range;
    if (((l & outer_mask) && (r & inner_mask)) ||
        ((l & inner_mask) && (r & outer_mask))) {
      clauses.push_back(&clause);
    }
  }
  std::vector<const Expr*> join_filters;
  for (const auto& [cmask, cexpr] : analyzed_.complex_clauses) {
    if ((cmask & mask) == cmask && (cmask & outer_mask) &&
        (cmask & inner_mask)) {
      join_filters.push_back(cexpr);
    }
  }
  std::vector<const Expr*> join_conds;
  for (const EquiJoinClause* clause : clauses) join_conds.push_back(clause->expr);

  const PlanNodePtr& inner_cheapest = CheapestPath(inner_paths);

  auto finish_join = [&](std::shared_ptr<PlanNode> node) {
    node->rows = join_rows;
    node->width = width;
    node->join_conds = join_conds;
    node->filters = join_filters;
    // Residual filter CPU.
    node->total_cost +=
        params.cpu_operator_cost * static_cast<double>(join_filters.size()) *
        join_rows;
    out->push_back(std::move(node));
  };

  for (const PlanNodePtr& outer : outer_paths) {
    // --- Nested loop (plain inner rescan) ---
    {
      auto node = std::make_shared<PlanNode>();
      node->type = PlanNodeType::kNestLoopJoin;
      node->children = {outer, inner_cheapest};
      node->pathkeys = outer->pathkeys;
      node->startup_cost = outer->startup_cost + inner_cheapest->startup_cost;
      double total = outer->total_cost +
                     ClampRows(outer->rows) * inner_cheapest->total_cost +
                     params.cpu_tuple_cost * join_rows;
      // Per-tuple qual evaluation on the cross product.
      total += params.cpu_operator_cost *
               static_cast<double>(clauses.size()) * ClampRows(outer->rows) *
               ClampRows(inner_cheapest->rows);
      if (!params.enable_nestloop) total += CostParams::kDisableCost;
      node->total_cost = total;
      finish_join(std::move(node));
    }
    // --- Nested loop with materialized inner ---
    {
      auto mat = std::make_shared<PlanNode>();
      mat->type = PlanNodeType::kMaterialize;
      mat->children = {inner_cheapest};
      mat->rows = inner_cheapest->rows;
      mat->width = inner_cheapest->width;
      mat->startup_cost = inner_cheapest->startup_cost;
      mat->total_cost = inner_cheapest->total_cost +
                        params.cpu_tuple_cost * inner_cheapest->rows;
      const double rescan =
          params.cpu_operator_cost * ClampRows(inner_cheapest->rows);
      auto node = std::make_shared<PlanNode>();
      node->type = PlanNodeType::kNestLoopJoin;
      node->pathkeys = outer->pathkeys;
      node->startup_cost = outer->startup_cost + mat->startup_cost;
      double total = outer->total_cost + mat->total_cost +
                     std::max(0.0, ClampRows(outer->rows) - 1.0) * rescan +
                     params.cpu_tuple_cost * join_rows;
      total += params.cpu_operator_cost *
               static_cast<double>(clauses.size()) * ClampRows(outer->rows) *
               ClampRows(inner_cheapest->rows);
      if (!params.enable_nestloop) total += CostParams::kDisableCost;
      node->total_cost = total;
      node->children = {outer, std::move(mat)};
      finish_join(std::move(node));
    }
    // --- Parameterized nested loop: inner index scan on a join column ---
    if (__builtin_popcountll(inner_mask) == 1 && !clauses.empty()) {
      const int inner_range = __builtin_ctzll(inner_mask);
      const RelOptInfo& rel = rels_[inner_range];
      const RelSize size{rel.row_count, rel.pages};
      for (const IndexInfo* index : rel.indexes) {
        // The index leading column must be the inner side of a clause.
        const EquiJoinClause* param_clause = nullptr;
        ColumnId inner_col = kInvalidColumnId;
        const Expr* outer_expr = nullptr;
        for (const EquiJoinClause* clause : clauses) {
          if (clause->left_range == inner_range &&
              clause->left_column == index->columns[0]) {
            param_clause = clause;
            inner_col = clause->left_column;
            outer_expr = clause->expr->children[1].get();
            break;
          }
          if (clause->right_range == inner_range &&
              clause->right_column == index->columns[0]) {
            param_clause = clause;
            inner_col = clause->right_column;
            outer_expr = clause->expr->children[0].get();
            break;
          }
        }
        if (param_clause == nullptr) continue;
        // Per-loop selectivity of key = outer value: 1 / ndistinct.
        const ColumnStats* stats = rel.table->StatsFor(inner_col);
        const double nd = stats != nullptr ? stats->DistinctCount(size.rows)
                                           : size.rows;
        const double eq_sel = 1.0 / std::max(1.0, nd);
        const double loop_count = ClampRows(outer->rows);
        const double filter_sel = restriction_sel_[inner_range] * eq_sel;
        const ScanCost cost = CostIndexScan(
            params, *rel.table, size, *index, eq_sel, filter_sel, 1,
            static_cast<int>(restrictions_[inner_range].size()), loop_count);
        auto inner_scan = std::make_shared<PlanNode>();
        inner_scan->type = PlanNodeType::kIndexScan;
        inner_scan->range_index = inner_range;
        inner_scan->table_id = rel.table->id;
        inner_scan->index_id = index->id;
        inner_scan->index_conds = {param_clause->expr};
        inner_scan->filters = restrictions_[inner_range];
        inner_scan->startup_cost = cost.startup;
        inner_scan->total_cost = cost.total;
        inner_scan->rows = std::max(1.0, cost.rows);
        inner_scan->width = MaskWidth(inner_mask);

        auto node = std::make_shared<PlanNode>();
        node->type = PlanNodeType::kNestLoopJoin;
        node->pathkeys = outer->pathkeys;
        node->param_outer_exprs = {outer_expr};
        node->startup_cost = outer->startup_cost + inner_scan->startup_cost;
        double total = outer->total_cost + loop_count * inner_scan->total_cost +
                       params.cpu_tuple_cost * join_rows;
        if (!params.enable_nestloop) total += CostParams::kDisableCost;
        node->total_cost = total;
        node->children = {outer, std::move(inner_scan)};
        // The parameterized clause is enforced by the index; others filter.
        node->rows = join_rows;
        node->width = width;
        node->join_conds = join_conds;
        node->filters = join_filters;
        node->total_cost += params.cpu_operator_cost *
                            static_cast<double>(join_filters.size()) *
                            join_rows;
        out->push_back(std::move(node));
      }
    }
    // --- Hash join ---
    if (!clauses.empty()) {
      auto node = std::make_shared<PlanNode>();
      node->type = PlanNodeType::kHashJoin;
      node->children = {outer, inner_cheapest};
      const double build =
          inner_cheapest->total_cost +
          (params.cpu_operator_cost + params.cpu_tuple_cost) *
              ClampRows(inner_cheapest->rows);
      node->startup_cost = build;
      double total = build + outer->total_cost +
                     params.cpu_operator_cost *
                         static_cast<double>(clauses.size()) *
                         ClampRows(outer->rows) +
                     params.cpu_tuple_cost * join_rows;
      if (!params.enable_hashjoin) total += CostParams::kDisableCost;
      node->total_cost = total;
      finish_join(std::move(node));
    }
    // --- Merge join ---
    if (!clauses.empty()) {
      // Sort keys from the join clauses (outer side / inner side).
      std::vector<PathKey> outer_keys;
      std::vector<PathKey> inner_keys;
      for (const EquiJoinClause* clause : clauses) {
        const bool left_is_outer =
            ((RelMask{1} << clause->left_range) & outer_mask) != 0;
        outer_keys.push_back(PathKey{
            left_is_outer ? clause->left_range : clause->right_range,
            left_is_outer ? clause->left_column : clause->right_column, false});
        inner_keys.push_back(PathKey{
            left_is_outer ? clause->right_range : clause->left_range,
            left_is_outer ? clause->right_column : clause->left_column, false});
      }
      PlanNodePtr merge_outer = outer;
      if (!PathKeysContain(outer->pathkeys, outer_keys)) {
        merge_outer = MakeSort(outer, outer_keys);
      }
      PlanNodePtr merge_inner = inner_cheapest;
      if (!PathKeysContain(inner_cheapest->pathkeys, inner_keys)) {
        merge_inner = MakeSort(inner_cheapest, inner_keys);
      }
      auto node = std::make_shared<PlanNode>();
      node->type = PlanNodeType::kMergeJoin;
      node->pathkeys = merge_outer->pathkeys;
      node->startup_cost = merge_outer->startup_cost +
                           merge_inner->startup_cost;
      double total = merge_outer->total_cost + merge_inner->total_cost +
                     params.cpu_operator_cost *
                         (ClampRows(merge_outer->rows) +
                          ClampRows(merge_inner->rows)) +
                     params.cpu_tuple_cost * join_rows;
      if (!params.enable_mergejoin) total += CostParams::kDisableCost;
      node->total_cost = total;
      node->children = {std::move(merge_outer), std::move(merge_inner)};
      finish_join(std::move(node));
    }
  }
}

PlanNodePtr PlannerImpl::MakeSort(PlanNodePtr input,
                                  std::vector<PathKey> keys) const {
  const SortCost cost = CostSort(options_.params, input->rows, input->width,
                                 input->total_cost);
  auto node = std::make_shared<PlanNode>();
  node->type = PlanNodeType::kSort;
  node->rows = input->rows;
  node->width = input->width;
  node->startup_cost = cost.startup;
  node->total_cost = cost.startup + cost.per_output * ClampRows(input->rows);
  node->pathkeys = keys;
  node->sort_keys = std::move(keys);
  node->children = {std::move(input)};
  return node;
}

std::optional<std::vector<PathKey>> PlannerImpl::OrderByPathKeys() const {
  std::vector<PathKey> keys;
  for (const OrderItem& item : stmt_.order_by) {
    const Expr* e = item.expr.get();
    if (e->kind != ExprKind::kColumnRef || e->bound_range < 0) {
      return std::nullopt;
    }
    keys.push_back(PathKey{e->bound_range, e->bound_column, item.descending});
  }
  return keys;
}

PlanNodePtr PlannerImpl::FinalizePath(PlanNodePtr path) {
  const CostParams& params = options_.params;
  const bool has_aggs = StatementHasAggregates(stmt_);

  if (has_aggs) {
    // Grouping keys as pathkeys when they are simple columns.
    std::vector<PathKey> group_keys;
    bool simple_groups = true;
    for (const auto& g : stmt_.group_by) {
      if (g->kind == ExprKind::kColumnRef && g->bound_range >= 0) {
        group_keys.push_back(PathKey{g->bound_range, g->bound_column, false});
      } else {
        simple_groups = false;
      }
    }
    // Output group count: product of per-key distincts clamped by input.
    double groups = 1.0;
    if (!stmt_.group_by.empty()) {
      for (const auto& g : stmt_.group_by) {
        if (g->kind == ExprKind::kColumnRef && g->bound_range >= 0) {
          groups *= DistinctAfterFilter(*tables_[g->bound_range],
                                        g->bound_column, path->rows);
        } else {
          groups *= 10.0;  // unknown expression key
        }
      }
      groups = std::min(groups, std::max(1.0, path->rows));
    }
    auto node = std::make_shared<PlanNode>();
    node->type = PlanNodeType::kAggregate;
    for (const auto& g : stmt_.group_by) node->group_by.push_back(g.get());
    node->aggregates = aggregates_;
    node->rows = ClampRows(groups);
    node->width = 8.0 * static_cast<double>(stmt_.select_list.size() + 1);
    const double agg_cpu =
        params.cpu_operator_cost * ClampRows(path->rows) *
        std::max<double>(1.0, static_cast<double>(aggregates_.size()));
    const bool input_sorted =
        simple_groups && !group_keys.empty() &&
        PathKeysContain(path->pathkeys, group_keys);
    if (input_sorted) {
      node->hashed_aggregation = false;
      node->pathkeys = path->pathkeys;
      node->startup_cost = path->startup_cost;
      node->total_cost = path->total_cost + agg_cpu;
    } else {
      node->hashed_aggregation = true;
      node->startup_cost = path->total_cost + agg_cpu;
      node->total_cost = node->startup_cost +
                         params.cpu_tuple_cost * node->rows;
    }
    node->children = {std::move(path)};
    path = std::move(node);
  }

  if (!stmt_.order_by.empty()) {
    auto keys = OrderByPathKeys();
    const bool sorted =
        keys.has_value() && PathKeysContain(path->pathkeys, *keys);
    if (!sorted) {
      std::vector<PathKey> sort_keys =
          keys.has_value() ? *keys : std::vector<PathKey>{};
      path = MakeSort(std::move(path), std::move(sort_keys));
    }
  }

  if (stmt_.limit >= 0) {
    auto node = std::make_shared<PlanNode>();
    node->type = PlanNodeType::kLimit;
    node->limit_count = stmt_.limit;
    node->pathkeys = path->pathkeys;
    const double in_rows = ClampRows(path->rows);
    const double fraction =
        std::min(1.0, static_cast<double>(stmt_.limit) / in_rows);
    node->rows = std::min(in_rows, static_cast<double>(stmt_.limit));
    node->width = path->width;
    node->startup_cost = path->startup_cost;
    node->total_cost =
        path->startup_cost + fraction * (path->total_cost - path->startup_cost);
    node->children = {std::move(path)};
    path = std::move(node);
  }
  return path;
}

Result<Plan> PlannerImpl::Run() {
  PARINDA_RETURN_IF_ERROR(Setup());

  // Base relation paths.
  for (int r = 0; r < num_rels_; ++r) {
    best_[RelMask{1} << r] = BaseRelPaths(r);
  }

  const RelMask full_mask = (num_rels_ == 63)
                                ? ~RelMask{0}
                                : ((RelMask{1} << num_rels_) - 1);

  if (num_rels_ > 1 && num_rels_ <= options_.max_dp_rels) {
    // System-R dynamic programming over connected subsets.
    for (int size = 2; size <= num_rels_; ++size) {
      for (RelMask mask = 1; mask <= full_mask; ++mask) {
        if (__builtin_popcountll(mask) != size) continue;
        std::vector<PlanNodePtr> paths;
        bool connected = false;
        // Enumerate proper submask partitions.
        for (RelMask sub = (mask - 1) & mask; sub != 0;
             sub = (sub - 1) & mask) {
          const RelMask other = mask ^ sub;
          auto it_sub = best_.find(sub);
          auto it_other = best_.find(other);
          if (it_sub == best_.end() || it_other == best_.end()) continue;
          if (it_sub->second.empty() || it_other->second.empty()) continue;
          // Joinable (shares an equi-join clause)?
          bool joined = false;
          for (const EquiJoinClause& clause : equi_joins_) {
            const RelMask l = RelMask{1} << clause.left_range;
            const RelMask r = RelMask{1} << clause.right_range;
            if (((l & sub) && (r & other)) || ((l & other) && (r & sub))) {
              joined = true;
              break;
            }
          }
          if (!joined) continue;
          connected = true;
          std::vector<PlanNodePtr> generated;
          GenerateJoinPaths(sub, other, it_sub->second, it_other->second,
                            &generated);
          for (PlanNodePtr& p : generated) AddPath(&paths, std::move(p));
        }
        if (!connected) {
          // Cartesian fallback: split off the lowest relation.
          const RelMask lowest = mask & (~mask + 1);
          const RelMask rest = mask ^ lowest;
          auto it_low = best_.find(lowest);
          auto it_rest = best_.find(rest);
          if (it_low != best_.end() && it_rest != best_.end() &&
              !it_low->second.empty() && !it_rest->second.empty()) {
            std::vector<PlanNodePtr> generated;
            GenerateJoinPaths(it_rest->first, lowest, it_rest->second,
                              it_low->second, &generated);
            GenerateJoinPaths(lowest, it_rest->first, it_low->second,
                              it_rest->second, &generated);
            for (PlanNodePtr& p : generated) AddPath(&paths, std::move(p));
          }
        }
        if (!paths.empty()) best_[mask] = std::move(paths);
      }
    }
  } else if (num_rels_ > 1) {
    // Greedy left-deep: start from the smallest filtered relation, join the
    // cheapest-next at each step.
    std::vector<bool> used(static_cast<size_t>(num_rels_), false);
    int start = 0;
    double best_rows = -1.0;
    for (int r = 0; r < num_rels_; ++r) {
      const double rows = MaskRows(RelMask{1} << r);
      if (best_rows < 0 || rows < best_rows) {
        best_rows = rows;
        start = r;
      }
    }
    used[start] = true;
    RelMask current = RelMask{1} << start;
    std::vector<PlanNodePtr> current_paths = best_[current];
    for (int step = 1; step < num_rels_; ++step) {
      int pick = -1;
      std::vector<PlanNodePtr> pick_paths;
      double pick_cost = 0.0;
      for (int r = 0; r < num_rels_; ++r) {
        if (used[r]) continue;
        std::vector<PlanNodePtr> generated;
        GenerateJoinPaths(current, RelMask{1} << r, current_paths,
                          best_[RelMask{1} << r], &generated);
        if (generated.empty()) continue;
        std::vector<PlanNodePtr> pruned;
        for (PlanNodePtr& p : generated) AddPath(&pruned, std::move(p));
        const double cost = CheapestPath(pruned)->total_cost;
        if (pick < 0 || cost < pick_cost) {
          pick = r;
          pick_cost = cost;
          pick_paths = std::move(pruned);
        }
      }
      PARINDA_CHECK(pick >= 0);
      used[pick] = true;
      current |= RelMask{1} << pick;
      current_paths = std::move(pick_paths);
    }
    best_[full_mask] = std::move(current_paths);
  }

  auto it = best_.find(full_mask);
  if (it == best_.end() || it->second.empty()) {
    return Status::Internal("planner produced no paths");
  }

  // Finalize every surviving join path and keep the cheapest statement plan.
  PlanNodePtr best_final;
  for (const PlanNodePtr& path : it->second) {
    PlanNodePtr final_path = FinalizePath(path);
    if (best_final == nullptr ||
        final_path->total_cost < best_final->total_cost) {
      best_final = std::move(final_path);
    }
  }
  Plan plan;
  plan.root = std::move(best_final);
  return plan;
}

}  // namespace

bool StatementHasAggregates(const SelectStatement& stmt) {
  if (!stmt.group_by.empty()) return true;
  for (const SelectItem& item : stmt.select_list) {
    if (!item.star && item.expr != nullptr && HasAggCall(*item.expr)) {
      return true;
    }
  }
  return false;
}

namespace {
// Lives in the process-wide metrics registry so `stats dump`/bench exports
// see it alongside every other counter. Increments from pool workers
// publish nothing (the plans themselves travel through each worker's owned
// matrix slot, ordered by the ThreadPool mutex at WaitAll); readers only
// ever difference two snapshots taken on the owner thread after WaitAll,
// where the pool's mutex already provides happens-before.
metrics::Counter& PlansBuiltCounter() {
  static metrics::Counter& counter =
      metrics::Registry::Global().counter("planner.plans_built");
  return counter;
}
}  // namespace

Planner::Stats Planner::stats() {
  Stats out;
  out.plans_built = PlansBuiltCounter().value();
  return out;
}

Result<Plan> PlanQuery(const CatalogReader& catalog,
                       const SelectStatement& stmt,
                       const PlannerOptions& options) {
  PARINDA_TRACE_SPAN("optimizer.plan_query");
  PlansBuiltCounter().Increment();
  PlannerImpl impl(catalog, stmt, options);
  return impl.Run();
}

}  // namespace parinda
