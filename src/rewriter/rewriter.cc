#include "rewriter/rewriter.h"

#include <algorithm>
#include <map>
#include <string>

#include "parser/binder.h"

namespace parinda {

namespace {

/// Greedy set cover of the parent columns flagged in `needed` by the
/// parent's fragments: the fragments in the order chosen, or empty when the
/// columns cannot be covered (the base table stays).
std::vector<const TableInfo*> CoverColumns(
    std::vector<char> needed, const std::vector<const TableInfo*>& fragments) {
  std::vector<const TableInfo*> chosen;
  int uncovered = static_cast<int>(std::count(needed.begin(), needed.end(), 1));
  auto is_uncovered = [&](ColumnId col) {
    return col >= 0 && static_cast<size_t>(col) < needed.size() &&
           needed[static_cast<size_t>(col)] != 0;
  };
  while (uncovered > 0) {
    const TableInfo* best = nullptr;
    int best_cover = 0;
    for (const TableInfo* frag : fragments) {
      if (std::find(chosen.begin(), chosen.end(), frag) != chosen.end()) {
        continue;
      }
      int cover = 0;
      for (ColumnId col : frag->parent_columns) {
        if (is_uncovered(col)) ++cover;
      }
      if (cover > best_cover ||
          (cover == best_cover && cover > 0 && best != nullptr &&
           frag->pages < best->pages)) {
        best = frag;
        best_cover = cover;
      }
    }
    if (best == nullptr || best_cover == 0) return {};
    chosen.push_back(best);
    for (ColumnId col : best->parent_columns) {
      if (is_uncovered(col)) {
        needed[static_cast<size_t>(col)] = 0;
        --uncovered;
      }
    }
  }
  return chosen;
}

/// Rewrites every bound column reference of `expr` in place: refs to range r
/// are re-qualified onto the alias of the fragment (or base table) serving
/// that column. `alias_of` maps (range, parent column) to the new qualifier;
/// fragment column names equal parent column names, so only the qualifier
/// changes.
void RequalifyExpr(
    Expr* expr,
    const std::vector<std::map<ColumnId, std::string>>& alias_of) {
  if (expr->kind == ExprKind::kColumnRef && expr->bound_range >= 0) {
    const auto& mapping = alias_of[expr->bound_range];
    auto it = mapping.find(expr->bound_column);
    if (it != mapping.end()) {
      expr->table_name = it->second;
    }
    expr->bound_range = -1;
    expr->bound_column = kInvalidColumnId;
  }
  for (auto& child : expr->children) RequalifyExpr(child.get(), alias_of);
}

}  // namespace

bool FragmentChoice::changed() const {
  for (const Range& range : ranges) {
    if (!range.fragments.empty()) return true;
  }
  return false;
}

Result<FragmentChoice> ChooseFragments(
    const CatalogReader& catalog, const SelectStatement& bound_stmt,
    const std::vector<const TableInfo*>& fragments) {
  const size_t num_rels = bound_stmt.from.size();
  FragmentChoice choice;
  choice.ranges.resize(num_rels);
  for (size_t r = 0; r < num_rels; ++r) {
    choice.ranges[r].table = catalog.GetTable(bound_stmt.from[r].bound_table);
    if (choice.ranges[r].table == nullptr) {
      return Status::BindError("statement not bound to this catalog");
    }
  }

  // Group fragments by parent table.
  std::map<TableId, std::vector<const TableInfo*>> by_parent;
  for (const TableInfo* frag : fragments) {
    if (frag->parent_table != kInvalidTableId) {
      by_parent[frag->parent_table].push_back(frag);
    }
  }
  if (by_parent.empty()) return choice;

  // Columns used per range, as flags over the range table's columns.
  std::vector<std::vector<char>> used(num_rels);
  for (size_t r = 0; r < num_rels; ++r) {
    used[r].assign(
        static_cast<size_t>(choice.ranges[r].table->schema.num_columns()), 0);
  }
  std::vector<std::pair<int, ColumnId>> refs;
  auto collect = [&](const Expr* expr) {
    if (expr == nullptr) return;
    refs.clear();
    expr->CollectColumnRefs(&refs);
    for (const auto& [range, col] : refs) {
      if (range >= 0 && col >= 0 &&
          static_cast<size_t>(col) < used[static_cast<size_t>(range)].size()) {
        used[static_cast<size_t>(range)][static_cast<size_t>(col)] = 1;
      }
    }
  };
  bool has_star = false;
  for (const SelectItem& item : bound_stmt.select_list) {
    if (item.star) {
      has_star = true;
    } else {
      collect(item.expr.get());
    }
  }
  collect(bound_stmt.where.get());
  for (const auto& g : bound_stmt.group_by) collect(g.get());
  for (const OrderItem& item : bound_stmt.order_by) collect(item.expr.get());

  // Decide per range.
  for (size_t r = 0; r < num_rels; ++r) {
    const TableInfo* table = choice.ranges[r].table;
    auto it = by_parent.find(table->id);
    if (it == by_parent.end()) continue;
    std::vector<char>& needed = used[r];
    if (has_star) std::fill(needed.begin(), needed.end(), 1);
    if (std::find(needed.begin(), needed.end(), 1) == needed.end()) {
      // Query counts rows only; the narrowest fragment serves it.
      const ColumnId pk0 =
          table->primary_key.empty() ? 0 : table->primary_key[0];
      if (static_cast<size_t>(pk0) < needed.size()) {
        needed[static_cast<size_t>(pk0)] = 1;
      }
    }
    std::vector<const TableInfo*> cover =
        CoverColumns(std::move(needed), it->second);
    // A multi-fragment rewrite reconstructs rows by joining on the parent
    // primary key; without one the fragments cannot be recombined.
    if (cover.size() > 1 && table->primary_key.empty()) continue;
    choice.ranges[r].fragments = std::move(cover);
  }
  return choice;
}

Result<RewriteResult> BuildRewrite(const CatalogReader& catalog,
                                   const SelectStatement& bound_stmt,
                                   const FragmentChoice& choice) {
  if (choice.ranges.size() != bound_stmt.from.size()) {
    return Status::InvalidArgument("fragment choice is for another statement");
  }
  RewriteResult result;
  result.stmt = bound_stmt.Clone();
  if (!choice.changed()) {
    result.changed = false;
    PARINDA_RETURN_IF_ERROR(BindStatement(catalog, &result.stmt));
    return result;
  }

  // Build the new FROM list and the (range, column) -> alias map.
  const size_t num_rels = bound_stmt.from.size();
  std::vector<std::map<ColumnId, std::string>> alias_of(num_rels);
  std::vector<TableRef> new_from;
  std::vector<std::unique_ptr<Expr>> pk_join_conds;
  for (size_t r = 0; r < num_rels; ++r) {
    const TableRef& original = bound_stmt.from[r];
    const TableInfo* table = choice.ranges[r].table;
    const std::vector<const TableInfo*>& used = choice.ranges[r].fragments;
    if (used.empty()) {
      TableRef keep = original;
      keep.bound_table = kInvalidTableId;
      // Qualify this range's columns with its effective name so added
      // fragment tables cannot make them ambiguous.
      for (ColumnId c = 0; c < table->schema.num_columns(); ++c) {
        alias_of[r][c] = keep.EffectiveName();
      }
      new_from.push_back(std::move(keep));
      continue;
    }
    std::vector<std::string> frag_aliases;
    for (size_t k = 0; k < used.size(); ++k) {
      TableRef ref;
      ref.table_name = used[k]->name;
      ref.alias = original.EffectiveName() + "_p" + std::to_string(k);
      frag_aliases.push_back(ref.alias);
      new_from.push_back(std::move(ref));
      // Each column is served by the first chosen fragment holding it.
      for (ColumnId col : used[k]->parent_columns) {
        alias_of[r].emplace(col, frag_aliases.back());
      }
    }
    // Join the fragments on the parent primary key.
    for (size_t k = 1; k < used.size(); ++k) {
      for (ColumnId pk : table->primary_key) {
        const std::string& pk_name = table->schema.column(pk).name;
        pk_join_conds.push_back(Expr::MakeBinary(
            ExprKind::kComparison, BinaryOp::kEq,
            Expr::MakeColumnRef(frag_aliases[0], pk_name),
            Expr::MakeColumnRef(frag_aliases[k], pk_name)));
      }
    }
  }

  // Re-qualify all column references, then install the new FROM list.
  for (SelectItem& item : result.stmt.select_list) {
    if (!item.star) RequalifyExpr(item.expr.get(), alias_of);
  }
  if (result.stmt.where != nullptr) {
    RequalifyExpr(result.stmt.where.get(), alias_of);
  }
  for (auto& g : result.stmt.group_by) RequalifyExpr(g.get(), alias_of);
  for (OrderItem& item : result.stmt.order_by) {
    RequalifyExpr(item.expr.get(), alias_of);
  }
  result.stmt.from = std::move(new_from);
  for (auto& cond : pk_join_conds) {
    if (result.stmt.where == nullptr) {
      result.stmt.where = std::move(cond);
    } else {
      result.stmt.where =
          Expr::MakeAnd(std::move(result.stmt.where), std::move(cond));
    }
  }
  PARINDA_RETURN_IF_ERROR(BindStatement(catalog, &result.stmt));
  result.changed = true;
  return result;
}

Result<RewriteResult> RewriteForPartitions(
    const CatalogReader& catalog, const SelectStatement& bound_stmt,
    const std::vector<const TableInfo*>& fragments) {
  PARINDA_ASSIGN_OR_RETURN(FragmentChoice choice,
                           ChooseFragments(catalog, bound_stmt, fragments));
  return BuildRewrite(catalog, bound_stmt, choice);
}

}  // namespace parinda
