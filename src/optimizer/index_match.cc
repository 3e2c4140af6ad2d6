#include "optimizer/index_match.h"

#include "optimizer/selectivity.h"

namespace parinda {

IndexMatch MatchIndexConditions(const std::vector<const TableInfo*>& tables,
                                const std::vector<const Expr*>& restrictions,
                                int range, const IndexInfo& index,
                                bool allow_in_list) {
  IndexMatch match;
  std::vector<bool> consumed(restrictions.size(), false);
  for (size_t k = 0; k < index.columns.size(); ++k) {
    const ColumnId col = index.columns[k];
    bool matched_eq = false;
    for (size_t i = 0; i < restrictions.size(); ++i) {
      if (consumed[i]) continue;
      const ClauseMatchKind kind =
          MatchClauseToColumn(*restrictions[i], range, col);
      if (kind == ClauseMatchKind::kEquality) {
        match.matched_conds.push_back(restrictions[i]);
        consumed[i] = true;
        matched_eq = true;
        break;  // one equality pins this key column
      }
      if (kind == ClauseMatchKind::kRange) {
        match.matched_conds.push_back(restrictions[i]);
        consumed[i] = true;  // keep scanning for the paired bound
      }
      if (kind == ClauseMatchKind::kInList && allow_in_list && k == 0 &&
          !match.has_in_list) {
        match.matched_conds.push_back(restrictions[i]);
        consumed[i] = true;
        match.has_in_list = true;  // ends the prefix like a range does
      }
    }
    if (!matched_eq) break;  // range/IN (or nothing) ends the usable prefix
    ++match.num_eq_columns;
  }
  match.index_sel = match.matched_conds.empty()
                        ? 1.0
                        : ConjunctionSelectivity(tables, match.matched_conds);
  return match;
}

ScanCost IndexAccessCost(const CostParams& params,
                         const std::vector<const TableInfo*>& tables,
                         const std::vector<const Expr*>& restrictions,
                         double restriction_sel, int range,
                         const TableInfo& table, const IndexInfo& index) {
  const IndexMatch match =
      MatchIndexConditions(tables, restrictions, range, index);
  const int num_filters =
      static_cast<int>(restrictions.size() - match.matched_conds.size());
  return CostIndexScan(params, table, RelSize::Of(table), index,
                       match.index_sel, restriction_sel,
                       static_cast<int>(match.matched_conds.size()),
                       num_filters);
}

}  // namespace parinda
