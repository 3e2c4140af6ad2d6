#ifndef PARINDA_WHATIF_WHATIF_INDEX_H_
#define PARINDA_WHATIF_WHATIF_INDEX_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "optimizer/hooks.h"

namespace parinda {

/// Hypothetical index ids live above this base so they can never collide
/// with real catalog ids.
inline constexpr IndexId kWhatIfIndexIdBase = 1'000'000;

/// Definition of a hypothetical index.
struct WhatIfIndexDef {
  std::string name;
  TableId table = kInvalidTableId;
  std::vector<ColumnId> columns;
  bool unique = false;
};

/// The paper's *What-If Index Component* (§3.2): owns hypothetical IndexInfo
/// records whose leaf-page counts come from Equation 1, and exposes a
/// relation-info hook that injects them into planning. "Since the query
/// optimizer primarily deals with statistics, it cannot differentiate
/// between the real design features and the what-if ones."
///
/// Statistics for the indexed columns are *not* recomputed: "the optimizer
/// computes histogram statistics about the columns from the statistics of
/// the base table, therefore we do not compute them."
class WhatIfIndexSet {
 public:
  /// `catalog` supplies base-table statistics for sizing; must outlive this.
  explicit WhatIfIndexSet(const CatalogReader& catalog) : catalog_(catalog) {}

  WhatIfIndexSet(const WhatIfIndexSet&) = delete;
  WhatIfIndexSet& operator=(const WhatIfIndexSet&) = delete;

  /// Simulates an index: computes Equation 1 leaf pages and tree height from
  /// the base table's statistics. O(columns) — the operation that replaces
  /// an O(n log n) physical build.
  [[nodiscard]] Result<IndexId> AddIndex(const WhatIfIndexDef& def);

  [[nodiscard]] Status RemoveIndex(IndexId id);
  void Clear() { indexes_.clear(); }

  const IndexInfo* Get(IndexId id) const;
  /// Mutable access, for ablations that override the simulated sizes (e.g.
  /// the zero-size-index flaw benchmark E2 reproduces).
  IndexInfo* GetMutable(IndexId id);
  std::vector<const IndexInfo*> IndexesFor(TableId table) const;
  int size() const { return static_cast<int>(indexes_.size()); }

  /// Hook that appends this set's indexes to the planner's RelOptInfo —
  /// the analogue of installing PostgreSQL's get_relation_info_hook.
  RelationInfoHook MakeHook() const;

  /// Hook that *replaces* the visible index list with this set's indexes
  /// (hides real indexes). INUM uses this to plan against pristine
  /// single-order configurations.
  RelationInfoHook MakeExclusiveHook() const;

  /// Sizes an index definition without registering it (Equation 1).
  [[nodiscard]] static Result<double> EstimatePages(const CatalogReader& catalog,
                                      const WhatIfIndexDef& def);

 private:
  const CatalogReader& catalog_;
  IndexId next_id_ = kWhatIfIndexIdBase;
  std::map<IndexId, std::unique_ptr<IndexInfo>> indexes_;
};

}  // namespace parinda

#endif  // PARINDA_WHATIF_WHATIF_INDEX_H_
