#ifndef PARINDA_WHATIF_WHATIF_TABLE_H_
#define PARINDA_WHATIF_WHATIF_TABLE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "whatif/whatif_horizontal.h"

namespace parinda {

/// Hypothetical table ids live above this base.
inline constexpr TableId kWhatIfTableIdBase = 1'000'000;

/// Definition of a hypothetical vertical partition of `parent`: the fragment
/// holds the parent's primary key plus `columns` (paper §3.2: "these tables
/// contain the primary keys of the original table, so that the full table
/// can be reconstructed from the partitions").
struct WhatIfPartitionDef {
  std::string name;
  TableId parent = kInvalidTableId;
  std::vector<ColumnId> columns;
};

/// The paper's *What-If Table Component*: a CatalogReader overlay that makes
/// hypothetical partition tables visible to the binder and planner.
///
/// "Unlike the what-if indexes, which are completely constructed inside the
/// optimizer, we build empty what-if tables so that the query parser
/// recognizes the new tables and parses the SQL input. At the optimization
/// time we insert the statistics about the new table, making the planner
/// 'believe' the table really exists with data on disk."
/// Here the overlay serves both roles: name resolution (binder) and
/// statistics (planner).
class WhatIfTableCatalog : public CatalogReader {
 public:
  /// `base` must outlive this overlay.
  explicit WhatIfTableCatalog(const CatalogReader& base) : base_(base) {}

  WhatIfTableCatalog(const WhatIfTableCatalog&) = delete;
  WhatIfTableCatalog& operator=(const WhatIfTableCatalog&) = delete;

  /// Simulates a vertical partition: derives schema, row count, page count
  /// and per-column statistics from the parent's catalog entry — no data is
  /// touched. Page count uses the same heap-size model ANALYZE uses, so a
  /// later materialization (scenario 2's "create on disk" button) reproduces
  /// the simulated sizes.
  [[nodiscard]] Result<TableId> AddPartition(const WhatIfPartitionDef& def);

  /// Simulates a horizontal range partitioning: creates one hypothetical
  /// child per range (statistics sliced from the parent) and shadows the
  /// parent's catalog entry with the partition metadata, so the planner
  /// prunes and Appends exactly as it would after materialization. Returns
  /// the hypothetical child ids in range order.
  [[nodiscard]] Result<std::vector<TableId>> AddRangePartitioning(
      const RangePartitionDef& def);

  void Clear() {
    tables_.clear();
    shadows_.clear();
  }

  std::vector<const TableInfo*> Partitions() const;
  int size() const { return static_cast<int>(tables_.size()); }

  // CatalogReader: overlay resolution — hypothetical tables shadow base
  // tables of the same name (they never collide in practice because
  // fragment names are generated).
  const TableInfo* FindTable(const std::string& name) const override;
  const TableInfo* GetTable(TableId id) const override;
  const IndexInfo* GetIndex(IndexId id) const override;
  std::vector<const IndexInfo*> TableIndexes(TableId table) const override;
  std::vector<const TableInfo*> AllTables() const override;

 private:
  const CatalogReader& base_;
  TableId next_id_ = kWhatIfTableIdBase;
  std::map<TableId, std::unique_ptr<TableInfo>> tables_;
  /// Real table ids shadowed with modified metadata (horizontal
  /// partitioning installs the children here).
  std::map<TableId, std::unique_ptr<TableInfo>> shadows_;
};

}  // namespace parinda

#endif  // PARINDA_WHATIF_WHATIF_TABLE_H_
