#include "whatif/whatif_table.h"

#include <algorithm>

#include "catalog/size_model.h"
#include "common/strings.h"

namespace parinda {

Result<TableId> WhatIfTableCatalog::AddPartition(
    const WhatIfPartitionDef& def) {
  const TableInfo* parent = base_.GetTable(def.parent);
  if (parent == nullptr) {
    return Status::NotFound("no parent table with id " +
                            std::to_string(def.parent));
  }
  if (def.name.empty()) {
    return Status::InvalidArgument("partition needs a name");
  }
  if (FindTable(def.name) != nullptr) {
    return Status::AlreadyExists("table '" + def.name + "' exists");
  }
  // Fragment columns: parent PK first (dedup), then the requested columns.
  std::vector<ColumnId> frag_columns = parent->primary_key;
  for (ColumnId col : def.columns) {
    if (col < 0 || col >= parent->schema.num_columns()) {
      return Status::InvalidArgument("partition column out of range");
    }
    if (std::find(frag_columns.begin(), frag_columns.end(), col) ==
        frag_columns.end()) {
      frag_columns.push_back(col);
    }
  }
  auto info = std::make_unique<TableInfo>();
  info->id = next_id_++;
  info->name = def.name;
  info->hypothetical = true;
  info->parent_table = parent->id;
  info->parent_columns = frag_columns;
  info->row_count = parent->row_count;
  TableSchema schema(def.name, {});
  std::vector<SizedColumn> sized;
  for (ColumnId col : frag_columns) {
    schema.AddColumn(parent->schema.column(col));
    SizedColumn sc;
    sc.type = parent->schema.column(col).type;
    const ColumnStats* stats = parent->StatsFor(col);
    if (stats != nullptr) {
      info->column_stats.push_back(*stats);
      sc.avg_width = stats->avg_width;
    } else {
      info->column_stats.push_back(ColumnStats{});
      sc.avg_width = TypeFixedSize(sc.type) > 0
                         ? TypeFixedSize(sc.type)
                         : parent->schema.column(col).declared_avg_width;
    }
    sized.push_back(sc);
  }
  if (!parent->HasStats()) info->column_stats.clear();
  info->schema = std::move(schema);
  for (size_t i = 0; i < parent->primary_key.size(); ++i) {
    info->primary_key.push_back(static_cast<ColumnId>(i));
  }
  info->pages = EstimateHeapPages(info->row_count, sized);
  const TableId id = info->id;
  tables_[id] = std::move(info);
  return id;
}

Result<std::vector<TableId>> WhatIfTableCatalog::AddRangePartitioning(
    const RangePartitionDef& def) {
  const TableInfo* parent = GetTable(def.parent);
  if (parent == nullptr) {
    return Status::NotFound("no parent table with id " +
                            std::to_string(def.parent));
  }
  if (def.column < 0 || def.column >= parent->schema.num_columns()) {
    return Status::InvalidArgument("partition column out of range");
  }
  if (def.bounds.empty()) {
    return Status::InvalidArgument("range partitioning needs split points");
  }
  for (size_t i = 1; i < def.bounds.size(); ++i) {
    if (def.bounds[i - 1].Compare(def.bounds[i]) >= 0) {
      return Status::InvalidArgument("split points must be ascending");
    }
  }
  const std::string prefix =
      def.name_prefix.empty() ? parent->name + "_hp" : def.name_prefix;
  std::vector<TableId> children;
  for (size_t k = 0; k <= def.bounds.size(); ++k) {
    const Value lo = k == 0 ? Value::Null() : def.bounds[k - 1];
    const Value hi = k == def.bounds.size() ? Value::Null() : def.bounds[k];
    const TableId id = next_id_++;
    auto child = std::make_unique<TableInfo>(SliceTableForRange(
        *parent, def.column, lo, hi, prefix + std::to_string(k), id));
    tables_[id] = std::move(child);
    children.push_back(id);
  }
  // Shadow the parent with the partitioning metadata.
  auto shadow = std::make_unique<TableInfo>(*parent);
  shadow->horizontal_children = children;
  shadow->partition_column = def.column;
  shadow->partition_bounds = def.bounds;
  shadows_[parent->id] = std::move(shadow);
  return children;
}

std::vector<const TableInfo*> WhatIfTableCatalog::Partitions() const {
  std::vector<const TableInfo*> out;
  out.reserve(tables_.size());
  for (const auto& [id, info] : tables_) out.push_back(info.get());
  return out;
}

const TableInfo* WhatIfTableCatalog::FindTable(const std::string& name) const {
  for (const auto& [id, info] : tables_) {
    if (EqualsIgnoreCase(info->name, name)) return info.get();
  }
  const TableInfo* found = base_.FindTable(name);
  if (found != nullptr) {
    auto shadow = shadows_.find(found->id);
    if (shadow != shadows_.end()) return shadow->second.get();
  }
  return found;
}

const TableInfo* WhatIfTableCatalog::GetTable(TableId id) const {
  auto it = tables_.find(id);
  if (it != tables_.end()) return it->second.get();
  auto shadow = shadows_.find(id);
  if (shadow != shadows_.end()) return shadow->second.get();
  return base_.GetTable(id);
}

const IndexInfo* WhatIfTableCatalog::GetIndex(IndexId id) const {
  return base_.GetIndex(id);
}

std::vector<const IndexInfo*> WhatIfTableCatalog::TableIndexes(
    TableId table) const {
  if (tables_.count(table) > 0) return {};  // fragments start index-less
  return base_.TableIndexes(table);
}

std::vector<const TableInfo*> WhatIfTableCatalog::AllTables() const {
  std::vector<const TableInfo*> out = base_.AllTables();
  for (const auto& [id, info] : tables_) out.push_back(info.get());
  return out;
}

}  // namespace parinda
