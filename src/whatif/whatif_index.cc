#include "whatif/whatif_index.h"

#include "catalog/size_model.h"

namespace parinda {

namespace {

Result<std::vector<SizedColumn>> SizedColumnsFor(
    const CatalogReader& catalog, TableId table_id,
    const std::vector<ColumnId>& columns) {
  const TableInfo* table = catalog.GetTable(table_id);
  if (table == nullptr) {
    return Status::NotFound("no table with id " + std::to_string(table_id));
  }
  std::vector<SizedColumn> out;
  out.reserve(columns.size());
  for (ColumnId col : columns) {
    if (col < 0 || col >= table->schema.num_columns()) {
      return Status::InvalidArgument("index column out of range for table '" +
                                     table->name + "'");
    }
    SizedColumn sized;
    sized.type = table->schema.column(col).type;
    const ColumnStats* stats = table->StatsFor(col);
    if (stats != nullptr) {
      sized.avg_width = stats->avg_width;
    } else if (TypeFixedSize(sized.type) > 0) {
      sized.avg_width = TypeFixedSize(sized.type);
    } else {
      sized.avg_width = table->schema.column(col).declared_avg_width;
    }
    out.push_back(sized);
  }
  return out;
}

}  // namespace

Result<double> WhatIfIndexSet::EstimatePages(const CatalogReader& catalog,
                                             const WhatIfIndexDef& def) {
  PARINDA_ASSIGN_OR_RETURN(std::vector<SizedColumn> sized,
                           SizedColumnsFor(catalog, def.table, def.columns));
  const TableInfo* table = catalog.GetTable(def.table);
  return Equation1IndexPages(table->row_count, sized);
}

Result<IndexId> WhatIfIndexSet::AddIndex(const WhatIfIndexDef& def) {
  if (def.columns.empty()) {
    return Status::InvalidArgument("what-if index needs at least one column");
  }
  PARINDA_ASSIGN_OR_RETURN(double pages, EstimatePages(catalog_, def));
  const TableInfo* table = catalog_.GetTable(def.table);
  auto info = std::make_unique<IndexInfo>();
  info->id = next_id_++;
  info->name = def.name.empty()
                   ? "whatif_" + std::to_string(info->id)
                   : def.name;
  info->table_id = def.table;
  info->columns = def.columns;
  info->unique = def.unique;
  info->hypothetical = true;
  info->leaf_pages = pages;
  info->tree_height = EstimateBTreeHeight(pages);
  info->entries = table->row_count;
  const IndexId id = info->id;
  indexes_[id] = std::move(info);
  return id;
}

Status WhatIfIndexSet::RemoveIndex(IndexId id) {
  if (indexes_.erase(id) == 0) {
    return Status::NotFound("no what-if index with id " + std::to_string(id));
  }
  return Status::OK();
}

const IndexInfo* WhatIfIndexSet::Get(IndexId id) const {
  auto it = indexes_.find(id);
  return it == indexes_.end() ? nullptr : it->second.get();
}

IndexInfo* WhatIfIndexSet::GetMutable(IndexId id) {
  auto it = indexes_.find(id);
  return it == indexes_.end() ? nullptr : it->second.get();
}

std::vector<const IndexInfo*> WhatIfIndexSet::IndexesFor(TableId table) const {
  std::vector<const IndexInfo*> out;
  for (const auto& [id, info] : indexes_) {
    if (info->table_id == table) out.push_back(info.get());
  }
  return out;
}

RelationInfoHook WhatIfIndexSet::MakeHook() const {
  return [this](const CatalogReader&, RelOptInfo* rel) {
    for (const auto& [id, info] : indexes_) {
      if (info->table_id == rel->table->id) {
        rel->indexes.push_back(info.get());
      }
    }
  };
}

RelationInfoHook WhatIfIndexSet::MakeExclusiveHook() const {
  return [this](const CatalogReader&, RelOptInfo* rel) {
    rel->indexes.clear();
    for (const auto& [id, info] : indexes_) {
      if (info->table_id == rel->table->id) {
        rel->indexes.push_back(info.get());
      }
    }
  };
}

}  // namespace parinda
