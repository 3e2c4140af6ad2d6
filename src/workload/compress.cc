#include "workload/compress.h"

#include <map>
#include <set>

#include "catalog/catalog.h"
#include "common/metrics.h"
#include "common/strings.h"

namespace parinda {

namespace {

/// FNV-1a 64-bit, used to compress a table's full statistics content into a
/// fixed-width fingerprint for the fold key.
uint64_t Fnv1a(uint64_t hash, const std::string& data) {
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

void HashDouble(uint64_t* hash, double v) {
  // %a is hex-exact: any stats difference — however small — changes the
  // fingerprint, so queries over different stats scopes never fold.
  *hash = Fnv1a(*hash, StringPrintf("%a", v));
}

/// Content fingerprint of one table's statistics: everything the planner
/// reads when costing a query against it.
uint64_t TableStatsFingerprint(const TableInfo& table) {
  uint64_t hash = 14695981039346656037ULL;
  hash = Fnv1a(hash, table.name);
  HashDouble(&hash, table.row_count);
  HashDouble(&hash, table.pages);
  for (const ColumnStats& stats : table.column_stats) {
    hash = Fnv1a(hash, "|col");
    HashDouble(&hash, stats.null_frac);
    HashDouble(&hash, stats.avg_width);
    HashDouble(&hash, stats.n_distinct);
    HashDouble(&hash, stats.correlation);
    hash = Fnv1a(hash, stats.min_value.ToString());
    hash = Fnv1a(hash, stats.max_value.ToString());
    for (const Value& v : stats.mcv_values) hash = Fnv1a(hash, v.ToString());
    for (const double f : stats.mcv_freqs) HashDouble(&hash, f);
    for (const Value& v : stats.histogram_bounds) {
      hash = Fnv1a(hash, v.ToString());
    }
  }
  return hash;
}

std::string FoldKey(const CatalogReader& catalog, const WorkloadQuery& query,
                    std::map<TableId, uint64_t>* fingerprint_cache) {
  std::string key = query.stmt.ToSql();
  std::set<TableId> tables;
  for (const TableRef& ref : query.stmt.from) tables.insert(ref.bound_table);
  for (const TableId table : tables) {
    const TableInfo* info = catalog.GetTable(table);
    if (info == nullptr) {
      key += StringPrintf("|t%lld:unbound", static_cast<long long>(table));
      continue;
    }
    uint64_t fp;
    if (fingerprint_cache != nullptr) {
      auto [it, inserted] = fingerprint_cache->try_emplace(table, 0);
      if (inserted) it->second = TableStatsFingerprint(*info);
      fp = it->second;
    } else {
      fp = TableStatsFingerprint(*info);
    }
    key += StringPrintf("|t%lld:%016llx", static_cast<long long>(table),
                        static_cast<unsigned long long>(fp));
  }
  return key;
}

}  // namespace

std::string QueryFoldSignature(const CatalogReader& catalog,
                               const WorkloadQuery& query) {
  return FoldKey(catalog, query, nullptr);
}

CompressedWorkload CompressWorkload(const CatalogReader& catalog,
                                    const Workload& workload) {
  CompressedWorkload out;
  std::map<TableId, uint64_t> fingerprints;
  std::map<std::string, int> classes;
  for (size_t i = 0; i < workload.queries.size(); ++i) {
    const WorkloadQuery& query = workload.queries[i];
    const std::string key = FoldKey(catalog, query, &fingerprints);
    const int next = static_cast<int>(out.workload.queries.size());
    auto [it, inserted] = classes.try_emplace(key, next);
    if (inserted) {
      WorkloadQuery clone;
      clone.sql = query.sql;
      clone.stmt = query.stmt.Clone();
      clone.weight = query.weight;
      out.workload.queries.push_back(std::move(clone));
      out.expansion.members.emplace_back();
    } else {
      out.workload.queries[static_cast<size_t>(it->second)].weight +=
          query.weight;
    }
    out.expansion.members[static_cast<size_t>(it->second)].push_back(
        static_cast<int>(i));
    out.expansion.representative.push_back(it->second);
    out.expansion.weights.push_back(query.weight);
  }
  // Gauges are integral; the ratio is stored in centi-units (100 = 1.0x).
  metrics::Registry::Global()
      .gauge("advisor.compression_ratio")
      .Set(static_cast<int64_t>(out.ratio() * 100.0));
  return out;
}

}  // namespace parinda
