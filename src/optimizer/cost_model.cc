#include "optimizer/cost_model.h"

#include <algorithm>
#include <cmath>

#include "catalog/size_model.h"

namespace parinda {

namespace {

double ClampRows(double rows) { return std::max(1.0, std::ceil(rows)); }

}  // namespace

ScanCost CostSeqScan(const CostParams& params, RelSize size, double filter_sel,
                     int num_filter_quals) {
  ScanCost cost;
  const double pages = std::max(1.0, size.pages);
  double run = params.seq_page_cost * pages +
               params.cpu_tuple_cost * size.rows +
               params.cpu_operator_cost * num_filter_quals * size.rows;
  if (!params.enable_seqscan) run += CostParams::kDisableCost;
  cost.startup = 0.0;
  cost.total = run;
  cost.rows = ClampRows(size.rows * filter_sel);
  return cost;
}

double MackertLohmanPagesFetched(double tuples, double pages,
                                 double cache_pages) {
  // PostgreSQL index_pages_fetched() (costsize.c), single-table form.
  const double T = std::max(1.0, pages);
  const double b = std::max(1.0, cache_pages);
  const double s = std::max(0.0, tuples);
  if (s <= 0.0) return 0.0;
  double fetched;
  if (T <= b) {
    fetched = (2.0 * T * s) / (2.0 * T + s);
    fetched = std::min(fetched, T);
  } else {
    const double lim = (2.0 * T * b) / (2.0 * T - b);
    if (s <= lim) {
      fetched = (2.0 * T * s) / (2.0 * T + s);
    } else {
      fetched = b + (s - lim) * (T - b) / T;
      fetched = std::min(fetched, T);
    }
  }
  return std::ceil(fetched);
}

ScanCost CostIndexScan(const CostParams& params, const TableInfo& table,
                       RelSize size, const IndexInfo& index, double index_sel,
                       double filter_sel, int num_index_conds,
                       int num_filter_quals, double loop_count) {
  ScanCost cost;
  const double rows = std::max(1.0, size.rows);
  const double heap_pages = std::max(1.0, size.pages);
  const double tuples_fetched = ClampRows(rows * index_sel);
  const double leaf_pages = std::max(1.0, index.leaf_pages);
  const double entries = index.entries > 0 ? index.entries : rows;

  // --- Index access cost (genericcostestimate) ---
  const double index_pages_fetched = std::ceil(index_sel * leaf_pages);
  double index_io = params.random_page_cost * std::max(1.0, index_pages_fetched);
  // Tree descent: one random page per level.
  index_io += params.random_page_cost * index.tree_height;
  const double index_cpu =
      params.cpu_index_tuple_cost * index_sel * entries +
      params.cpu_operator_cost * num_index_conds * index_sel * entries;
  const double index_startup =
      params.random_page_cost * (index.tree_height + 1);

  // --- Heap access cost: interpolate between perfectly correlated
  // (sequential) and uncorrelated (Mackert–Lohman random) I/O. ---
  double max_io;
  if (loop_count > 1.0) {
    // Amortize cache effects across rescans (PostgreSQL 9.x refinement of
    // the 8.3 model; keeps parameterized nested loops sanely priced).
    const double total_tuples = tuples_fetched * loop_count;
    max_io = MackertLohmanPagesFetched(total_tuples, heap_pages,
                                       params.effective_cache_size) /
             loop_count;
    max_io *= params.random_page_cost;
  } else {
    max_io = MackertLohmanPagesFetched(tuples_fetched, heap_pages,
                                       params.effective_cache_size) *
             params.random_page_cost;
  }
  const double pages_if_sorted = std::ceil(index_sel * heap_pages);
  const double min_io =
      params.random_page_cost +
      std::max(0.0, pages_if_sorted - 1.0) * params.seq_page_cost;

  // Correlation of the index's leading key column.
  double correlation = 0.0;
  if (!index.columns.empty()) {
    const ColumnStats* stats = table.StatsFor(index.columns[0]);
    if (stats != nullptr) correlation = stats->correlation;
  }
  const double csquared = correlation * correlation;
  const double heap_io = std::max(min_io, max_io + csquared * (min_io - max_io));

  const double heap_cpu =
      params.cpu_tuple_cost * tuples_fetched +
      params.cpu_operator_cost * num_filter_quals * tuples_fetched;

  double total = index_io + index_cpu + heap_io + heap_cpu;
  if (!params.enable_indexscan) total += CostParams::kDisableCost;

  cost.startup = index_startup;
  cost.total = total;
  cost.rows = ClampRows(rows * filter_sel);
  return cost;
}

ScanCost CostBitmapHeapScan(const CostParams& params, RelSize size,
                            const IndexInfo& index, double index_sel,
                            double filter_sel, int num_index_conds,
                            int num_filter_quals) {
  ScanCost cost;
  const double rows = std::max(1.0, size.rows);
  const double heap_pages = std::max(1.0, size.pages);
  const double tuples_fetched = ClampRows(rows * index_sel);
  const double leaf_pages = std::max(1.0, index.leaf_pages);
  const double entries = index.entries > 0 ? index.entries : rows;

  // Bitmap index scan: same index access arithmetic as a plain scan.
  const double index_pages_fetched = std::ceil(index_sel * leaf_pages);
  const double index_io =
      params.random_page_cost *
          std::max(1.0, index_pages_fetched) +
      params.random_page_cost * index.tree_height;
  const double index_cpu =
      params.cpu_index_tuple_cost * index_sel * entries +
      params.cpu_operator_cost * num_index_conds * index_sel * entries;

  // Heap pages, visited in physical order: per-page cost interpolates from
  // random (sparse bitmap) to sequential (dense bitmap) with sqrt density,
  // exactly like cost_bitmap_heap_scan.
  const double pages_fetched = MackertLohmanPagesFetched(
      tuples_fetched, heap_pages, params.effective_cache_size);
  double cost_per_page = params.random_page_cost;
  if (pages_fetched >= 2.0) {
    cost_per_page =
        params.random_page_cost -
        (params.random_page_cost - params.seq_page_cost) *
            std::sqrt(pages_fetched / heap_pages);
  }
  const double heap_io = pages_fetched * cost_per_page;
  // Every fetched tuple is rechecked against the index conditions.
  const double heap_cpu =
      (params.cpu_tuple_cost + params.cpu_operator_cost * num_index_conds) *
          tuples_fetched +
      params.cpu_operator_cost * num_filter_quals * tuples_fetched;

  double total = index_io + index_cpu + heap_io + heap_cpu;
  if (!params.enable_indexscan) total += CostParams::kDisableCost;
  // Building the bitmap happens before the first row comes out.
  cost.startup = index_io + index_cpu;
  cost.total = total;
  cost.rows = ClampRows(rows * filter_sel);
  return cost;
}

SortCost CostSort(const CostParams& params, double rows, double width,
                  double input_total_cost) {
  SortCost cost;
  const double tuples = std::max(2.0, rows);
  const double comparison = 2.0 * params.cpu_operator_cost;
  double sort_cost = comparison * tuples * std::log2(tuples);
  const double bytes = tuples * std::max(8.0, width);
  if (bytes > params.work_mem_bytes) {
    // External merge sort: charge I/O for one write+read pass per merge
    // level (simplified cost_sort disk case).
    const double pages = std::ceil(bytes / kPageSize);
    const double levels = std::max(
        1.0, std::ceil(std::log2(bytes / params.work_mem_bytes)));
    sort_cost += levels * pages *
                 (params.seq_page_cost * 0.75 + params.random_page_cost * 0.25) *
                 2.0;
  }
  if (!params.enable_sort) sort_cost += CostParams::kDisableCost;
  cost.startup = input_total_cost + sort_cost;
  cost.per_output = params.cpu_operator_cost;
  return cost;
}

}  // namespace parinda
