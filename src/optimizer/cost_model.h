#ifndef PARINDA_OPTIMIZER_COST_MODEL_H_
#define PARINDA_OPTIMIZER_COST_MODEL_H_

#include "catalog/catalog.h"
#include "optimizer/cost_params.h"

namespace parinda {

/// Scan costing shared by the planner, the INUM cached cost model, and the
/// ILP benefit computation. Keeping one implementation is what makes INUM's
/// "internal cost + access cost" recomposition exact.

/// The sizes a scan is costed at: a table's own, or the hook-adjusted ones
/// the planner carries per range (what-if size hooks change only these two).
struct RelSize {
  double rows = 0.0;
  double pages = 0.0;

  static RelSize Of(const TableInfo& table) {
    return RelSize{table.row_count, table.pages};
  }
};

struct ScanCost {
  double startup = 0.0;
  double total = 0.0;
  /// Rows the scan emits after all quals.
  double rows = 0.0;
};

/// Sequential scan over the whole heap with `filter_sel` surviving the quals.
ScanCost CostSeqScan(const CostParams& params, RelSize size, double filter_sel,
                     int num_filter_quals);

/// B-tree index scan fetching `index_sel` of a table of `size` through the
/// index (`table` supplies the leading key column's correlation) and
/// keeping `filter_sel` (<= index_sel) after residual quals. Implements
/// PostgreSQL's cost_index: Mackert–Lohman page fetch estimation with
/// correlation-squared interpolation between best and worst case I/O.
/// `loop_count` > 1 models a parameterized inner scan of a nested loop and
/// amortizes cache effects across rescans.
ScanCost CostIndexScan(const CostParams& params, const TableInfo& table,
                       RelSize size, const IndexInfo& index, double index_sel,
                       double filter_sel, int num_index_conds,
                       int num_filter_quals, double loop_count = 1.0);

/// Mackert–Lohman estimate of distinct heap pages touched when fetching
/// `tuples` random tuples from a table of `pages` pages with
/// `cache_pages` of buffer available (PostgreSQL's index_pages_fetched).
double MackertLohmanPagesFetched(double tuples, double pages,
                                 double cache_pages);

/// Bitmap index + heap scan: the index produces a page bitmap, the heap is
/// read in physical page order at a per-page cost interpolated between
/// sequential and random by density (PostgreSQL's cost_bitmap_heap_scan).
/// Unordered output; wins at medium selectivities where plain index scans
/// thrash and sequential scans read too much.
ScanCost CostBitmapHeapScan(const CostParams& params, RelSize size,
                            const IndexInfo& index, double index_sel,
                            double filter_sel, int num_index_conds,
                            int num_filter_quals);

/// In-memory sort of `rows` tuples of `width` bytes (PostgreSQL cost_sort,
/// with the external-merge surcharge when the data exceeds work_mem).
struct SortCost {
  double startup = 0.0;  // cost before the first output row
  double per_output = 0.0;
};
SortCost CostSort(const CostParams& params, double rows, double width,
                  double input_total_cost);

}  // namespace parinda

#endif  // PARINDA_OPTIMIZER_COST_MODEL_H_
