#ifndef PARINDA_WORKLOAD_COMPRESS_H_
#define PARINDA_WORKLOAD_COMPRESS_H_

#include <string>
#include <vector>

#include "workload/workload.h"

namespace parinda {

class CatalogReader;

/// Mapping between an original workload and its compressed (folded) view.
///
/// Engine costs are a pure function of (normalized query text, overlay
/// signature): two queries with identical `ToSql()` text over tables with
/// identical statistics cost the same under every design. Folding them into
/// one representative is therefore exact — the advisor evaluates the
/// representative once and expands the result back over the members.
///
/// All per-query report arrays and workload totals are accumulated over the
/// ORIGINAL queries in ascending order using the representative's unweighted
/// cost, so the floating-point addition sequence — and hence every reported
/// double, bit for bit — matches the uncompressed run.
struct WorkloadExpansion {
  /// representative[i] = compressed index whose evaluation covers original
  /// query i.
  std::vector<int> representative;
  /// members[c] = original indices folded into compressed query c
  /// (ascending).
  std::vector<std::vector<int>> members;
  /// Original per-query weights, parallel to `representative`.
  std::vector<double> weights;

  int original_size() const {
    return static_cast<int>(representative.size());
  }
};

/// A compressed workload: one representative per fold class, carrying the
/// summed weight of its members, plus the expansion mapping back to the
/// original queries.
struct CompressedWorkload {
  Workload workload;
  WorkloadExpansion expansion;

  /// Number of queries eliminated by folding.
  int folded() const {
    return expansion.original_size() -
           static_cast<int>(workload.queries.size());
  }
  /// original/compressed query-count ratio (1.0 for an empty workload).
  double ratio() const {
    return workload.queries.empty()
               ? 1.0
               : static_cast<double>(expansion.original_size()) /
                     static_cast<double>(workload.queries.size());
  }
};

/// The weight-independent fold key of one query: its normalized SQL text
/// plus a content fingerprint of the statistics of every table it touches
/// (row counts, pages, per-column null fraction / width / distincts /
/// correlation / MCVs / histogram bounds, hex-exact doubles). Identical
/// templates over different stats scopes get different keys and never fold.
std::string QueryFoldSignature(const CatalogReader& catalog,
                               const WorkloadQuery& query);

/// Folds queries with identical fold keys into one representative with
/// summed weight. Representatives keep first-occurrence order, so candidate
/// enumeration over the compressed workload visits the same queries in the
/// same order as the uncompressed run minus the duplicates. The result is
/// always a usable fold: when nothing folds it is the identity
/// (`representative[i] == i`, `members[i] == {i}`). Every call sets the
/// `advisor.compression_ratio` gauge to this fold's ratio.
CompressedWorkload CompressWorkload(const CatalogReader& catalog,
                                    const Workload& workload);

}  // namespace parinda

#endif  // PARINDA_WORKLOAD_COMPRESS_H_
