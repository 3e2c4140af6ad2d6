#ifndef PARINDA_ADVISOR_BENEFIT_MATRIX_H_
#define PARINDA_ADVISOR_BENEFIT_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace parinda {

/// The query x candidate stand-alone benefit structure of the index advisor.
///
/// Entries hold the UNWEIGHTED per-execution gain of one candidate for one
/// query (`base - cost` when positive); consumers multiply by the query
/// weight at use, so the same matrix serves both the original and the
/// compressed workload view. Most candidates are irrelevant to most queries
/// (their table sets do not intersect), so the layout is CSR-style:
/// per-query rows of (candidate, gain) pairs sorted by candidate, holding
/// only the positive entries — memory is O(nnz) instead of O(nq * nc).
///
/// Fill contract: row q is written only by the worker that owns query q,
/// with candidates visited in ascending order — rows stay sorted without a
/// sort pass and the matrix is bit-identical under any parallelism.
class BenefitMatrix {
 public:
  struct Entry {
    int cand = 0;
    double gain = 0.0;
  };

  /// Clears and re-shapes the matrix: empty rows that grow with Set().
  void Reset(int num_queries, int num_candidates);

  /// Records a positive stand-alone gain. Rows require ascending candidate
  /// order (the fill loop's natural order).
  void Set(int q, int j, double gain) {
    rows_[static_cast<size_t>(q)].push_back({j, gain});
  }

  /// The stored gain, or 0.0 when the entry is absent.
  double Get(int q, int j) const;

  /// Calls fn(candidate, gain) for every positive entry of row q in
  /// ascending candidate order. Skipping the zero entries is bitwise-neutral
  /// for the advisor's accumulations (all of them sum non-negative terms
  /// into non-negative totals, and x + 0.0 == x for x >= +0.0).
  template <typename Fn>
  void ForEachInRow(int q, Fn&& fn) const {
    for (const Entry& e : rows_[static_cast<size_t>(q)]) fn(e.cand, e.gain);
  }

  /// Number of stored positive entries across all rows.
  int64_t NonZeros() const;

  int num_queries() const { return static_cast<int>(rows_.size()); }
  int num_candidates() const { return num_candidates_; }

 private:
  int num_candidates_ = 0;
  std::vector<std::vector<Entry>> rows_;
};

}  // namespace parinda

#endif  // PARINDA_ADVISOR_BENEFIT_MATRIX_H_
