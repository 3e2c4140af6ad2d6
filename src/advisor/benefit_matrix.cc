#include "advisor/benefit_matrix.h"

#include <algorithm>

namespace parinda {

void BenefitMatrix::Reset(int num_queries, int num_candidates) {
  num_candidates_ = num_candidates;
  rows_.assign(static_cast<size_t>(num_queries), {});
}

double BenefitMatrix::Get(int q, int j) const {
  const std::vector<Entry>& row = rows_[static_cast<size_t>(q)];
  auto it = std::lower_bound(
      row.begin(), row.end(), j,
      [](const Entry& e, int cand) { return e.cand < cand; });
  return it != row.end() && it->cand == j ? it->gain : 0.0;
}

int64_t BenefitMatrix::NonZeros() const {
  int64_t nnz = 0;
  for (const auto& row : rows_) nnz += static_cast<int64_t>(row.size());
  return nnz;
}

}  // namespace parinda
