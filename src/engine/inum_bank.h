#ifndef PARINDA_ENGINE_INUM_BANK_H_
#define PARINDA_ENGINE_INUM_BANK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/deadline.h"
#include "common/status.h"
#include "engine/cache_governor.h"
#include "inum/inum.h"
#include "optimizer/cost_params.h"
#include "workload/compress.h"

namespace parinda {

/// Engine-owned bank of per-class INUM cost models: one lazily built
/// `InumCostModel` slot per fold class (workload/compress.h), rebuilt when
/// the cost parameters change (the params-epoch bookkeeping formerly private
/// to DesignSession). The index advisor's benefit matrix and the design
/// session's index-only recosting share this one mechanism. Query index `q`
/// below names a fold class.
///
/// Thread-compatibility: slots are disjoint. Concurrent `Model()` calls are
/// safe iff they target distinct `q` (the advisor's ParallelFor contract);
/// the aggregate accessors must only run after workers have joined.
class InumBank {
 public:
  /// `catalog` and `fold` must outlive the bank.
  InumBank(const CatalogReader& catalog, const CompressedWorkload& fold);

  InumBank(const InumBank&) = delete;
  InumBank& operator=(const InumBank&) = delete;

  /// The model for query `q`, built (and Init()ed) on first use and rebuilt
  /// when `params` differ bit-for-bit from the slot's params or the slot's
  /// previous Init failed. `deadline` is re-armed on every call (it may be
  /// null) and must outlive the model's use. On Init failure the error
  /// propagates and the slot keeps the partially initialized model — its
  /// optimizer calls stay observable — but will rebuild on the next call.
  [[nodiscard]] Result<InumCostModel*> Model(int q, const CostParams& params,
                                             const Deadline* deadline);

  /// The model for `q` if one was ever built (even if Init failed);
  /// nullptr otherwise.
  InumCostModel* Get(int q) const;

  /// Sum of optimizer calls / served estimates across built models.
  int64_t TotalOptimizerCalls() const;
  int64_t TotalEstimatesServed() const;

  // -- resource governance (DESIGN.md §14) -----------------------------
  // Only safe when Model() calls are serialized (DesignSession's
  // single-threaded driver): the governor's eviction callback destroys a
  // model, which must never race a worker holding its pointer. The
  // governor's MRU pin guarantees the slot just handed out by Model() is
  // never the one evicted.

  /// Registers this bank as governor shard `shard`; ids are the class index
  /// in decimal. Pass nullptr to detach.
  void set_governor(CacheGovernor* governor, int shard);

  /// Drops slot `q` entirely (the governor's eviction callback): the model
  /// and its INUM cache are destroyed and will rebuild on the next Model()
  /// call — degradation to re-planning, not failure.
  void EvictSlot(int q);

 private:
  struct Slot {
    std::unique_ptr<InumCostModel> model;
    std::string params_sig;
    bool init_ok = false;
  };

  const CatalogReader& catalog_;
  /// The fold's representatives, one per slot.
  const Workload& workload_;
  std::vector<Slot> slots_;
  CacheGovernor* governor_ = nullptr;
  int governor_shard_ = 0;
  /// Counters of models eviction destroyed, so the aggregate accessors stay
  /// monotone under a memory budget.
  int64_t evicted_optimizer_calls_ = 0;
  int64_t evicted_estimates_served_ = 0;
};

}  // namespace parinda

#endif  // PARINDA_ENGINE_INUM_BANK_H_
